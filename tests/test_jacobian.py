import numpy as np
import pytest

from chmc import (
    DmmSolverConfig,
    JacobianAccumulator,
    JacobianMode,
    MassMatrix,
    MultivariateGaussian,
    PhaseState,
    QuarticGeneralizedGaussian,
    StepJacobian,
    dmm_step,
    force_jacobians,
    step_jacobian,
    trajectory,
    trajectory_jacobian,
)
from chmc.phase import negate_momentum


class PerComponentQuartic(QuarticGeneralizedGaussian):
    """The quartic without its separability declaration: probes go one by one."""

    closed_form_force_jacobian_diag = None


class TestForceJacobians:
    def test_quartic_analytic_values(self):
        t = QuarticGeneralizedGaussian(1)
        d_q, d_Q, n = force_jacobians(np.array([2.0]), np.array([1.0]), t, "analytic",
                                      diagonal_only=True)
        assert d_q[0] == pytest.approx(22.0, rel=1e-14)
        assert d_Q[0] == pytest.approx(34.0, rel=1e-14)
        assert n == 0

    def test_gaussian_analytic_is_precision(self):
        cov = np.array([[2.0, 0.4], [0.4, 1.0]])
        t = MultivariateGaussian([0.0, 0.0], cov)
        d_q, d_Q, _ = force_jacobians(np.array([1.0, 0.5]), np.array([-0.2, 0.7]), t, "analytic")
        prec = np.linalg.inv(cov)
        np.testing.assert_allclose(d_q, prec, rtol=1e-10)
        np.testing.assert_allclose(d_Q, prec, rtol=1e-10)

    def test_finite_difference_agrees_with_analytic(self):
        rng = np.random.default_rng(41)
        t = QuarticGeneralizedGaussian(3)
        for _ in range(100):
            q = rng.uniform(-2, 2, 3)
            Q = q + rng.uniform(0.05, 1.0, 3) * rng.choice([-1, 1], 3)
            a_q, a_Q, _ = force_jacobians(Q, q, t, "analytic")
            f_q, f_Q, n = force_jacobians(Q, q, t, "finite-difference")
            assert n == 3  # separable target: compressed probes
            np.testing.assert_allclose(f_q, a_q, rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(f_Q, a_Q, rtol=1e-5, atol=1e-5)

    def test_diagonal_only_returns_vectors(self):
        t = QuarticGeneralizedGaussian(2)
        d_q, d_Q, _ = force_jacobians(np.array([1.0, 2.0]), np.array([0.5, 1.5]), t,
                                      "finite-difference", diagonal_only=True)
        assert d_q.shape == (2,) and d_Q.shape == (2,)

    @pytest.mark.parametrize("diagonal_only", [True, False])
    def test_compressed_probes_match_per_component_loop(self, diagonal_only):
        rng = np.random.default_rng(47)
        t = QuarticGeneralizedGaussian(5)
        loop = PerComponentQuartic(5)
        for _ in range(20):
            q = rng.uniform(-2, 2, 5)
            Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
            c_q, c_Q, n_c = force_jacobians(Q, q, t, diagonal_only=diagonal_only)
            l_q, l_Q, n_l = force_jacobians(Q, q, loop, diagonal_only=diagonal_only)
            assert np.array_equal(c_q, l_q) and np.array_equal(c_Q, l_Q)
            assert (n_c, n_l) == (3, 11)

    def test_non_separable_target_keeps_per_component_loop(self):
        t = MultivariateGaussian([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 0.5]))
        _, _, n = force_jacobians(np.array([1.0, 0.5, -0.3]), np.array([0.2, -0.1, 0.4]), t)
        assert n == 7  # 2d + 1

    def test_analytic_unavailable_raises(self):
        class BlackBox(QuarticGeneralizedGaussian):
            closed_form_force_jacobian_diag = None
            closed_form_force_jacobian = None

        with pytest.raises(ValueError):
            force_jacobians(np.array([1.0]), np.array([0.5]), BlackBox(1), "analytic")


class TestStepJacobian:
    def test_j0_is_one(self):
        t = QuarticGeneralizedGaussian(4)
        rng = np.random.default_rng(0)
        sj = step_jacobian(rng.standard_normal(4), rng.standard_normal(4), 0.1,
                           MassMatrix.identity(4), JacobianMode.j0(), t)
        assert sj.value == 1.0 and sj.extra_force_evals == 0

    def test_j1_trace_value(self):
        t = QuarticGeneralizedGaussian(1)
        sj = step_jacobian(np.array([2.0]), np.array([1.0]), 0.1, MassMatrix.identity(1),
                           JacobianMode.j1("analytic"), t)
        assert sj.value == pytest.approx(1.0 + 0.0025 * (22.0 - 34.0), rel=1e-13)

    def test_jfull_ratio_value(self):
        t = QuarticGeneralizedGaussian(1)
        sj = step_jacobian(np.array([2.0]), np.array([1.0]), 0.1, MassMatrix.identity(1),
                           JacobianMode.jfull("analytic"), t)
        assert sj.value == pytest.approx(1.055 / 1.085, rel=1e-12)

    @pytest.mark.parametrize("source,tol", [("analytic", 1e-12), ("finite-difference", 1e-8)])
    def test_gaussian_target_is_volume_preserving(self, source, tol):
        # dF/dq == dF/dQ makes the determinant ratio exactly one; the
        # finite-difference route only sees that up to quotient roundoff
        rng = np.random.default_rng(42)
        cov = np.array([[1.5, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.8]])
        t = MultivariateGaussian([0.1, -0.2, 0.4], cov)
        for _ in range(10):
            q = rng.uniform(-2, 2, 3)
            Q = q + rng.uniform(0.05, 1.0, 3)
            for tau in (0.05, 0.1, 0.5):
                sj = step_jacobian(Q, q, tau, MassMatrix.identity(3),
                                   JacobianMode("JFull", source), t)
                assert sj.value == pytest.approx(1.0, abs=tol)

    def test_diagonal_fast_path_matches_dense(self):
        t = QuarticGeneralizedGaussian(3)
        rng = np.random.default_rng(43)
        q = rng.uniform(-1.5, 1.5, 3)
        Q = q + rng.uniform(0.1, 0.8, 3)
        fast = step_jacobian(Q, q, 0.1, MassMatrix.identity(3), JacobianMode.jfull("analytic"), t)
        d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
        dense = np.linalg.det(np.eye(3) + 0.0025 * np.diag(d_q)) / np.linalg.det(
            np.eye(3) + 0.0025 * np.diag(d_Q))
        assert fast.value == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("mode", [JacobianMode.j1(), JacobianMode.jfull()])
    def test_finite_difference_factor_same_on_both_probe_routes(self, mode):
        rng = np.random.default_rng(48)
        t, loop = QuarticGeneralizedGaussian(5), PerComponentQuartic(5)
        mass = MassMatrix.identity(5)
        for _ in range(20):
            q = rng.uniform(-2, 2, 5)
            Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
            compressed = step_jacobian(Q, q, 0.1, mass, mode, t)
            per_component = step_jacobian(Q, q, 0.1, mass, mode, loop)
            assert compressed.value == per_component.value
            assert (compressed.extra_force_evals, per_component.extra_force_evals) == (3, 11)

    def test_diagonal_mass_scales_trace(self):
        t = QuarticGeneralizedGaussian(2)
        mass = MassMatrix.diagonal([2.0, 4.0])
        Q, q = np.array([1.0, 2.0]), np.array([0.5, 1.0])
        sj = step_jacobian(Q, q, 0.2, mass, JacobianMode.j1("analytic"), t)
        d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
        expected = 1.0 + 0.01 * ((d_q - d_Q) / np.array([2.0, 4.0])).sum()
        assert sj.value == pytest.approx(expected, rel=1e-13)


class TestTrajectoryJacobian:
    def test_all_ones(self):
        mode = JacobianMode.j0()
        factors = [StepJacobian(1.0, mode, 0) for _ in range(10)]
        assert trajectory_jacobian(factors) == 1.0

    def test_two_factor_product(self):
        mode = JacobianMode.j1()
        factors = [StepJacobian(0.97, mode, 0), StepJacobian(0.97, mode, 0)]
        assert trajectory_jacobian(factors) == pytest.approx(0.9409, rel=1e-14)

    def test_zero_factor_collapses(self):
        assert trajectory_jacobian([1.2, 0.0, 0.9]) == 0.0

    def test_negative_factors_keep_sign(self):
        assert trajectory_jacobian([-0.5, 2.0]) == pytest.approx(-1.0, rel=1e-14)
        assert trajectory_jacobian([-0.5, -2.0]) == pytest.approx(1.0, rel=1e-14)

    def test_gaussian_forty_steps_product_is_one(self):
        t = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]))
        mass = MassMatrix.identity(2)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=100)
        acc = JacobianAccumulator(JacobianMode.jfull("analytic"), 0.1, mass, t)
        state = PhaseState([0.5, -0.4], [1.0, 0.3])
        trajectory(state, t, mass, cfg, 40, per_step_hook=acc)
        assert acc.product == pytest.approx(1.0, abs=1e-10)


def brute_force_map_jacobian(z, target, mass, tau, h=1e-5):
    """Central finite differences of the tightly solved one-step map."""
    d = z.dim
    cfg = DmmSolverConfig(tau=tau, delta=1e-13, max_fpi=200)

    def apply_map(vec):
        state = PhaseState(vec[:d], vec[d:])
        rec = dmm_step(state, target, mass, cfg)
        assert rec.converged
        return np.concatenate([rec.state_out.q, rec.state_out.p])

    base = np.concatenate([z.q, z.p])
    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        step = h * max(1.0, abs(base[j]))
        plus, minus = base.copy(), base.copy()
        plus[j] += step
        minus[j] -= step
        jac[:, j] = (apply_map(plus) - apply_map(minus)) / (2 * step)
    return np.linalg.det(jac)


class TestDeterminantAgainstBruteForce:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_det_ratio_matches_full_map_jacobian(self, dim):
        rng = np.random.default_rng(44)
        target = QuarticGeneralizedGaussian(dim)
        mass = MassMatrix.identity(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(5):
            z = PhaseState(rng.uniform(-1.2, 1.2, dim), rng.uniform(0.5, 1.5, dim))
            rec = dmm_step(z, target, mass, cfg)
            assert rec.converged
            sj = step_jacobian(rec.state_out.q, z.q, 0.1, mass,
                               JacobianMode.jfull("analytic"), target)
            brute = brute_force_map_jacobian(z, target, mass, 0.1)
            assert sj.value == pytest.approx(brute, rel=1e-5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reversibility_determinant_identity(self, dim):
        # det J at z times det J at R(step(z)) is 1
        rng = np.random.default_rng(45)
        target = QuarticGeneralizedGaussian(dim)
        mass = MassMatrix.identity(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(10):
            z = PhaseState(rng.uniform(-1.2, 1.2, dim), rng.uniform(0.5, 1.5, dim))
            fwd = dmm_step(z, target, mass, cfg)
            assert fwd.converged
            j_fwd = step_jacobian(fwd.state_out.q, z.q, 0.1, mass,
                                  JacobianMode.jfull("analytic"), target)
            flipped = negate_momentum(fwd.state_out)
            back = dmm_step(flipped, target, mass, cfg, init_guess=negate_momentum(z))
            assert back.converged
            j_back = step_jacobian(back.state_out.q, flipped.q, 0.1, mass,
                                   JacobianMode.jfull("analytic"), target)
            assert j_fwd.value * j_back.value == pytest.approx(1.0, abs=1e-6)


class TestTruncationOrders:
    # The expansion is in tau at fixed Jacobian matrices, so the (Q, q) pair
    # is held fixed while tau varies in the formulas. Same-sign components
    # with a moderate separation keep the leading term nonzero without
    # letting higher orders contaminate the tau = 0.2 end of the fit.
    def setup_method(self):
        self.target = QuarticGeneralizedGaussian(3)
        self.mass = MassMatrix.identity(3)
        rng = np.random.default_rng(46)
        self.q = rng.uniform(0.5, 1.0, 3)
        self.Q = self.q + rng.uniform(0.1, 0.2, 3)

    def values(self, tau):
        j1 = step_jacobian(self.Q, self.q, tau, self.mass, JacobianMode.j1("analytic"),
                           self.target).value
        jfull = step_jacobian(self.Q, self.q, tau, self.mass, JacobianMode.jfull("analytic"),
                              self.target).value
        return j1, jfull

    def test_full_minus_one_is_second_order(self):
        taus = np.array([0.2, 0.1, 0.05])
        errs = [abs(self.values(tau)[1] - 1.0) for tau in taus]
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_full_minus_j1_is_fourth_order(self):
        taus = np.array([0.2, 0.1, 0.05])
        errs = [abs(v[1] - v[0]) for v in (self.values(tau) for tau in taus)]
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert 3.8 <= slope <= 4.2


class TestModeValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JacobianMode("J2")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            JacobianMode("J1", "symbolic")

    def test_rejects_nonpositive_fd_step(self):
        with pytest.raises(ValueError):
            JacobianMode("JFull", h_fd=0.0)
