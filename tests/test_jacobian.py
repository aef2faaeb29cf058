import math

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
    SamplerConfig,
    TrajectoryRecord,
    chain_rng,
    chmc_iteration,
    dmm_step,
    force_jacobians,
    step_jacobian,
    trajectory,
)
from chmc import jacobian


class PerComponentQuartic(QuarticGeneralizedGaussian):
    """The quartic without its separability declaration: probes go one by one."""

    closed_form_force_jacobian_diag = None


def step_factor(*args, **kwargs):
    """``step_jacobian``'s (sign, log|J|) pair as one float, and its probe count."""
    sign, log_abs, n = step_jacobian(*args, **kwargs)
    return sign * math.exp(log_abs), n


class StiffDeclaredQuartic(QuarticGeneralizedGaussian):
    """The quartic declaring dF/dq = 0 and dF/dQ = -2k: each component's
    determinant ratio is 1 / (1 - (tau^2/4) 2k), which is -2 at tau = 0.1 and
    k = 300 (a stub for the Jacobian code; the chord solve refuses these
    diagonals and keeps plain updates)."""

    k = 300.0

    def closed_form_force_jacobian_diag(self, Q, q):
        return np.zeros_like(q), np.full_like(Q, -2.0 * self.k)


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
            # the separable target returns diagonals either way, the loop
            # returns matrices unless diagonal_only
            c_q, c_Q, n_c = force_jacobians(Q, q, t, diagonal_only=diagonal_only)
            l_q, l_Q, n_l = force_jacobians(Q, q, loop, diagonal_only=diagonal_only)
            if not diagonal_only:
                l_q, l_Q = np.diag(l_q), np.diag(l_Q)
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
        pair = step_jacobian(rng.standard_normal(4), rng.standard_normal(4), 0.1,
                             MassMatrix.identity(4), JacobianMode("J0"), t)
        assert pair == (1.0, 0.0, 0)

    def test_j1_trace_value(self):
        t = QuarticGeneralizedGaussian(1)
        value, _ = step_factor(np.array([2.0]), np.array([1.0]), 0.1, MassMatrix.identity(1),
                               JacobianMode("J1", "analytic"), t)
        assert value == pytest.approx(1.0 + 0.0025 * (22.0 - 34.0), rel=1e-13)

    def test_jfull_ratio_value(self):
        t = QuarticGeneralizedGaussian(1)
        value, _ = step_factor(np.array([2.0]), np.array([1.0]), 0.1, MassMatrix.identity(1),
                               JacobianMode("JFull", "analytic"), t)
        assert value == pytest.approx(1.055 / 1.085, rel=1e-12)

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
                value, _ = step_factor(Q, q, tau, MassMatrix.identity(3),
                                       JacobianMode("JFull", source), t)
                assert value == pytest.approx(1.0, abs=tol)

    def test_diagonal_fast_path_matches_dense(self):
        t = QuarticGeneralizedGaussian(3)
        rng = np.random.default_rng(43)
        q = rng.uniform(-1.5, 1.5, 3)
        Q = q + rng.uniform(0.1, 0.8, 3)
        fast, _ = step_factor(Q, q, 0.1, MassMatrix.identity(3),
                              JacobianMode("JFull", "analytic"), t)
        d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
        dense = np.linalg.det(np.eye(3) + 0.0025 * np.diag(d_q)) / np.linalg.det(
            np.eye(3) + 0.0025 * np.diag(d_Q))
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_finite_difference_jfull_takes_diagonal_route(self, monkeypatch):
        # separable target, diagonal mass: no d x d determinant; the slogdet
        # route over the probe diagonals embedded in matrices stays the reference
        rng = np.random.default_rng(49)
        t = QuarticGeneralizedGaussian(12)
        mass = MassMatrix.diagonal(rng.uniform(0.5, 2.0, 12))
        c = 0.25 * 0.1 * 0.1
        pairs, expected = [], []
        for _ in range(20):
            q = rng.uniform(-2, 2, 12)
            Q = q + rng.uniform(0.05, 1.0, 12) * rng.choice([-1, 1], 12)
            d_q, d_Q, _ = force_jacobians(Q, q, t, "finite-difference")
            d_qF, d_QF = np.diag(d_q), np.diag(d_Q)
            inv_m = mass.inverse_diagonal()[:, None]
            sign_n, log_n = np.linalg.slogdet(np.eye(12) + c * (inv_m * d_qF))
            sign_d, log_d = np.linalg.slogdet(np.eye(12) + c * (inv_m * d_QF))
            pairs.append((Q, q))
            expected.append(sign_n * sign_d * np.exp(log_n - log_d))

        def no_slogdet(a):
            raise AssertionError("JFull on a separable target must not factor d x d matrices")

        monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
        for (Q, q), ref in zip(pairs, expected):
            value, n = step_factor(Q, q, 0.1, mass, JacobianMode("JFull"), t)
            assert n == 3
            assert value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("mode", [JacobianMode("J1"), JacobianMode("JFull")])
    def test_finite_difference_factor_same_on_both_probe_routes(self, mode):
        rng = np.random.default_rng(48)
        t, loop = QuarticGeneralizedGaussian(5), PerComponentQuartic(5)
        mass = MassMatrix.identity(5)
        for _ in range(20):
            q = rng.uniform(-2, 2, 5)
            Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
            compressed, n_c = step_factor(Q, q, 0.1, mass, mode, t)
            per_component, n_l = step_factor(Q, q, 0.1, mass, mode, loop)
            assert compressed == per_component
            assert (n_c, n_l) == (3, 11)

    def test_separable_jfull_log_sums_to_fsum_accuracy(self):
        # d = 10240 logs per determinant: the step's log|J| stays within 5e-14
        # of the exactly rounded sums of the same factors' logs
        rng = np.random.default_rng(52)
        d, c = 10240, 0.25 * 0.1 * 0.1
        t = QuarticGeneralizedGaussian(d)
        mass = MassMatrix.diagonal(rng.uniform(0.5, 2.0, d))
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=50)
        inv_m = mass.inverse_diagonal()
        for _ in range(20):
            mag = rng.gamma(0.25, 1.0, size=d) ** 0.25
            q = np.where(rng.random(d) < 0.5, -mag, mag)
            Q = dmm_step(q, mass.sample_momentum(rng), t, mass, cfg).q
            d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
            ref = (math.fsum(map(math.log, np.abs(1.0 + c * (inv_m * d_q)).tolist()))
                   - math.fsum(map(math.log, np.abs(1.0 + c * (inv_m * d_Q)).tolist())))
            sign, log_abs, _ = step_jacobian(Q, q, 0.1, mass, JacobianMode("JFull", "analytic"),
                                             t)
            assert sign == 1.0
            assert abs(log_abs - ref) <= 5e-14

    def test_determinant_past_the_float_range(self):
        # (-2)^2000 = e^1386.3: the step keeps its log, which no float exp holds
        d = 2000
        sign, log_abs, n = step_jacobian(np.full(d, 0.5), np.full(d, 0.4), 0.1,
                                         MassMatrix.identity(d),
                                         JacobianMode("JFull", "analytic"),
                                         StiffDeclaredQuartic(d))
        assert (sign, n) == (1.0, 0)
        assert log_abs == pytest.approx(d * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("kind,k", [("J1", -8.0), ("JFull", 8.0)])
    def test_zero_factor_is_the_zero_pair(self, kind, k, recwarn):
        # tau = 0.5 gives tau^2/4 = 1/16: dF/dQ = 16 makes J1's 1 + (0 - 16) / 16
        # exactly 0, dF/dQ = -16 JFull's denominator 1 - 16 / 16; NumPy warns
        # of no division by zero
        t = StiffDeclaredQuartic(1)
        t.k = k
        pair = step_jacobian(np.ones(1), np.zeros(1), 0.5, MassMatrix.identity(1),
                             JacobianMode(kind, "analytic"), t)
        assert pair == (0.0, -math.inf, 0)
        assert not recwarn.list

    def test_diagonal_mass_scales_trace(self):
        t = QuarticGeneralizedGaussian(2)
        mass = MassMatrix.diagonal([2.0, 4.0])
        Q, q = np.array([1.0, 2.0]), np.array([0.5, 1.0])
        value, _ = step_factor(Q, q, 0.2, mass, JacobianMode("J1", "analytic"), t)
        d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
        expected = 1.0 + 0.01 * ((d_q - d_Q) / np.array([2.0, 4.0])).sum()
        assert value == pytest.approx(expected, rel=1e-13)


def trajectory_product(monkeypatch, factors):
    """N-step product of per-step factors through the accumulator's fold."""
    pairs = iter([(math.copysign(1.0, t), math.log(abs(t))) if t else (0.0, -math.inf)
                  for t in factors])
    monkeypatch.setattr(jacobian, "step_jacobian", lambda *args: (*next(pairs), 0))
    acc = JacobianAccumulator(JacobianMode("J1"), 0.1, MassMatrix.identity(1), None)
    for _ in factors:
        acc(None, None)
    return acc.product


class TestTrajectoryJacobian:
    def test_all_ones(self, monkeypatch):
        assert trajectory_product(monkeypatch, [1.0] * 10) == 1.0

    def test_two_factor_product(self, monkeypatch):
        assert trajectory_product(monkeypatch, [0.97, 0.97]) == pytest.approx(0.9409, rel=1e-14)

    def test_zero_factor_collapses(self, monkeypatch):
        assert trajectory_product(monkeypatch, [1.2, 0.0, 0.9]) == 0.0

    def test_negative_factors_keep_sign(self, monkeypatch):
        assert trajectory_product(monkeypatch, [-0.5, 2.0]) == pytest.approx(-1.0, rel=1e-14)
        assert trajectory_product(monkeypatch, [-0.5, -2.0]) == pytest.approx(1.0, rel=1e-14)

    def test_product_past_the_float_range(self, monkeypatch):
        # 40 finite factors of e^20 multiply to e^800: +-inf above the range,
        # 0 below it, and no OverflowError
        assert trajectory_product(monkeypatch, [math.exp(20.0)] * 40) == math.inf
        assert trajectory_product(monkeypatch, [-math.exp(20.0)] * 39 + [1.0]) == -math.inf
        assert trajectory_product(monkeypatch, [math.exp(-20.0)] * 40) == 0.0

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    @pytest.mark.parametrize("separable", [True, False])
    def test_probes_reuse_the_solve_force(self, kind, separable):
        # the base force of the probes is the solve's last force: 2 probe
        # calls per step (2d per component), and the same factors bit for bit
        # as probes that recompute it
        rng = np.random.default_rng(50)
        d, n_steps = 12, 40
        t = QuarticGeneralizedGaussian(d) if separable else PerComponentQuartic(d)
        mass = MassMatrix.identity(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        mag = rng.gamma(0.25, 1.0, size=d) ** 0.25
        state = PhaseState(np.where(rng.random(d) < 0.5, -mag, mag), rng.standard_normal(d))
        reused = JacobianAccumulator(JacobianMode(kind), 0.1, mass, t)
        recomputed = JacobianAccumulator(JacobianMode(kind), 0.1, mass, t)
        trajectory(state, t, mass, cfg, n_steps, per_step_hook=reused)
        trajectory(state, t, mass, cfg, n_steps,
                   per_step_hook=lambda q_in, q_out, f_out: recomputed(q_in, q_out))
        per_step = 2 if separable else 2 * d
        assert reused.extra_force_evals == per_step * n_steps
        assert recomputed.extra_force_evals == (per_step + 1) * n_steps
        assert (reused.sign, reused.log_abs) == (recomputed.sign, recomputed.log_abs)
        assert reused.product == recomputed.product

    def test_gaussian_forty_steps_product_is_one(self):
        t = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]))
        mass = MassMatrix.identity(2)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=100)
        acc = JacobianAccumulator(JacobianMode("JFull", "analytic"), 0.1, mass, t)
        state = PhaseState([0.5, -0.4], [1.0, 0.3])
        trajectory(state, t, mass, cfg, 40, per_step_hook=acc)
        assert acc.product == pytest.approx(1.0, abs=1e-10)


class TestProductPastTheFloatRange:
    def test_chmc_iteration_accepts(self):
        # 20 steps of (-2)^100 each: J = e^1386.3 reads +inf and alpha = 1 for a
        # finite dH, where the chain used to stop on an OverflowError
        d = 100
        t, mass = StiffDeclaredQuartic(d), MassMatrix.identity(d)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=2.0, iterations=1, seed=5,
                            jacobian_mode=JacobianMode("JFull", "analytic"))
        rng = chain_rng(5, 0)
        mag = rng.gamma(0.25, 1.0, size=d) ** 0.25
        theta = np.where(rng.random(d) < 0.5, -mag, mag)
        new_theta, out = chmc_iteration(theta, t, mass, cfg, rng)
        assert out.jacobian_product == math.inf
        assert math.isfinite(out.delta_H) and out.all_steps_converged
        assert out.alpha == 1.0 and out.accepted and new_theta is not theta

    def test_chmc_iteration_accepts_below_the_range(self, monkeypatch):
        # 40 steps of log|J| = -20 give |J| = e^-800, which reads 0 as a
        # float; with dH = -900, alpha = min(1, e^100) = 1, which a rule on
        # the product turned into 0
        import chmc.samplers as samplers

        monkeypatch.setattr(jacobian, "step_jacobian", lambda *args: (1.0, -20.0, 0))

        def energy_drop(state, target, mass, cfg, n_steps, per_step_hook=None, u_in=None):
            q_out = state.q + 1.0
            for _ in range(n_steps):
                per_step_hook(state.q, q_out, None)
            return TrajectoryRecord(q_out, state.p, n_steps, n_steps, True, 900.0, 0.0, 900.0,
                                    0.0)

        monkeypatch.setattr(samplers, "trajectory", energy_drop)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=4.0, iterations=1,
                            jacobian_mode=JacobianMode("J1", "analytic"))
        theta = np.zeros(2)
        new_theta, out = chmc_iteration(theta, QuarticGeneralizedGaussian(2),
                                        MassMatrix.identity(2), cfg, chain_rng(0, 0))
        assert out.jacobian_product == 0.0 and out.delta_H == -900.0
        assert out.alpha == 1.0 and out.accepted
        np.testing.assert_array_equal(new_theta, theta + 1.0)


def brute_force_map_jacobian(z, target, mass, tau, h=1e-5):
    """Central finite differences of the tightly solved one-step map."""
    d = z.dim
    cfg = DmmSolverConfig(tau=tau, delta=1e-13, max_fpi=200)

    def apply_map(vec):
        rec = dmm_step(vec[:d], vec[d:], target, mass, cfg)
        assert rec.converged
        return np.concatenate([rec.q, rec.p])

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
            rec = dmm_step(z.q, z.p, target, mass, cfg)
            assert rec.converged
            value, _ = step_factor(rec.q, z.q, 0.1, mass,
                                   JacobianMode("JFull", "analytic"), target)
            brute = brute_force_map_jacobian(z, target, mass, 0.1)
            assert value == pytest.approx(brute, rel=1e-5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reversibility_determinant_identity(self, dim):
        # det J at z times det J at R(step(z)) is 1
        rng = np.random.default_rng(45)
        target = QuarticGeneralizedGaussian(dim)
        mass = MassMatrix.identity(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(10):
            z = PhaseState(rng.uniform(-1.2, 1.2, dim), rng.uniform(0.5, 1.5, dim))
            fwd = dmm_step(z.q, z.p, target, mass, cfg)
            assert fwd.converged
            j_fwd, _ = step_factor(fwd.q, z.q, 0.1, mass,
                                   JacobianMode("JFull", "analytic"), target)
            back = dmm_step(fwd.q, -fwd.p, target, mass, cfg, init_guess=(z.q, -z.p))
            assert back.converged
            j_back, _ = step_factor(back.q, fwd.q, 0.1, mass,
                                    JacobianMode("JFull", "analytic"), target)
            assert j_fwd * j_back == pytest.approx(1.0, abs=1e-6)


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
        j1, _ = step_factor(self.Q, self.q, tau, self.mass, JacobianMode("J1", "analytic"),
                            self.target)
        jfull, _ = step_factor(self.Q, self.q, tau, self.mass,
                               JacobianMode("JFull", "analytic"), self.target)
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
