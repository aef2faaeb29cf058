import math

import numpy as np
import pytest

from chmc import (
    DmmSolverConfig,
    JacobianMode,
    QuarticGeneralizedGaussian,
    SamplerConfig,
)
from chmc import jacobian
from chmc.integrators import StepScratch, TrajectoryRecord, dmm_step, trajectory
from chmc.jacobian import JacobianAccumulator, force_jacobians, step_jacobian
from chmc.phase import PhaseState
from chmc.samplers import StateCache, chain_rng, chmc_iteration
from support import (BlackBoxQuartic, CountingQuartic, MultivariateGaussian, quartic_draws,
                     record_steps)


class PerComponentQuartic(QuarticGeneralizedGaussian):
    """The quartic without its separability declaration: one probe colour per column."""

    closed_form_force_jacobian_diag = None


def per_column_probes(Q, q, potential):
    """Reference finite-difference Jacobians, one column perturbed at a time.

    Returns (dF/dq, dF/dQ) as d x d matrices, forward quotients from the base
    force F(Q, q); ``force_jacobians`` with one colour per column must match
    it bit for bit.
    """
    f0 = potential.closed_form_force(Q, q)
    d, h_fd = q.size, jacobian.DEFAULT_FD_STEP
    d_q, d_Q = np.empty((d, d)), np.empty((d, d))
    for j in range(d):
        hq = h_fd * max(1.0, abs(q[j]))
        q_pert = q.copy()
        q_pert[j] += hq
        d_q[:, j] = (potential.closed_form_force(Q, q_pert) - f0) / hq
        hQ = h_fd * max(1.0, abs(Q[j]))
        Q_pert = Q.copy()
        Q_pert[j] += hQ
        d_Q[:, j] = (potential.closed_form_force(Q_pert, q) - f0) / hQ
    return d_q, d_Q


def chain_scratch(potential, mode=JacobianMode("J1"), tau=0.1):
    """The ``StepScratch`` a chain builds, with the default solver: the factor's route."""
    return StepScratch(potential, DmmSolverConfig(tau=tau), mode)


def jacobians(Q, q, potential, source="finite-difference"):
    """``force_jacobians`` of the target's closed-form force at (Q, q)."""
    route = chain_scratch(potential, JacobianMode("J1", source))
    return force_jacobians(Q, q, route.force(Q, q), route)


def half2(tau):
    """(tau/2)^2, the ``StepScratch.half2`` a chain hands to the Jacobian code."""
    return StepScratch(QuarticGeneralizedGaussian(1), DmmSolverConfig(tau=tau)).half2


def step_pair(Q, q, tau, mode, potential):
    """``step_jacobian`` of the target's closed-form force at (Q, q)."""
    route = chain_scratch(potential, mode, tau)
    return step_jacobian(Q, q, route.force(Q, q), route)


def step_factor(*args):
    """``step_pair``'s (sign, log|J|) pair as one float, and its probe count."""
    sign, log_abs, n = step_pair(*args)
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
        d_q, d_Q, n = jacobians(np.array([2.0]), np.array([1.0]), t, "analytic")
        assert d_q[0] == pytest.approx(22.0, rel=1e-14)
        assert d_Q[0] == pytest.approx(34.0, rel=1e-14)
        assert n == 0

    def test_gaussian_analytic_is_precision(self):
        cov = np.array([[2.0, 0.4], [0.4, 1.0]])
        t = MultivariateGaussian([0.0, 0.0], cov)
        d_q, d_Q, _ = jacobians(np.array([1.0, 0.5]), np.array([-0.2, 0.7]), t, "analytic")
        prec = np.linalg.inv(cov)
        np.testing.assert_allclose(d_q, prec, rtol=1e-10)
        np.testing.assert_allclose(d_Q, prec, rtol=1e-10)

    def test_finite_difference_agrees_with_analytic(self):
        rng = np.random.default_rng(41)
        t = QuarticGeneralizedGaussian(3)
        for _ in range(100):
            q = rng.uniform(-2, 2, 3)
            Q = q + rng.uniform(0.05, 1.0, 3) * rng.choice([-1, 1], 3)
            a_q, a_Q, _ = jacobians(Q, q, t, "analytic")
            f_q, f_Q, n = jacobians(Q, q, t, "finite-difference")
            assert n == 2  # separable target: one colour, 2 probes
            np.testing.assert_allclose(f_q, a_q, rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(f_Q, a_Q, rtol=1e-5, atol=1e-5)

    def test_compressed_probes_match_per_component_loop(self):
        rng = np.random.default_rng(47)
        t = QuarticGeneralizedGaussian(5)
        loop = PerComponentQuartic(5)
        for _ in range(20):
            q = rng.uniform(-2, 2, 5)
            Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
            # the separable target returns diagonals, one colour per column
            # returns matrices
            c_q, c_Q, n_c = jacobians(Q, q, t)
            l_q, l_Q, n_l = jacobians(Q, q, loop)
            assert c_q.shape == c_Q.shape == (5,)
            assert np.array_equal(c_q, np.diag(l_q)) and np.array_equal(c_Q, np.diag(l_Q))
            assert (n_c, n_l) == (2, 10)

    @pytest.mark.parametrize("d", [5, 12])
    @pytest.mark.parametrize("kind", ["gaussian", "quartic"])
    def test_colour_loop_matches_per_column_reference(self, kind, d):
        # one colour per column: the reference's quotients bit for bit, and
        # exactly 2d probe calls
        rng = np.random.default_rng(53 + d)
        if kind == "gaussian":
            a = rng.standard_normal((d, d))
            t = MultivariateGaussian(rng.standard_normal(d), a @ a.T + d * np.eye(d))
        else:
            t = PerComponentQuartic(d)
        calls, force = [], t.closed_form_force

        def counted(Q, q):
            calls.append((Q, q))
            return force(Q, q)

        route = chain_scratch(t)
        route.force = counted  # the probes call the scratch's force alone
        for _ in range(5):
            q = rng.uniform(-2, 2, d)
            Q = q + rng.uniform(0.05, 1.0, d) * rng.choice([-1, 1], d)
            r_q, r_Q = per_column_probes(Q, q, t)
            del calls[:]
            d_q, d_Q, n = force_jacobians(Q, q, force(Q, q), route)
            assert n == len(calls) == 2 * d
            assert np.array_equal(d_q, r_q) and np.array_equal(d_Q, r_Q)

    def test_non_separable_target_keeps_per_component_loop(self):
        t = MultivariateGaussian([0.0, 0.0, 0.0], np.diag([1.0, 2.0, 0.5]))
        _, _, n = jacobians(np.array([1.0, 0.5, -0.3]), np.array([0.2, -0.1, 0.4]), t)
        assert n == 6  # 2d

    def test_analytic_unavailable_raises(self):
        class BlackBox(QuarticGeneralizedGaussian):
            closed_form_force_jacobian_diag = None
            closed_form_force_jacobian = None

        with pytest.raises(ValueError):
            jacobians(np.array([1.0]), np.array([0.5]), BlackBox(1), "analytic")


class TestStepJacobian:
    def test_j0_is_refused(self):
        # J0's factor is 1 without a computation: its trajectories build no
        # factor, so no step is asked for one
        t = QuarticGeneralizedGaussian(4)
        rng = np.random.default_rng(0)
        state = PhaseState(rng.standard_normal(4), rng.standard_normal(4))
        rec = trajectory(state, t, StepScratch(t, DmmSolverConfig(tau=0.1), JacobianMode("J0")), 3)
        assert rec.jacobian is None

    def test_j1_trace_value(self):
        t = QuarticGeneralizedGaussian(1)
        value, _ = step_factor(np.array([2.0]), np.array([1.0]), 0.1,
                               JacobianMode("J1", "analytic"), t)
        assert value == pytest.approx(1.0 + 0.0025 * (22.0 - 34.0), rel=1e-13)

    def test_jfull_ratio_value(self):
        t = QuarticGeneralizedGaussian(1)
        value, _ = step_factor(np.array([2.0]), np.array([1.0]), 0.1,
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
                value, _ = step_factor(Q, q, tau, JacobianMode("JFull", source), t)
                assert value == pytest.approx(1.0, abs=tol)

    def test_diagonal_fast_path_matches_dense(self):
        t = QuarticGeneralizedGaussian(3)
        rng = np.random.default_rng(43)
        q = rng.uniform(-1.5, 1.5, 3)
        Q = q + rng.uniform(0.1, 0.8, 3)
        fast, _ = step_factor(Q, q, 0.1, JacobianMode("JFull", "analytic"), t)
        d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
        dense = np.linalg.det(np.eye(3) + 0.0025 * np.diag(d_q)) / np.linalg.det(
            np.eye(3) + 0.0025 * np.diag(d_Q))
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_finite_difference_jfull_takes_diagonal_route(self, monkeypatch):
        # separable target: no d x d determinant; the slogdet route over the
        # probe diagonals embedded in matrices stays the reference
        rng = np.random.default_rng(49)
        t = QuarticGeneralizedGaussian(12)
        c = 0.25 * 0.1 * 0.1
        pairs, expected = [], []
        for _ in range(20):
            q = rng.uniform(-2, 2, 12)
            Q = q + rng.uniform(0.05, 1.0, 12) * rng.choice([-1, 1], 12)
            d_q, d_Q, _ = jacobians(Q, q, t, "finite-difference")
            sign_n, log_n = np.linalg.slogdet(np.eye(12) + c * np.diag(d_q))
            sign_d, log_d = np.linalg.slogdet(np.eye(12) + c * np.diag(d_Q))
            pairs.append((Q, q))
            expected.append(sign_n * sign_d * np.exp(log_n - log_d))

        def no_slogdet(a):
            raise AssertionError("JFull on a separable target must not factor d x d matrices")

        monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
        for (Q, q), ref in zip(pairs, expected):
            value, n = step_factor(Q, q, 0.1, JacobianMode("JFull"), t)
            assert n == 2
            assert value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("source", ["analytic", "finite-difference"])
    def test_correlated_gaussian_pairs_match_dense_formulas(self, source):
        # d = 12 passes numpy's 8-element pairwise-summation block: J1 sums
        # the difference of the matrices' diagonals, JFull takes the slogdet
        # difference, bit for bit from both derivative sources
        rng = np.random.default_rng(54)
        d, c = 12, 0.25 * 0.1 * 0.1
        a = rng.standard_normal((d, d))
        t = MultivariateGaussian(rng.standard_normal(d), a @ a.T + d * np.eye(d))
        for _ in range(5):
            q = rng.uniform(-2, 2, d)
            Q = q + rng.uniform(0.05, 1.0, d) * rng.choice([-1, 1], d)
            if source == "analytic":
                d_q, d_Q = t.closed_form_force_jacobian(Q, q)
            else:
                d_q, d_Q = per_column_probes(Q, q, t)
            value = 1.0 + c * float((np.diag(d_q) - np.diag(d_Q)).sum())
            j1 = (math.copysign(1.0, value), math.log(abs(value)))
            sign_n, log_n = np.linalg.slogdet(np.eye(d) + c * d_q)
            sign_d, log_d = np.linalg.slogdet(np.eye(d) + c * d_Q)
            jfull = (float(sign_n * sign_d), float(log_n) - float(log_d))
            n = 0 if source == "analytic" else 2 * d
            assert step_pair(Q, q, 0.1, JacobianMode("J1", source), t) == (*j1, n)
            assert step_pair(Q, q, 0.1, JacobianMode("JFull", source), t) == (*jfull, n)

    @pytest.mark.parametrize("mode", [JacobianMode("J1"), JacobianMode("JFull")])
    def test_finite_difference_factor_same_on_both_probe_routes(self, mode):
        rng = np.random.default_rng(48)
        t, loop = QuarticGeneralizedGaussian(5), PerComponentQuartic(5)
        for _ in range(20):
            q = rng.uniform(-2, 2, 5)
            Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
            compressed, n_c = step_factor(Q, q, 0.1, mode, t)
            per_component, n_l = step_factor(Q, q, 0.1, mode, loop)
            assert compressed == per_component
            assert (n_c, n_l) == (2, 10)

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_half2_operand_gives_the_float_quarter_tau_squared_pair(self, kind):
        # the trajectory's 0-d (tau/2)^2 is 0.25 * tau * tau bit for bit, and
        # the step factor it gives is the one the float gives, on both routes
        rng = np.random.default_rng(52)
        taus = 10.0 ** rng.uniform(-6.0, 2.0, 2000)
        assert all(half2(tau) == 0.25 * tau * tau for tau in taus)
        mode = JacobianMode(kind)
        for t in (QuarticGeneralizedGaussian(5), PerComponentQuartic(5)):
            for tau in taus[:20]:
                q = rng.uniform(-2, 2, 5)
                Q = q + rng.uniform(0.05, 1.0, 5) * rng.choice([-1, 1], 5)
                route, as_float = chain_scratch(t, mode, tau), chain_scratch(t, mode, tau)
                as_float.half2 = 0.25 * tau * tau
                f0 = route.force(Q, q)
                assert step_jacobian(Q, q, f0, route) == step_jacobian(Q, q, f0, as_float)

    def test_separable_jfull_log_sums_to_fsum_accuracy(self):
        # d = 10240 logs per determinant: the step's log|J| stays within 5e-14
        # of the exactly rounded sums of the same factors' logs
        rng = np.random.default_rng(52)
        d, c = 10240, 0.25 * 0.1 * 0.1
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=50)
        for _ in range(20):
            q = quartic_draws(rng, d)
            Q = dmm_step(q, rng.standard_normal(d), StepScratch(t, cfg)).q
            d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
            ref = (math.fsum(map(math.log, np.abs(1.0 + c * d_q).tolist()))
                   - math.fsum(map(math.log, np.abs(1.0 + c * d_Q).tolist())))
            sign, log_abs, _ = step_pair(Q, q, 0.1, JacobianMode("JFull", "analytic"), t)
            assert sign == 1.0
            assert abs(log_abs - ref) <= 5e-14

    def test_determinant_past_the_float_range(self):
        # (-2)^2000 = e^1386.3: the step keeps its log, which no float exp holds
        d = 2000
        sign, log_abs, n = step_pair(np.full(d, 0.5), np.full(d, 0.4), 0.1,
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
        pair = step_pair(np.ones(1), np.zeros(1), 0.5, JacobianMode(kind, "analytic"), t)
        assert pair == (0.0, -math.inf, 0)
        assert not recwarn.list


def trajectory_product(monkeypatch, factors):
    """N-step product of per-step factors through the accumulator's fold."""
    pairs = iter([(math.copysign(1.0, t), math.log(abs(t))) if t else (0.0, -math.inf)
                  for t in factors])
    monkeypatch.setattr(jacobian, "step_jacobian", lambda *args: (*next(pairs), 0))
    acc = JacobianAccumulator(chain_scratch(QuarticGeneralizedGaussian(1)))
    for _ in factors:
        acc(None, None, None)
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
    def test_probes_reuse_the_solve_force(self, monkeypatch, kind, separable):
        # the base force of the probes is the solve's last force: 2 probe
        # calls per step (2d per component), and the same factors bit for bit
        # as probes from a freshly computed F(q_out, q_in)
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(50)
        d, n_steps = 12, 40
        t = QuarticGeneralizedGaussian(d) if separable else PerComponentQuartic(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        state = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
        reused = trajectory(state, t, StepScratch(t, cfg, JacobianMode(kind)), n_steps).jacobian
        recomputed = JacobianAccumulator(StepScratch(t, cfg, JacobianMode(kind)))
        for q_in, *_, rec in steps:
            recomputed(q_in, rec.q, t.closed_form_force(rec.q, q_in))
        assert len(steps) == n_steps
        per_step = 2 if separable else 2 * d
        assert reused.extra_force_evals == recomputed.extra_force_evals == per_step * n_steps
        assert (reused.sign, reused.log_abs) == (recomputed.sign, recomputed.log_abs)
        assert reused.product == recomputed.product

    def test_gaussian_forty_steps_product_is_one(self):
        t = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]))
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=100)
        state = PhaseState([0.5, -0.4], [1.0, 0.3])
        rec = trajectory(state, t, StepScratch(t, cfg, JacobianMode("JFull", "analytic")), 40)
        assert rec.jacobian.product == pytest.approx(1.0, abs=1e-10)

    def test_default_mode_is_j0(self, monkeypatch):
        # a scratch built without a mode is J0's: its trajectories build no
        # factor and make no probe call
        rng = np.random.default_rng(53)
        t, cfg = QuarticGeneralizedGaussian(6), DmmSolverConfig(tau=0.1)
        state = PhaseState(rng.standard_normal(6), rng.standard_normal(6))
        explicit = trajectory(state, t, StepScratch(t, cfg, JacobianMode("J0")), 8)
        monkeypatch.setattr(jacobian, "force_jacobians", None)
        default = trajectory(state, t, StepScratch(t, cfg), 8)
        assert default.jacobian is None is explicit.jacobian
        assert np.array_equal(default.q, explicit.q) and np.array_equal(default.p, explicit.p)
        assert ((default.total_force_evaluations, default.total_fpi_iterations,
                 default.h_in, default.h_out)
                == (explicit.total_force_evaluations, explicit.total_fpi_iterations,
                    explicit.h_in, explicit.h_out))

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_factor_differentiates_the_solve_force(self, monkeypatch, kind):
        # a black-box target's probes take the solve's divided differences,
        # under the solver's guard: at a guard of 1e-3, components 1 and 3
        # move less than it, so probes built under the default guard differ
        steps = record_steps(monkeypatch)
        t, mode = BlackBoxQuartic(4), JacobianMode(kind)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, dd_guard=1e-3)
        state = PhaseState([0.3, -0.8, 1.1, 0.05], [1.0, 1e-3, -0.5, 2e-3])
        factor = trajectory(state, t, StepScratch(t, cfg, mode), 6).jacobian
        assert len(steps) == 6
        assert any((np.abs(rec.q - q_in) < 1e-3 * np.maximum(1.0, np.abs(q_in))).any()
                   for q_in, *_, rec in steps)

        def hand_loop(scratch):
            sign, log_abs, n = 1.0, 0.0, 0
            for q_in, *_, rec in steps:
                s, lg, k = step_jacobian(rec.q, q_in, rec.force, scratch)
                sign, log_abs, n = sign * s, log_abs + lg, n + k
            return sign, log_abs, n

        own = hand_loop(StepScratch(t, cfg, mode))
        assert (factor.sign, factor.log_abs, factor.extra_force_evals) == own
        assert own[2] == 6 * 2 * 4
        default = hand_loop(StepScratch(t, DmmSolverConfig(tau=0.1), mode))
        assert default[1] != own[1]


class TestProductPastTheFloatRange:
    def test_chmc_iteration_accepts(self):
        # 20 steps of (-2)^100 each: J = e^1386.3 reads +inf and alpha = 1 for a
        # finite dH, where the chain used to stop on an OverflowError
        d = 100
        t = StiffDeclaredQuartic(d)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=2.0, iterations=1, seed=5,
                            jacobian_mode=JacobianMode("JFull", "analytic"))
        rng = chain_rng(5, 0)
        theta = quartic_draws(rng, d)
        scratch = StepScratch(t, cfg.solver, cfg.jacobian_mode)
        new_theta, out = chmc_iteration(theta, t, cfg, rng, StateCache(), scratch)
        assert out.jacobian_product == math.inf
        assert math.isfinite(out.delta_H) and out.all_steps_converged
        assert out.alpha == 1.0 and out.accepted and new_theta is not theta

    def test_chmc_iteration_accepts_below_the_range(self, monkeypatch):
        # 40 steps of log|J| = -20 give |J| = e^-800, which reads 0 as a
        # float; with dH = -900, alpha = min(1, e^100) = 1, which a rule on
        # the product turned into 0
        import chmc.samplers as samplers

        monkeypatch.setattr(jacobian, "step_jacobian", lambda *args: (1.0, -20.0, 0))

        def energy_drop(state, target, scratch, n_steps, u_in=None):
            q_out = state.q + 1.0
            factor = JacobianAccumulator(scratch)
            for _ in range(n_steps):
                factor(state.q, q_out, None)
            return TrajectoryRecord(q_out, state.p, n_steps, n_steps, True, 900.0, 0.0, 900.0,
                                    0.0, jacobian=factor)

        monkeypatch.setattr(samplers, "trajectory", energy_drop)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=4.0, iterations=1,
                            jacobian_mode=JacobianMode("J1", "analytic"))
        theta, t = np.zeros(2), QuarticGeneralizedGaussian(2)
        scratch = StepScratch(t, cfg.solver, cfg.jacobian_mode)
        new_theta, out = chmc_iteration(theta, t, cfg, chain_rng(0, 0), StateCache(), scratch)
        assert out.jacobian_product == 0.0 and out.delta_H == -900.0
        assert out.alpha == 1.0 and out.accepted
        np.testing.assert_array_equal(new_theta, theta + 1.0)


def brute_force_map_jacobian(z, target, tau, h=1e-5):
    """Central finite differences of the tightly solved one-step map."""
    d = z.dim
    scratch = StepScratch(target, DmmSolverConfig(tau=tau, delta=1e-13, max_fpi=200))

    def apply_map(vec):
        rec = dmm_step(vec[:d], vec[d:], scratch)
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
        cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(5):
            z = PhaseState(rng.uniform(-1.2, 1.2, dim), rng.uniform(0.5, 1.5, dim))
            rec = dmm_step(z.q, z.p, StepScratch(target, cfg))
            assert rec.converged
            value, _ = step_factor(rec.q, z.q, 0.1, JacobianMode("JFull", "analytic"), target)
            brute = brute_force_map_jacobian(z, target, 0.1)
            assert value == pytest.approx(brute, rel=1e-5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reversibility_determinant_identity(self, dim):
        # det J at z times det J at R(step(z)) is 1
        rng = np.random.default_rng(45)
        target = QuarticGeneralizedGaussian(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(10):
            z = PhaseState(rng.uniform(-1.2, 1.2, dim), rng.uniform(0.5, 1.5, dim))
            fwd = dmm_step(z.q, z.p, StepScratch(target, cfg))
            assert fwd.converged
            j_fwd, _ = step_factor(fwd.q, z.q, 0.1, JacobianMode("JFull", "analytic"), target)
            back = dmm_step(fwd.q, -fwd.p, StepScratch(target, cfg))
            assert back.converged
            j_back, _ = step_factor(back.q, fwd.q, 0.1, JacobianMode("JFull", "analytic"), target)
            assert j_fwd * j_back == pytest.approx(1.0, abs=1e-6)


class TestTruncationOrders:
    # The expansion is in tau at fixed Jacobian matrices, so the (Q, q) pair
    # is held fixed while tau varies in the formulas. Same-sign components
    # with a moderate separation keep the leading term nonzero without
    # letting higher orders contaminate the tau = 0.2 end of the fit.
    def setup_method(self):
        self.target = QuarticGeneralizedGaussian(3)
        rng = np.random.default_rng(46)
        self.q = rng.uniform(0.5, 1.0, 3)
        self.Q = self.q + rng.uniform(0.1, 0.2, 3)

    def values(self, tau):
        j1, _ = step_factor(self.Q, self.q, tau, JacobianMode("J1", "analytic"), self.target)
        jfull, _ = step_factor(self.Q, self.q, tau, JacobianMode("JFull", "analytic"), self.target)
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

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_analytic_source_refused_when_the_scratch_is_built(self, kind):
        # the chain's StepScratch is where the route is settled, so a direct
        # caller meets the refusal there too, with no target call, and no
        # factor can fall back to finite differences; the other modes build
        class NoJacobians(CountingQuartic):
            closed_form_force_jacobian_diag = None

        t, cfg = NoJacobians(3), DmmSolverConfig(tau=0.1)
        with pytest.raises(ValueError, match="needs the target's closed_form_force_jacobian_diag "
                                             "or closed_form_force_jacobian"):
            StepScratch(t, cfg, JacobianMode(kind, "analytic"))
        assert t.target_calls() == 0
        for mode in (JacobianMode(kind), JacobianMode("J0", "analytic")):
            assert StepScratch(t, cfg, mode).closed_form is None
        assert t.target_calls() == 0
