import dataclasses
import inspect
import math

import numpy as np
import pytest

from chmc import (
    DmmSolverConfig,
    JacobianMode,
    MassMatrix,
    Potential,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    run_chain,
)
from chmc.integrators import (
    StepRecord,
    StepScratch,
    _norm,
    divided_difference_force,
    dmm_step,
    leapfrog_trajectory,
    trajectory,
)
from chmc.jacobian import step_jacobian
from chmc.phase import PhaseState, hamiltonian, kinetic
from support import (
    BlackBoxQuartic,
    CountingQuartic,
    MultivariateGaussian,
    RescaledQuartic,
    quartic_draws,
    record_steps,
)


class LinearPotential(Potential):
    """U(q) = sum q_i: constant divided-difference force, exact energy algebra."""

    def evaluate(self, q):
        return float(q.sum())


class MidpointGradientQuartic(Potential):
    """Quartic whose closed-form force is 2 grad U((Q + q)/2), the implicit midpoint force.

    It agrees with the discrete gradient 2 (Q^2 + q^2)(Q + q) to O(|Q - q|^2)
    but breaks F(Q, q) . (Q - q) = 2 (U(Q) - U(q)).
    """

    def evaluate(self, q):
        t = q * q
        return float((t * t).sum())

    def closed_form_force(self, Q, q):
        m = 0.5 * (Q + q)
        return 8.0 * m * m * m


class SeparableDoubleWell(Potential):
    """U = sum(q^4 - 10 q^2): dF/dQ is near -20 at the origin, so D_i < 0 there at tau = 0.5.

    ``jacobian_args`` lists the (Q, q) of every Jacobian-diagonal call.
    """

    def __init__(self, dim):
        super().__init__(dim)
        self.jacobian_args = []

    def evaluate(self, q):
        return float((q ** 4 - 10.0 * q * q).sum())

    def closed_form_force(self, Q, q):
        return 2.0 * (Q * Q + q * q) * (Q + q) - 20.0 * (Q + q)

    def closed_form_force_jacobian_diag(self, Q, q):
        self.jacobian_args.append((Q.copy(), q.copy()))
        s, c = Q + q, Q * Q + q * q
        return 2.0 * (2.0 * q * s + c) - 20.0, 2.0 * (2.0 * Q * s + c) - 20.0


class SeparableQuadratic(Potential):
    """U = sum a_i q_i^2 / 2 declared separable: F(Q, q) = a (Q + q) is linear in (Q, q)."""

    def __init__(self, a):
        super().__init__(len(a))
        self.a = np.asarray(a, dtype=float)

    def evaluate(self, q):
        return 0.5 * float(self.a @ (q * q))

    def closed_form_force(self, Q, q):
        return self.a * (Q + q)

    def closed_form_force_jacobian_diag(self, Q, q):
        return self.a.copy(), self.a.copy()


def first_iterate(q, p, target, cfg, f_prev=None, chord_prev=None):
    """(Q0, F(Q0, q)): the position and value of ``dmm_step``'s first force call."""
    calls = []
    force = target.closed_form_force

    def recording(Q, q_in):
        f = force(Q, q_in)
        calls.append((Q.copy(), f.copy()))
        return f

    target.closed_form_force = recording
    try:
        dmm_step(q, p, StepScratch(target, cfg), f_prev=f_prev, chord_prev=chord_prev)
    finally:
        del target.closed_form_force
    return calls[0]


def counted_step(q, p, target, cfg, **kwargs):
    """``dmm_step``'s record and the number of forces it made."""
    calls = []
    force = target.closed_form_force
    target.closed_form_force = lambda Q, q_in: calls.append(Q) or force(Q, q_in)
    try:
        return dmm_step(q, p, StepScratch(target, cfg), **kwargs), len(calls)
    finally:
        del target.closed_form_force


def plain_fixed_point(state, potential, cfg):
    """Reference solve with the plain update Q <- g, written out.

    g = a - (tau/2)^2 f with a = q + tau p, the arithmetic ``dmm_step``
    uses, from the Euler first iterate a; the energy error is the
    discrete-gradient value |f . (g - Q)| / 2, tested after every update
    (never before the first). Returns (Q, P, updates, |dH|).
    """
    q, p = state.q, state.p
    half = 0.5 * cfg.tau
    a = q + cfg.tau * p
    force = StepScratch(potential, cfg).force
    f = force(a, q)
    updates = 0
    while True:
        Q = a - half * half * f
        f = force(Q, q)
        updates += 1
        g = a - half * half * f
        err = abs(0.5 * float(f @ (g - Q)))
        if err <= cfg.delta or updates >= cfg.max_fpi or not math.isfinite(err):
            return Q, p - half * f, updates, err


def assert_record_is_plain(rec, state, potential, cfg):
    Q, P, updates, err = plain_fixed_point(state, potential, cfg)
    np.testing.assert_array_equal(rec.q, Q)
    np.testing.assert_array_equal(rec.p, P)
    assert rec.fpi_iterations == updates
    assert rec.energy_error == err
    assert rec.converged == (err <= cfg.delta)


def predictor_corrector_loop(state, t, cfg, n_steps, m=1.0):
    """Reference trajectory on a separable target, written out, with the
    diagonal mass M = diag(m) (the identity by default).

    With a = q + tau M^-1 p: the Euler first iterate a on step 1; on later
    steps Q_pc = a - (tau/2)^2 M^-1 F_prev, the previous step's final force
    frozen in the update target, moved by the previous step's predicted
    chord D_pred to q_prev + (Q_pc - q_prev) / D_pred. One Jacobian-diagonal
    call per step, at X = g(Q0) on step 1 and X = Q0 + (g(Q0) - Q0) / (2 D_pred)
    later, gives this step's chord D = 1 + (tau/2)^2 M^-1 dF/dQ and the next
    step's D_pred = 1 + (tau/2)^2 M^-1 (2 dF/dQ - dF/dq). Then chord updates
    Q + r / D with r = g - Q and g = a - (tau/2)^2 M^-1 f, and the energy
    test after every update (never before the first). tau M^-1 and
    (tau/2)^2 M^-1 are formed once per trajectory; with M = I they are the
    floats ``dmm_step`` uses. The test here forms the true |dH| from U;
    ``dmm_step``'s discrete-gradient value makes the same stop decisions on
    these draws. Returns (q, p, total updates).
    """
    q, p = state.q, state.p
    half, inv_m = 0.5 * cfg.tau, 1.0 / np.asarray(m, dtype=float)
    tau_m, half2_m = cfg.tau * inv_m, half * half * inv_m
    h = t.evaluate(q) + 0.5 * float(p @ (inv_m * p))
    f_prev = q_prev = D_pred = None
    updates = 0
    for _ in range(n_steps):
        a = q + tau_m * p
        Q = a if f_prev is None else a - half2_m * f_prev
        if D_pred is not None:
            Q = q_prev + (Q - q_prev) / D_pred
        g = a - half2_m * t.closed_form_force(Q, q)
        X = g if D_pred is None else Q + (g - Q) / (2.0 * D_pred)
        d_q, d_Q = t.closed_form_force_jacobian_diag(X, q)
        D = 1.0 + half2_m * d_Q
        D_next = 1.0 + half2_m * (2.0 * d_Q - d_q)
        assert (D > 0.0).all() and (D_next > 0.0).all()
        n = 0
        while True:
            Q = Q + (g - Q) / D
            f = t.closed_form_force(Q, q)
            P = p - half * f
            n += 1
            h_new = t.evaluate(Q) + 0.5 * float(P @ (inv_m * P))
            if abs(h_new - h) <= cfg.delta or n >= cfg.max_fpi:
                break
            g = a - half2_m * f
        updates += n
        f_prev, q_prev, D_pred = f, q, D_next
        q, p, h = Q, P, h_new
    return q, p, updates


class TestLeapfrog:
    def test_harmonic_step_example(self):
        t = MultivariateGaussian([0.0], [[1.0]])
        out = leapfrog_trajectory(PhaseState([1.0], [0.0]), t, 0.1, 1)
        assert out.q[0] == pytest.approx(0.995, abs=1e-15)
        assert out.p[0] == pytest.approx(-0.09975, abs=1e-15)

    def test_constant_potential_is_free_flight(self):
        class Flat(Potential):
            def evaluate(self, q):
                return 3.0

            def gradient(self, q):
                return np.zeros_like(q)

        s = PhaseState([1.0, -2.0], [0.5, 0.25])
        out = leapfrog_trajectory(s, Flat(2), 0.3, 1)
        np.testing.assert_array_equal(out.p, s.p)
        np.testing.assert_allclose(out.q, s.q + 0.3 * s.p, rtol=1e-15)

    @pytest.mark.parametrize("tau", [0.0, -0.1, math.inf, math.nan])
    def test_tau_must_be_finite_and_positive(self, tau):
        # the loop carries w = tau p, which loses p at tau = 0; the trajectory
        # takes tau on trust, and a chain's config refuses it
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            SamplerConfig(method="hmc-leapfrog", tau=tau, total_time=0.1, iterations=2)

    def test_requires_gradient(self):
        # the trajectory takes the gradient on trust: run_chain refuses a
        # leapfrog chain on a gradient-free target before any sink or target call
        class CountingBlackBox(BlackBoxQuartic):
            evaluations = 0

            def evaluate(self, q):
                self.evaluations += 1
                return super().evaluate(q)

        seen, target = [], CountingBlackBox(1)
        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=0.1, iterations=2)
        with pytest.raises(ValueError, match="leapfrog requires a potential gradient"):
            run_chain(cfg, target, MassMatrix.identity(1), sinks=[lambda i, o, th: seen.append(i)])
        assert seen == [] and target.evaluations == 0

    def test_n_steps_plus_one_gradient_evaluations(self):
        t = CountingQuartic(3)
        s = PhaseState(np.zeros(3), np.ones(3))
        rec = leapfrog_trajectory(s, t, 0.1, 7)
        assert t.calls["gradient"] == 8
        assert rec.total_force_evaluations == 8

    def test_carried_start_values_save_the_start_calls(self):
        # handed U and the first half-kick at its start, a trajectory makes n
        # gradient calls and evaluates U at its end only, with the same bits
        t = CountingQuartic(3)
        s = PhaseState([0.3, -0.2, 0.5], [1.0, 0.5, -1.0])
        fresh = leapfrog_trajectory(s, t, 0.1, 7)
        t.calls.update(gradient=0, evaluate=0)
        carried = leapfrog_trajectory(s, t, 0.1, 7, u_in=fresh.u_in, kick_in=fresh.kick_in)
        assert (t.calls["gradient"], t.calls["evaluate"]) == (7, 1)
        assert (fresh.total_force_evaluations, carried.total_force_evaluations) == (8, 7)
        for name in ("q", "p", "h_in", "h_out", "u_out", "kick_out"):
            np.testing.assert_array_equal(getattr(carried, name), getattr(fresh, name))
        assert carried.kick_in is fresh.kick_in

    def test_end_values_are_the_next_start_values(self):
        # u_out and kick_out carry the bits a trajectory from the end computes
        t = QuarticGeneralizedGaussian(4)
        rec = leapfrog_trajectory(PhaseState([0.3, -0.2, 0.5, 1.1], np.ones(4)), t, 0.1, 9)
        nxt = leapfrog_trajectory(PhaseState(rec.q, np.zeros(4)), t, 0.1, 9)
        assert rec.u_out == nxt.u_in == t.evaluate(rec.q)
        np.testing.assert_array_equal(rec.kick_out, nxt.kick_in)
        scratch = StepScratch(t, DmmSolverConfig(tau=0.1))
        chmc = trajectory(PhaseState(rec.q, np.ones(4)), t, scratch, 3)
        assert chmc.u_in == rec.u_out and chmc.kick_in is None
        assert chmc.u_out == t.evaluate(chmc.q)

    def test_failure_reports_start_values_only(self):
        class Steep(QuarticGeneralizedGaussian):
            def gradient(self, q):
                return np.full_like(q, 1e308) * q

        t = Steep(2)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = leapfrog_trajectory(PhaseState([1.0, 1.0], [0.0, 0.0]), t,
                                      0.5, 3)
        assert rec.h_out == rec.u_out == math.inf
        assert rec.u_in == 2.0 and rec.kick_in is not None and rec.kick_out is None

    @staticmethod
    def start(seed, d=5):
        rng = np.random.default_rng(seed)
        return PhaseState(rng.uniform(-1.5, 1.5, d), rng.standard_normal(d))

    def test_trajectory_matches_one_kick_loop_bitwise(self):
        # scaled momentum w = tau p: one kick tau^2 grad U per step, half-kicks
        # (tau/2) grad U only at the two ends
        t = QuarticGeneralizedGaussian(5)
        s = self.start(37)
        tau = 0.1
        kick_in = 0.5 * tau * t.gradient(s.q)
        q, w = s.q, tau * (s.p - kick_in)
        for _ in range(25):
            q = q + w
            g = t.gradient(q)
            w = w - tau * tau * g
        p = w / tau + 0.5 * tau * g
        rec = leapfrog_trajectory(s, t, tau, 25)
        np.testing.assert_array_equal(rec.q, q)
        np.testing.assert_array_equal(rec.p, p)
        np.testing.assert_array_equal(rec.kick_in, kick_in)
        np.testing.assert_array_equal(rec.kick_out, 0.5 * tau * g)

    @pytest.mark.parametrize("seed", [37, 38, 39])
    def test_trajectory_is_the_kick_drift_kick_loop_to_rounding(self, seed):
        # the textbook loop re-evaluates the start-of-step gradient every step;
        # over 200 such starts the two differ by at most 3.3e-15 (q) and 7.1e-15
        # (p) relative to the largest component
        t = QuarticGeneralizedGaussian(5)
        s = self.start(seed)
        tau = 0.1
        q, p = s.q, s.p
        for _ in range(25):
            p_half = p - 0.5 * tau * t.gradient(q)
            q = q + tau * p_half
            p = p_half - 0.5 * tau * t.gradient(q)
        rec = leapfrog_trajectory(s, t, tau, 25)
        assert np.abs(rec.q - q).max() <= 1e-13 * np.abs(q).max()
        assert np.abs(rec.p - p).max() <= 1e-13 * np.abs(p).max()

    @pytest.mark.parametrize("seed", [37, 38, 39])
    def test_momentum_flip_round_trip(self, seed):
        # leapfrog is reversible: 25 steps, p negated, 25 steps back return to
        # the start; over 200 starts the error is at most 5.3e-15 relative
        t = QuarticGeneralizedGaussian(5)
        s = self.start(seed)
        out = leapfrog_trajectory(s, t, 0.1, 25)
        back = leapfrog_trajectory(PhaseState(out.q, -out.p), t, 0.1, 25)
        assert np.abs(back.q - s.q).max() <= 1e-13 * np.abs(s.q).max()
        assert np.abs(back.p + s.p).max() <= 1e-13 * np.abs(s.p).max()
        assert np.abs(out.q - s.q).max() > 0.1


class TestDividedDifferenceForce:
    def test_quartic_value(self):
        f, evals = divided_difference_force(np.array([2.0]), np.array([1.0]), BlackBoxQuartic(1))
        assert f[0] == pytest.approx(30.0, rel=1e-12)
        assert evals == 4  # 2 (d + 1)

    def test_harmonic_value(self):
        t = MultivariateGaussian([0.0], [[1.0]])
        f, _ = divided_difference_force(np.array([2.0]), np.array([1.0]), t)
        assert f[0] == pytest.approx(3.0, rel=1e-12)

    def test_componentwise_two_dimensional(self):
        f, _ = divided_difference_force(np.array([2.0, 3.0]), np.array([1.0, 1.0]),
                                        BlackBoxQuartic(2))
        np.testing.assert_allclose(f, [30.0, 80.0], rtol=1e-11)

    def test_brute_force_hat_vectors(self):
        # four-hat-vector evaluation, no incremental reuse
        rng = np.random.default_rng(31)
        t = MultivariateGaussian([0.1, -0.4, 0.2], np.diag([1.0, 2.0, 0.5]))
        for _ in range(20):
            q = rng.uniform(-2, 2, 3)
            Q = q + rng.uniform(0.1, 1.0, 3) * rng.choice([-1, 1], 3)
            expected = np.empty(3)
            for i in range(3):
                q_hat_hi = np.concatenate([Q[:i + 1], q[i + 1:]])
                q_hat_lo = np.concatenate([Q[:i], q[i:]])
                p_hat_hi = np.concatenate([q[:i + 1], Q[i + 1:]])
                p_hat_lo = np.concatenate([q[:i], Q[i:]])
                expected[i] = ((t.evaluate(q_hat_hi) - t.evaluate(q_hat_lo))
                               + (t.evaluate(p_hat_lo) - t.evaluate(p_hat_hi))) / (Q[i] - q[i])
            f, _ = divided_difference_force(Q, q, t)
            np.testing.assert_allclose(f, expected, rtol=1e-9, atol=1e-9)

    def test_guard_recovers_analytic_limit(self):
        # coincident component falls back to twice the partial derivative sum
        f, _ = divided_difference_force(np.array([1.0]), np.array([1.0]), BlackBoxQuartic(1))
        assert f[0] == pytest.approx(8.0, rel=1e-5)

    def test_guard_leaves_other_components_exact(self):
        f, _ = divided_difference_force(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                                        BlackBoxQuartic(2))
        assert f[0] == pytest.approx(8.0, rel=1e-5)
        assert f[1] == pytest.approx(30.0, rel=1e-11)

    def test_evaluated_points_in_order(self):
        # each path starts at its end point and advances one component at a
        # time; the coincident component 1 first takes its four midpoint
        # probes, x's then y's, from where the paths stand: 2 (d + 1) + 4 calls
        points = []

        class Recording(BlackBoxQuartic):
            def evaluate(self, x):
                points.append(x.copy())
                return super().evaluate(x)

        guard = 1e-8
        q, Q = np.array([0.5, 1.0, -0.25]), np.array([1.5, 1.0, 0.25])
        lo, hi = 1.0 - 0.5 * guard, 1.0 + 0.5 * guard
        f, n = divided_difference_force(Q, q, Recording(3), guard)
        expected = [q, Q,
                    [1.5, 1.0, -0.25], [0.5, 1.0, 0.25],  # past component 0
                    [1.5, hi, -0.25], [1.5, lo, -0.25], [0.5, hi, 0.25], [0.5, lo, 0.25],
                    [1.5, 1.0, -0.25], [0.5, 1.0, 0.25],  # past component 1
                    Q, q]  # past component 2
        assert n == len(points) == len(expected) == 12
        for point, want in zip(points, expected):
            np.testing.assert_array_equal(point, want)
        assert f[1] == pytest.approx(8.0, rel=1e-5)
        np.testing.assert_allclose(f[[0, 2]], [2 * (1.5 ** 2 + 0.25) * 2.0, 0.0], atol=1e-12)

    def test_non_finite_potential_propagates(self):
        class Hole(Potential):
            def evaluate(self, q):
                return math.inf if abs(q[0]) > 1.5 else float((q ** 4).sum())

        f, _ = divided_difference_force(np.array([2.0]), np.array([1.0]), Hole(1))
        assert not np.isfinite(f).all()


class TestFixedPointInit:
    def test_position_euler_example(self):
        cfg = DmmSolverConfig(tau=0.1)
        t = QuarticGeneralizedGaussian(1)
        Q0, f0 = first_iterate(np.array([0.0]), np.array([1.0]), t, cfg)
        assert Q0[0] == pytest.approx(0.1, rel=1e-15)
        # f0 = F(Q0, q) = 2 (0.01)(0.1)
        assert f0[0] == pytest.approx(0.002, rel=1e-12)

    def test_extrapolated_prediction_example(self):
        # F_prev = 4 is the force that took p_prev = 1.2 to p = 1 at tau/2 = 0.05,
        # so Q0 = a - (tau/2)^2 F_prev = 0.1 - 0.0025 (4) is the momentum
        # extrapolation q + (tau/2)(3p - p_prev) = 0.05 (3 - 1.2)
        cfg = DmmSolverConfig(tau=0.1)
        t = QuarticGeneralizedGaussian(1)
        Q0, _ = first_iterate(np.array([0.0]), np.array([1.0]), t, cfg, f_prev=np.array([4.0]))
        assert Q0[0] == pytest.approx(0.09, rel=1e-14)

    def test_chord_linearized_prediction_example(self):
        # Q_pc = 0.09 as above, then q_prev + (Q_pc - q_prev) / D_prev = -0.1 + 0.19 / 1.5
        cfg = DmmSolverConfig(tau=0.1)
        t = QuarticGeneralizedGaussian(1)
        Q0, _ = first_iterate(np.array([0.0]), np.array([1.0]), t, cfg,
                              f_prev=np.array([4.0]),
                              chord_prev=(np.array([-0.1]), np.array([1.5])))
        assert Q0[0] == pytest.approx(-0.1 + 0.19 / 1.5, rel=1e-14)

    def test_prediction_is_plain_arithmetic_at_coincident_components(self):
        # component 0 of each prediction lands on (or within the divided-
        # difference threshold of) q_0; the force handles that, the predictor
        # does not move it
        cfg = DmmSolverConfig(tau=0.1, dd_guard=1e-8)
        t = QuarticGeneralizedGaussian(2)
        q = np.array([0.5, -1.0])
        half = 0.5 * cfg.tau
        p_euler = np.array([0.0, 0.3])
        p, f_prev = np.array([0.5, 0.25]), np.array([20.0, 5.0])
        q_prev, D_prev = np.array([0.49, -1.1]), np.array([2.0, 1.5])
        p_c, f_prev_c = np.array([0.1, 0.2]), np.array([0.0, 2.0])
        cases = (
            ((q, p_euler), {}, q + cfg.tau * p_euler),
            ((q, p), {"f_prev": f_prev}, q + cfg.tau * p - half * half * f_prev),
            ((q, p_c), {"f_prev": f_prev_c, "chord_prev": (q_prev, D_prev)},
             q_prev + (q + cfg.tau * p_c - half * half * f_prev_c - q_prev) / D_prev),
        )
        for (q_in, p_in), kwargs, expected in cases:
            Q0, f0 = first_iterate(q_in, p_in, t, cfg, **kwargs)
            assert abs(expected[0] - q[0]) < cfg.dd_guard * max(1.0, abs(q[0]))
            np.testing.assert_array_equal(Q0, expected)
            np.testing.assert_array_equal(f0, t.closed_form_force(expected, q))
        # from (q, 0) the Euler prediction is q itself: the closed form is
        # defined there and the black-box force takes its symmetric branch
        d = 3
        q = np.array([0.5, -1.0, 0.0])
        assert divided_difference_force(q, q, BlackBoxQuartic(d), cfg.dd_guard)[1] == 2 + 6 * d
        for target in (QuarticGeneralizedGaussian(d), BlackBoxQuartic(d)):
            rec = dmm_step(q, np.zeros(d), StepScratch(target, cfg))
            assert rec.converged
            assert np.isfinite(rec.q).all() and np.isfinite(rec.p).all()


class TestDmmStep:
    def test_linear_potential_exact_cancellation(self):
        # constant force: the solve lands on the fixed point in one update
        t = LinearPotential(1)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8)
        rec = dmm_step(np.array([0.0]), np.array([1.0]), StepScratch(t, cfg))
        assert rec.q[0] == pytest.approx(0.095, rel=1e-15)
        assert rec.p[0] == pytest.approx(0.9, rel=1e-15)
        assert rec.energy_error == 0.0
        assert rec.converged

    def test_quartic_converges_to_tolerance(self):
        t = QuarticGeneralizedGaussian(1)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        rec = dmm_step(np.array([0.0]), np.array([1.0]), StepScratch(t, cfg))
        assert rec.converged and rec.energy_error <= 1e-8

    def test_force_evaluations_count_init_plus_updates(self):
        t = QuarticGeneralizedGaussian(4)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=20)
        rng = np.random.default_rng(5)
        s = PhaseState(rng.standard_normal(4), rng.standard_normal(4))
        rec, forces = counted_step(s.q, s.p, t, cfg)
        assert forces == 1 + rec.fpi_iterations

    def test_unconverged_iterate_still_returned(self):
        t = QuarticGeneralizedGaussian(2)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-16, max_fpi=1)
        s = PhaseState([1.1, -0.8], [0.9, 1.2])
        rec = dmm_step(s.q, s.p, StepScratch(t, cfg))
        assert not rec.converged
        assert rec.fpi_iterations == 1
        assert np.isfinite(rec.energy_error)
        assert rec.q is not s.q and rec.p is not s.p

    def test_failure_flags_and_preserves_input(self):
        class Nan(Potential):
            def evaluate(self, q):
                return math.nan

        rec = dmm_step(np.array([0.5]), np.array([1.0]),
                       StepScratch(Nan(1), DmmSolverConfig(tau=0.1)))
        assert not rec.converged and rec.energy_error == math.inf
        assert rec.q[0] == 0.5

    def test_energy_preservation_at_tight_tolerance(self):
        # near-exact fixed points: |dH| at the 1e-11 level for d <= 4
        rng = np.random.default_rng(32)
        for target in (QuarticGeneralizedGaussian(4),
                       MultivariateGaussian(np.zeros(4), np.eye(4))):
            cfg = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
            for _ in range(50):
                s = PhaseState(rng.uniform(-1.5, 1.5, 4), rng.uniform(-1.5, 1.5, 4))
                rec = dmm_step(s.q, s.p, StepScratch(target, cfg))
                assert rec.converged
                assert rec.energy_error <= 1e-11

    def test_contraction_residuals_decrease(self):
        # successive fixed-point residual norms shrink monotonically at tau = 0.1
        rng = np.random.default_rng(33)
        t = QuarticGeneralizedGaussian(3)
        for _ in range(25):
            q = rng.uniform(-2, 2, 3)
            p = rng.uniform(-2, 2, 3)
            Q = q + 0.1 * p
            eps = 1e-8 * np.maximum(1.0, np.abs(q))
            small = np.abs(Q - q) < eps
            Q = np.where(small, q + np.where(p >= 0, 1.0, -1.0) * eps, Q)
            force = StepScratch(t, DmmSolverConfig(tau=0.1, dd_guard=1e-8)).force
            f = force(Q, q)
            P = p - 0.05 * f
            residuals = []
            for _ in range(8):
                Q_new = q + 0.05 * (P + p)
                f = force(Q_new, q)
                P_new = p - 0.05 * f
                residuals.append(np.hypot(np.linalg.norm(Q_new - Q), np.linalg.norm(P_new - P)))
                Q, P = Q_new, P_new
            floored = [r for r in residuals if r > 1e-14]
            assert all(b < a for a, b in zip(floored, floored[1:]))


class TestChordSolve:
    @pytest.mark.parametrize("dim", [1, 4, 40])
    def test_no_more_updates_than_plain_loop(self, dim):
        rng = np.random.default_rng(38)
        t = QuarticGeneralizedGaussian(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=100)
        tight = DmmSolverConfig(tau=0.1, delta=1e-13, max_fpi=200)
        for _ in range(30):
            s = PhaseState(rng.uniform(-1.5, 1.5, dim), rng.uniform(-1.5, 1.5, dim))
            rec, forces = counted_step(s.q, s.p, t, cfg)
            _, _, plain_updates, _ = plain_fixed_point(s, t, cfg)
            assert rec.converged
            assert rec.fpi_iterations <= plain_updates
            assert forces == 1 + rec.fpi_iterations
            rec = dmm_step(s.q, s.p, StepScratch(t, tight))
            Q, P, _, err = plain_fixed_point(s, t, tight)
            assert rec.converged and err <= tight.delta
            assert np.max(np.abs(rec.q - Q)) <= 1e-8
            assert np.max(np.abs(rec.p - P)) <= 1e-8

    @pytest.mark.parametrize("case", ["gaussian", "black-box"])
    def test_other_targets_keep_plain_update(self, case):
        rng = np.random.default_rng(39)
        dim = 4
        if case == "gaussian":
            a = rng.standard_normal((dim, dim))
            t = MultivariateGaussian(rng.standard_normal(dim), a @ a.T + dim * np.eye(dim))
        else:
            t = BlackBoxQuartic(dim)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=20)
        for _ in range(10):
            s = PhaseState(rng.uniform(-1.5, 1.5, dim), rng.uniform(-1.5, 1.5, dim))
            assert_record_is_plain(dmm_step(s.q, s.p, StepScratch(t, cfg)), s, t, cfg)

    def test_non_positive_scale_falls_back_to_plain_update(self):
        t = SeparableDoubleWell(2)
        cfg = DmmSolverConfig(tau=0.5, delta=1e-8, max_fpi=4)
        s = PhaseState([0.1, -0.2], [0.3, 0.1])
        f0 = t.closed_form_force(s.q + 0.5 * s.p, s.q)  # at the Euler first iterate
        g0 = s.q + 0.5 * s.p - 0.25 * 0.25 * f0
        _, d_Q = t.closed_form_force_jacobian_diag(g0, s.q)
        assert (1.0 + 0.25 * 0.25 * d_Q <= 0.0).any()
        t.jacobian_args.clear()
        rec = dmm_step(s.q, s.p, StepScratch(t, cfg))
        assert len(t.jacobian_args) == 1
        assert math.isfinite(rec.energy_error)
        assert_record_is_plain(rec, s, t, cfg)

    def test_predicted_chord_example(self):
        # tau = 1: from (q, p) = (0.5, 0.5) the Euler first iterate is
        # Q0 = q + tau p = 1, where F = 2 (1 + 0.25)(1.5) = 3.75, so the
        # Jacobian point is g = 1 - 3.75 / 4 = 1/16. The quartic's diagonals
        # there are dF/dq = 2 (2 q (Q + q) + Q^2 + q^2) = 209/128 and
        # dF/dQ = 2 (2 Q (Q + q) + Q^2 + q^2) = 83/128, so
        # D = 1 + (1/4)(83/128) = 595/512 and
        # D_next = 1 + (1/4)(2 (83/128) - 209/128) = 469/512, all dyadic and exact
        t = QuarticGeneralizedGaussian(1)
        cfg = DmmSolverConfig(tau=1.0, max_fpi=1)
        q, p = np.array([0.5]), np.array([0.5])
        rec = dmm_step(q, p, StepScratch(t, cfg))
        assert rec.chord[0] == 469 / 512
        assert rec.q[0] == pytest.approx(1.0 + (1 / 16 - 1.0) / (595 / 512), rel=1e-15)

    def test_jacobian_point_is_estimated_midpoint(self):
        # with a predicted chord the Jacobian-diagonal call is made at
        # X = Q0 + (g0 - Q0) / (2 D_pred), without one at g0 = g(Q0)
        rng = np.random.default_rng(52)
        d = 5
        t = CountingQuartic(d)
        cfg = DmmSolverConfig(tau=0.1)
        half = 0.5 * cfg.tau
        q, p, f_prev = quartic_draws(rng, d), rng.standard_normal(d), rng.standard_normal(d)
        D_pred = rng.uniform(1.0, 1.5, d)
        for kwargs in ({}, {"f_prev": f_prev, "chord_prev": (q - 0.1 * f_prev, D_pred)}):
            Q0, f0 = first_iterate(q, p, t, cfg, **kwargs)
            g0 = q + cfg.tau * p - half * half * f0
            X = Q0 + (g0 - Q0) / (2.0 * D_pred) if kwargs else g0
            np.testing.assert_array_equal(t.jacobian_args[0], X)
            np.testing.assert_array_equal(t.jacobian_args[1], q)

    def test_non_positive_predicted_chord_is_dropped(self, monkeypatch):
        # from (3, -4) at tau = 0.5 the forces F(1, 3) and F(-1, 1) vanish, so
        # the first step ends at (1, -4) after one update. Its Jacobian point
        # g(Q0) = 1 gives dF/dq = 48 and dF/dQ = 16: the chord D = 2 is valid,
        # the predicted D_next = 1 + (32 - 48) / 16 = 0 is not. The second
        # step starts from Q_pc = a - (tau/2)^2 F_prev = 1 + 0.5 (-4) - 0 = -1
        # and makes its Jacobian call at g(Q0) = -1
        steps = record_steps(monkeypatch)
        t = SeparableDoubleWell(1)
        cfg = DmmSolverConfig(tau=0.5)
        trajectory(PhaseState([3.0], [-4.0]), t, StepScratch(t, cfg), 2)
        (_, _, _, first), (q, p, kwargs, _) = steps
        assert first.converged and first.fpi_iterations == 1 and first.chord is None
        assert q[0] == 1.0 and p[0] == -4.0
        assert kwargs["chord_prev"] is None and kwargs["f_prev"] is first.force
        assert [X[0] for X, _ in t.jacobian_args] == [1.0, -1.0]
        Q0, f0 = first_iterate(q, p, t, cfg, f_prev=kwargs["f_prev"])
        assert Q0[0] == -1.0 and f0[0] == 0.0

    def test_rest_state_converges_after_one_update(self):
        # the first iterate is never tested: even the rest state takes one update
        t = SeparableDoubleWell(1)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8)
        rec, forces = counted_step(np.array([0.0]), np.array([0.0]), t, cfg)
        assert rec.converged and rec.fpi_iterations == 1
        assert forces == 2
        assert len(t.jacobian_args) == 1

    def test_capped_solve_converges_at_d2560(self, monkeypatch):
        # the separation config's setting: with plain updates no step of this
        # trajectory reaches delta within 5 updates
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(40)
        d = 2560
        s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=5)
        rec = trajectory(s, t, StepScratch(t, cfg), 40)
        assert len(steps) == 40
        assert rec.all_converged and rec.h_out != math.inf
        assert abs(rec.h_out - rec.h_in) <= 40 * cfg.delta


class TestPredictorCorrector:
    def test_trajectory_matches_hand_written_loop(self):
        rng = np.random.default_rng(45)
        d = 40
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        scratch = StepScratch(t, cfg)
        for _ in range(3):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            q, p, updates = predictor_corrector_loop(s, t, cfg, 40)
            rec = trajectory(s, t, scratch, 40)
            np.testing.assert_array_equal(rec.q, q)
            np.testing.assert_array_equal(rec.p, p)
            assert rec.total_fpi_iterations == updates
            assert rec.total_force_evaluations == 40 + updates

    def test_updates_per_step_pin(self):
        # 1.03 updates per step; 2.0 with the first-order chord frozen at
        # g(Q0), 2.67 with an Euler first iterate tested before any update
        rng = np.random.default_rng(46)
        d = 40
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        scratch, updates = StepScratch(t, cfg), 0
        for _ in range(10):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            updates += trajectory(s, t, scratch, 40).total_fpi_iterations
        assert updates / 400 <= 1.15

    def test_black_box_forces_per_step_pin(self):
        # plain updates: 6.1-6.3 forces per step with an Euler first iterate
        # tested before any update, 5.5-5.75 with the predictor (six seeds)
        rng = np.random.default_rng(47)
        d = 10
        t = BlackBoxQuartic(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        scratch, forces = StepScratch(t, cfg), 0
        for _ in range(20):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            forces += trajectory(s, t, scratch, 40).total_force_evaluations
        assert forces / 800 <= 5.9

    def test_linear_force_predictor_is_exact(self, monkeypatch):
        # F = a (Q + q) is its own chord model: from step 2 on the first
        # iterate is the solution to rounding, where Q_pc is not, and every
        # step converges after one update (step 1 too: its D is exact)
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(49)
        d = 40
        t = SeparableQuadratic(rng.uniform(1.0, 50.0, d))
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        s = PhaseState(rng.standard_normal(d), rng.standard_normal(d))
        rec = trajectory(s, t, StepScratch(t, cfg), 40)
        assert rec.all_converged and rec.total_fpi_iterations == 40
        assert steps[0][2]["chord_prev"] is None
        for q, p, kwargs, step in steps[1:]:
            assert step.converged and step.fpi_iterations == 1
            Q0, _ = first_iterate(q, p, t, cfg, kwargs["f_prev"], kwargs["chord_prev"])
            Q_pc, _ = first_iterate(q, p, t, cfg, kwargs["f_prev"])
            scale = 1.0 + np.abs(step.q).max()
            assert np.abs(Q0 - step.q).max() <= 1e-14 * scale
            assert np.abs(Q_pc - step.q).max() > 1e-6 * scale

    def test_cost_pin_at_d2560(self):
        # the separation config's setting: 1.09-1.15 updates and 3.14-3.20
        # target calls per step (seeds 4243, 1, 2); the first-order chord
        # frozen at g(Q0) took 2.03 and 4.08, the Euler-corrected start
        # without a chord model 2.90 and 4.95
        rng = np.random.default_rng(4243)
        d, n_traj = 2560, 10
        t = CountingQuartic(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=5)
        scratch, updates = StepScratch(t, cfg), 0
        for _ in range(n_traj):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            rec = trajectory(s, t, scratch, 40)
            assert rec.all_converged and rec.h_out != math.inf
            updates += rec.total_fpi_iterations
        assert updates / (40 * n_traj) <= 1.25
        assert t.target_calls() / (40 * n_traj) <= 3.3

    @pytest.mark.parametrize("case", ["gaussian", "black-box"])
    def test_targets_without_chord_keep_extrapolated_start(self, case, monkeypatch):
        rng = np.random.default_rng(44)
        d = 4
        if case == "gaussian":
            a = rng.standard_normal((d, d))
            t = MultivariateGaussian(rng.standard_normal(d), a @ a.T + d * np.eye(d))
        else:
            t = BlackBoxQuartic(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=20)
        s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
        q, p, f_prev = s.q, s.p, None
        for _ in range(10):
            step = dmm_step(q, p, StepScratch(t, cfg), f_prev=f_prev)
            f_prev, q, p = step.force, step.q, step.p
        steps = record_steps(monkeypatch)
        rec = trajectory(s, t, StepScratch(t, cfg), 10)
        np.testing.assert_array_equal(rec.q, q)
        np.testing.assert_array_equal(rec.p, p)
        assert all(kw["chord_prev"] is None and step.chord is None for _, _, kw, step in steps)

    @pytest.mark.parametrize("case", ["quartic-d1", "gaussian-d3"])
    def test_first_iterate_on_the_energy_surface_still_moves(self, case):
        # an f_prev that puts Q_pc = q + tau p - (tau/2)^2 f_prev 1e-9 from q
        # gives a first iterate on the input energy surface; testing it
        # before an update would return the input unchanged
        rng = np.random.default_rng(48)
        if case == "quartic-d1":
            t = QuarticGeneralizedGaussian(1)
        else:
            t = MultivariateGaussian(np.zeros(3), np.eye(3))
        cfg = DmmSolverConfig(tau=0.1)
        for _ in range(200):
            q, p = rng.uniform(-1.5, 1.5, t.dim), rng.uniform(-1.5, 1.5, t.dim)
            f_prev = (cfg.tau * p - 1e-9) / 0.05 ** 2
            Q0, _ = first_iterate(q, p, t, cfg, f_prev)
            assert np.abs(Q0 - q - 1e-9).max() <= 1e-15
            rec = dmm_step(q, p, StepScratch(t, cfg), f_prev=f_prev)
            assert rec.fpi_iterations >= 1
            moving = p != 0.0
            assert (np.abs(rec.q - q)[moving] > 1e-6).all()


class TestReversibility:
    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_single_step_round_trip(self, dim):
        # R o step o R o step = identity, the reverse solve started from its
        # Euler first iterate as any first step is, 50 random states per target
        rng = np.random.default_rng(34)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=200)
        targets = (QuarticGeneralizedGaussian(dim),
                   MultivariateGaussian(np.zeros(dim), np.eye(dim)))
        for target in targets:
            for _ in range(50):
                z = PhaseState(rng.uniform(-1.5, 1.5, dim), rng.uniform(-1.5, 1.5, dim))
                fwd = dmm_step(z.q, z.p, StepScratch(target, cfg))
                assert fwd.converged
                back = dmm_step(fwd.q, -fwd.p, StepScratch(target, cfg))
                # R(back) = (back.q, -back.p)
                assert np.max(np.abs(back.q - z.q)) <= 1e-8
                assert np.max(np.abs(-back.p - z.p)) <= 1e-8

    def test_forty_step_round_trip_at_working_tolerance(self):
        # a solve that stops at delta = 1e-8 leaves the computed map slightly
        # asymmetric. Over 200 such starts (seeds 0-199, one start each) the
        # round-trip miss has median 2.2e-9 and maximum 6.6e-8 (5.9e-10 and
        # 1.0e-7 with the chord frozen at g(Q0)); 10 % of them miss by more
        # than 2e-8, so the median and a loose maximum are pinned
        rng = np.random.default_rng(53)
        d = 40
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        scratch, misses = StepScratch(t, cfg), []
        for _ in range(10):
            z = PhaseState(0.6 * rng.standard_normal(d), rng.standard_normal(d))
            fwd = trajectory(z, t, scratch, 40)
            back = trajectory(PhaseState(fwd.q, -fwd.p), t, scratch, 40)
            assert fwd.all_converged and back.all_converged
            misses.append(max(np.abs(back.q - z.q).max(), np.abs(-back.p - z.p).max()))
        assert np.median(misses) <= 2e-8
        assert max(misses) <= 2e-7


class TestTrajectory:
    def test_single_step_matches_dmm_step(self):
        t = QuarticGeneralizedGaussian(2)
        cfg = DmmSolverConfig(tau=0.1)
        s = PhaseState([0.1, -0.3], [0.7, 0.2])
        rec = trajectory(s, t, StepScratch(t, cfg), 1)
        step, forces = counted_step(s.q, s.p, t, cfg)
        np.testing.assert_array_equal(rec.q, step.q)
        np.testing.assert_array_equal(rec.p, step.p)
        assert rec.total_force_evaluations == forces

    def test_energy_bound_over_forty_steps(self):
        t = QuarticGeneralizedGaussian(4)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=50)
        rng = np.random.default_rng(35)
        s = PhaseState(rng.standard_normal(4), rng.standard_normal(4))
        rec = trajectory(s, t, StepScratch(t, cfg), 40)
        assert rec.all_converged
        assert abs(rec.h_out - rec.h_in) <= 40 * 1e-8

    def test_factor_sees_every_step(self, monkeypatch):
        # the steps chain from the start to the end position, and the J1
        # factor folds in each of them: 2 probe forces per step
        steps = record_steps(monkeypatch)
        t = QuarticGeneralizedGaussian(2)
        s = PhaseState([0.1, 0.2], [1.0, -1.0])
        rec = trajectory(s, t, StepScratch(t, DmmSolverConfig(tau=0.1), JacobianMode("J1")), 5)
        assert len(steps) == 5
        np.testing.assert_array_equal(steps[0][0], s.q)
        np.testing.assert_array_equal(steps[-1][3].q, rec.q)
        assert rec.jacobian.extra_force_evals == 2 * 5

    def test_a_step_has_only_the_entries_a_chain_takes(self):
        # no warm start: the first iterate is the predictor; no target or
        # configuration beside its scratch; no force count of its own: a
        # step makes fpi_iterations + 1 forces
        assert list(inspect.signature(dmm_step).parameters) == [
            "q", "p", "scratch", "f_prev", "chord_prev"]
        assert "force_evaluations" not in {f.name for f in dataclasses.fields(StepRecord)}

    def test_scratch_resolves_the_force(self):
        # the closed form where the target has one, else divided differences
        # of U under the configuration's guard
        rng = np.random.default_rng(58)
        d = 4
        q, Q = rng.uniform(-1.5, 1.5, d), rng.uniform(-1.5, 1.5, d)
        Q[0] = q[0] + 1e-7
        quartic = QuarticGeneralizedGaussian(d)
        assert StepScratch(quartic, DmmSolverConfig(tau=0.1)).force == quartic.closed_form_force
        black_box, forces = BlackBoxQuartic(d), []
        for guard in (1e-8, 1e-6):
            cfg = DmmSolverConfig(tau=0.1, dd_guard=guard)
            forces.append(StepScratch(black_box, cfg).force(Q, q))
            np.testing.assert_array_equal(
                forces[-1], divided_difference_force(Q, q, black_box, cfg.dd_guard)[0])
        # the guard decides the branch of component 0, so the two differ
        assert forces[0][0] != forces[1][0]

    @pytest.mark.parametrize("integrate", [
        lambda s, t: trajectory(s, t, StepScratch(t, DmmSolverConfig(tau=0.1)), 5),
        lambda s, t: leapfrog_trajectory(s, t, 0.1, 5),
    ])
    def test_one_hamiltonian_per_trajectory(self, monkeypatch, integrate):
        # end energies come from phase.potential_energy on raw arrays; only
        # the start state goes through hamiltonian, whose (U, H) are the
        # record's (u_in, h_in)
        import chmc.integrators as integrators

        calls = []
        monkeypatch.setattr(integrators, "hamiltonian",
                            lambda *args: calls.append(hamiltonian(*args)) or calls[-1])
        t = QuarticGeneralizedGaussian(2)
        s = PhaseState([0.1, 0.2], [1.0, -1.0])
        rec = integrate(s, t)
        assert calls == [(rec.u_in, rec.h_in)]
        assert rec.h_out == t.evaluate(rec.q) + kinetic(rec.p)

    def test_composed_round_trip(self):
        # trajectory, flip, trajectory, flip returns to the start
        t = QuarticGeneralizedGaussian(3)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-12, max_fpi=200)
        rng = np.random.default_rng(36)
        z = PhaseState(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        scratch = StepScratch(t, cfg)
        fwd = trajectory(z, t, scratch, 5)
        back = trajectory(PhaseState(fwd.q, -fwd.p), t, scratch, 5)
        # R(back) = (back.q, -back.p)
        assert np.max(np.abs(back.q - z.q)) <= 1e-7
        assert np.max(np.abs(-back.p - z.p)) <= 1e-7

    def test_failed_step_propagates(self):
        class Nan(Potential):
            def evaluate(self, q):
                return math.nan

        t = Nan(1)
        rec = trajectory(PhaseState([0.1], [1.0]), t, StepScratch(t, DmmSolverConfig(tau=0.1)), 3)
        assert rec.h_out == math.inf


class TestPreconditioning:
    """A diagonal mass diag(m) is the identity mass on the rescaled target:
    the shipped trajectories in z = m^(1/2) q, mapped back, are diagonal-mass
    reference loops in q."""

    def case(self, seed, d):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.5, 2.0, d)
        return rng, m, np.sqrt(m), QuarticGeneralizedGaussian(d), RescaledQuartic(m)

    @staticmethod
    def assert_close(x, ref):
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_chmc_trajectory_is_the_diagonal_mass_loop(self):
        d = 40
        rng, m, root, t, rescaled = self.case(58, d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        scratch = StepScratch(rescaled, cfg)
        for _ in range(3):
            q, p = quartic_draws(rng, d), root * rng.standard_normal(d)  # p ~ N(0, M)
            q_ref, p_ref, updates = predictor_corrector_loop(PhaseState(q, p), t, cfg, 40, m)
            rec = trajectory(PhaseState(root * q, p / root), rescaled, scratch, 40)
            assert rec.all_converged and rec.total_fpi_iterations == updates
            self.assert_close(rec.q / root, q_ref)
            self.assert_close(rec.p * root, p_ref)

    def test_leapfrog_is_the_diagonal_mass_loop(self):
        d, tau = 40, 0.1
        rng, m, root, t, rescaled = self.case(59, d)
        q, p = quartic_draws(rng, d), root * rng.standard_normal(d)
        rec = leapfrog_trajectory(PhaseState(root * q, p / root), rescaled,
                                  tau, 25)
        for _ in range(25):
            p = p - 0.5 * tau * t.gradient(q)
            q = q + tau * p / m
            p = p - 0.5 * tau * t.gradient(q)
        self.assert_close(rec.q / root, q)
        self.assert_close(rec.p * root, p)

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_jacobian_factor_is_the_diagonal_mass_factor(self, kind):
        # det(I + c M^-1 dF/dq) / det(I + c M^-1 dF/dQ) and its trace
        # truncation: the rescaled target's diagonals are the quartic's over m
        d, tau = 12, 0.1
        rng, m, root, t, rescaled = self.case(60, d)
        c = 0.25 * tau * tau
        route = StepScratch(rescaled, DmmSolverConfig(tau=tau), JacobianMode(kind, "analytic"))
        for _ in range(10):
            q = rng.uniform(-2.0, 2.0, d)
            Q = q + rng.uniform(0.05, 1.0, d) * rng.choice([-1, 1], d)
            d_q, d_Q = t.closed_form_force_jacobian_diag(Q, q)
            if kind == "J1":
                expected = 1.0 + c * float(((d_q - d_Q) / m).sum())
            else:
                expected = float(np.prod((1.0 + c * d_q / m) / (1.0 + c * d_Q / m)))
            Z, z = root * Q, root * q
            sign, log_abs, _ = step_jacobian(Z, z, route.force(Z, z), route)
            assert sign * math.exp(log_abs) == pytest.approx(expected, rel=1e-12)


class TestDiscreteGradientEnergy:
    @pytest.mark.parametrize("case", ["quartic", "gaussian", "black-box-guarded",
                                      "rescaled-quartic"])
    def test_identity_matches_true_energy_change(self, case):
        # f . (Q - g) / 2 == H(Q, P) - H(q, p) at arbitrary iterates Q, not just
        # at the fixed point
        rng = np.random.default_rng(50)
        d, half, guard = 4, 0.05, 1e-8
        if case == "gaussian":
            a = rng.standard_normal((d, d))
            t = MultivariateGaussian(rng.standard_normal(d), a @ a.T + d * np.eye(d))
        elif case == "black-box-guarded":
            t = BlackBoxQuartic(d)
        elif case == "quartic":
            t = QuarticGeneralizedGaussian(d)
        else:
            t = RescaledQuartic(rng.uniform(0.5, 2.0, d))
        cfg = DmmSolverConfig(tau=2 * half, delta=1e-8, dd_guard=guard)
        scratch = StepScratch(t, cfg)
        for _ in range(50):
            q, p = rng.uniform(-1.5, 1.5, d), rng.uniform(-1.5, 1.5, d)
            Q = q + rng.uniform(0.05, 1.0, d) * rng.choice([-1, 1], d)
            if case == "black-box-guarded":
                Q[0] = q[0] + 0.3 * guard * max(1.0, abs(q[0]))
                assert abs(Q[0] - q[0]) < guard * max(1.0, abs(q[0]))
            f = scratch.force(Q, q)
            P = p - half * f
            g = q + half * (P + p)
            h_in = t.evaluate(q) + kinetic(p)
            true_dh = t.evaluate(Q) + kinetic(P) - h_in
            assert abs(0.5 * float(f @ (Q - g)) - true_dh) <= 1e-12 * (1.0 + abs(h_in))
        # the solve's reported error, chord or plain update alike
        rec = dmm_step(q, p, scratch)
        true_err = abs(t.evaluate(rec.q) + kinetic(rec.p) - h_in)
        assert abs(rec.energy_error - true_err) <= 1e-12 * (1.0 + abs(h_in))

    @pytest.mark.parametrize("mode", [JacobianMode("J0"), JacobianMode("J1"),
                                      JacobianMode("JFull")])
    def test_trajectory_evaluates_potential_twice(self, mode):
        # J0 and the finite-difference J1 / JFull factors: U only at the two ends
        rng = np.random.default_rng(51)
        d = 6
        updates = set()
        for delta, max_fpi in ((1e-8, 1), (1e-8, 10), (1e-14, 50)):
            cfg = DmmSolverConfig(tau=0.1, delta=delta, max_fpi=max_fpi)
            t = CountingQuartic(d)
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            rec = trajectory(s, t, StepScratch(t, cfg, mode), 12)
            assert t.calls["evaluate"] == 2
            updates.add(rec.total_fpi_iterations)
            t.calls["evaluate"] = 0
            dmm_step(s.q, s.p, StepScratch(t, cfg))
            assert t.calls["evaluate"] == 0
        assert len(updates) == 3

    def test_force_that_is_not_a_discrete_gradient_clears_all_converged(self, monkeypatch):
        steps = record_steps(monkeypatch)
        s = PhaseState([0.8, -1.1], [1.2, 0.5])
        cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=100)
        t = MidpointGradientQuartic(2)
        rec = trajectory(s, t, StepScratch(t, cfg), 40)
        assert [step.converged for *_, step in steps] == [True] * 40
        assert rec.h_out != math.inf
        assert abs(rec.h_out - rec.h_in) > 40 * cfg.delta
        assert not rec.all_converged
        # the discrete gradient of the same U passes the check
        steps.clear()
        t = QuarticGeneralizedGaussian(2)
        rec = trajectory(s, t, StepScratch(t, cfg), 40)
        assert [step.converged for *_, step in steps] == [True] * 40 and rec.all_converged


class TestOrderOfAccuracy:
    def exact_harmonic_flow(self, q0, p0, t):
        return (q0 * math.cos(t) + p0 * math.sin(t),
                -q0 * math.sin(t) + p0 * math.cos(t))

    def slope(self, taus, errors):
        return np.polyfit(np.log(taus), np.log(errors), 1)[0]

    def test_dmm_global_error_is_second_order(self):
        target = MultivariateGaussian([0.0], [[1.0]])
        q_exact, p_exact = self.exact_harmonic_flow(1.0, 0.4, 1.0)
        taus = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for tau in taus:
            cfg = DmmSolverConfig(tau=tau, delta=1e-14, max_fpi=500)
            scratch = StepScratch(target, cfg)
            rec = trajectory(PhaseState([1.0], [0.4]), target, scratch, int(round(1.0 / tau)))
            errors.append(np.hypot(rec.q[0] - q_exact, rec.p[0] - p_exact))
        assert 1.9 <= self.slope(taus, errors) <= 2.1

    def test_leapfrog_global_error_is_second_order(self):
        target = MultivariateGaussian([0.0], [[1.0]])
        q_exact, p_exact = self.exact_harmonic_flow(1.0, 0.4, 1.0)
        taus = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for tau in taus:
            state = PhaseState([1.0], [0.4])
            rec = leapfrog_trajectory(state, target, tau, int(round(1.0 / tau)))
            errors.append(np.hypot(rec.q[0] - q_exact, rec.p[0] - p_exact))
        assert 1.9 <= self.slope(taus, errors) <= 2.1

    def test_leapfrog_energy_error_is_second_order(self):
        target = MultivariateGaussian([0.0], [[1.0]])
        taus = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for tau in taus:
            rec = leapfrog_trajectory(PhaseState([1.0], [0.4]), target, tau, int(round(1.0 / tau)))
            errors.append(abs(rec.h_out - rec.h_in))
        assert 1.8 <= self.slope(taus, errors) <= 2.2


class RecordingTarget(Potential):
    """A target whose capabilities log every array they take or return.

    Each log entry is (array, copy made at the call). ``evaluate`` calls made
    inside ``divided_difference_force`` are left out, because that force
    rewrites its two substitution paths between them (see ``Potential``);
    ``record_divided_differences`` logs that force's own arguments and result.
    """

    def __init__(self, inner):
        super().__init__(inner.dim)
        self.inner = inner
        self.log = []
        self.inside_force = False
        for name in ("gradient", "closed_form_force", "closed_form_force_jacobian_diag",
                     "closed_form_force_jacobian"):
            fn = getattr(inner, name)
            if fn is not None:
                setattr(self, name, self.logged(fn))

    def note(self, arrays):
        self.log.extend((a, a.copy()) for a in arrays if isinstance(a, np.ndarray))

    def logged(self, fn):
        def call(*args):
            self.note(args)
            out = fn(*args)
            self.note(out if isinstance(out, tuple) else (out,))
            return out
        return call

    def evaluate(self, q):
        if not self.inside_force:
            self.note((q,))
        return self.inner.evaluate(q)


def record_divided_differences(monkeypatch, target):
    import chmc.integrators as integrators

    force = integrators.divided_difference_force

    def logged(Q, q, potential, guard=1e-8):
        target.note((Q, q))
        target.inside_force = True
        try:
            f, n = force(Q, q, potential, guard)
        finally:
            target.inside_force = False
        target.note((f,))
        return f, n

    monkeypatch.setattr(integrators, "divided_difference_force", logged)


def record_copies(rec):
    """(array, copy) for every array a step or trajectory record hands out."""
    arrays = (rec.q, rec.p, getattr(rec, "force", None), getattr(rec, "chord", None),
              getattr(rec, "kick_in", None), getattr(rec, "kick_out", None))
    return [(a, a.copy()) for a in arrays if a is not None]


def carried_leapfrog(state, target):
    """Two leapfrog trajectories, the second started from the first's end
    position with the end values it reported, as a chain after an accept."""
    first = leapfrog_trajectory(state, target, 0.1, 8)
    start = PhaseState(first.q, -first.p)
    return leapfrog_trajectory(start, target, 0.1, 8, u_in=first.u_out, kick_in=first.kick_out)


def chmc_run(kind, source):
    """Trajectories of one chain: every call runs on the ``StepScratch`` that
    the first call built for its target."""
    chain = []

    def run(state, target):
        if not chain:
            cfg = DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=10)
            chain.append(StepScratch(target, cfg, JacobianMode(kind, source)))
        return trajectory(state, target, chain[0], 8)
    return run


class TestArrayOwnership:
    """The loops write no array after handing it to a target capability, none
    a capability returns, none that a step or trajectory record holds, and
    neither array of their start state."""

    def check(self, monkeypatch, target, run):
        import chmc.integrators as integrators

        recording = RecordingTarget(target)
        record_divided_differences(monkeypatch, recording)
        kept = []
        step = integrators.dmm_step

        def kept_step(*args, **kwargs):
            rec = step(*args, **kwargs)
            kept.extend(record_copies(rec))
            return rec

        monkeypatch.setattr(integrators, "dmm_step", kept_step)
        rng = np.random.default_rng(54)
        d = target.dim
        # the second trajectory, on the same chain's scratch for chmc, must
        # leave every record of the first alone
        for _ in range(2):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            kept.extend([(s.q, s.q.copy()), (s.p, s.p.copy())])
            kept.extend(record_copies(run(s, recording)))
        assert recording.log and kept
        for array, copy in recording.log + kept:
            np.testing.assert_array_equal(array, copy)

    @pytest.mark.parametrize("source", ["finite-difference", "analytic"])
    @pytest.mark.parametrize("mode", ["J0", "J1", "JFull"])
    def test_chmc_trajectories(self, monkeypatch, mode, source):
        self.check(monkeypatch, QuarticGeneralizedGaussian(5), chmc_run(mode, source))

    def test_black_box_trajectory(self, monkeypatch):
        self.check(monkeypatch, BlackBoxQuartic(4), chmc_run("J0", "finite-difference"))

    def test_leapfrog_trajectory(self, monkeypatch):
        self.check(monkeypatch, QuarticGeneralizedGaussian(5),
                   lambda s, t: leapfrog_trajectory(s, t, 0.1, 8))

    def test_leapfrog_with_carried_kick(self, monkeypatch):
        self.check(monkeypatch, QuarticGeneralizedGaussian(5), carried_leapfrog)


class PassTally:
    """Array passes made on the ndarray views that ``view`` returns.

    Every ufunc call on such a view with an operand of more than one element
    (a reduction such as ``.sum()`` or ``.all()`` included) counts once,
    under ``target`` inside a call wrapped by ``as_target`` and under
    ``solver`` otherwise, and is then forwarded on plain arrays; its array
    results, ``out=`` targets included, come back as counted views.
    Arithmetic on plain arrays alone escapes it, so the counts are lower
    bounds.
    """

    def __init__(self):
        self.target = self.solver = 0
        self.in_target = False
        tally = self

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if any(np.size(a) > 1 for a in inputs + (out or ())):
                    if tally.in_target:
                        tally.target += 1
                    else:
                        tally.solver += 1
                plain = tuple(a.view(np.ndarray) if isinstance(a, Counted) else a
                              for a in inputs)
                if out is not None:
                    kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, Counted) else a
                                          for a in out)
                result = getattr(ufunc, method)(*plain, **kwargs)
                if isinstance(result, tuple):
                    return tuple(tally.view(r) if isinstance(r, np.ndarray) else r
                                 for r in result)
                return tally.view(result) if isinstance(result, np.ndarray) else result

        self.counted = Counted

    def view(self, a):
        return a.view(self.counted)

    def as_target(self, fn):
        def call(*args):
            self.in_target = True
            try:
                return fn(*args)
            finally:
                self.in_target = False
        return call


class TestArrayPasses:
    """Array passes per trajectory, a count that repeats exactly where time does not."""

    def count(self, integrate, d=2560):
        """(record, tally) of ``integrate(state, target, scratch)``, one quartic
        trajectory at dimension d from an exact draw, with the state, the
        work rows of ``scratch(target, cfg)`` and the target's calls counted."""
        tally = PassTally()

        def scratch(target, cfg):
            s = StepScratch(target, cfg)
            s.a, s.g, s.r, s.t = map(tally.view, (s.a, s.g, s.r, s.t))
            return s

        rng = np.random.default_rng(57)
        s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
        object.__setattr__(s, "q", tally.view(s.q))
        object.__setattr__(s, "p", tally.view(s.p))
        t = QuarticGeneralizedGaussian(d)
        for name in ("evaluate", "gradient", "closed_form_force",
                     "closed_form_force_jacobian_diag"):
            setattr(t, name, tally.as_target(getattr(t, name)))
        return integrate(s, t, scratch), tally

    def test_passes_per_step_at_d2560(self):
        # the separation config's setting. With the momentum extrapolation
        # q + (tau/2) (3p - p_prev) as its predictor the J0 solver made
        # 1170 passes (29.25 per step) for the same 910 target passes and 44
        # updates; the carried force saves two passes per step
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=5)
        rec, j0 = self.count(lambda s, t, scratch: trajectory(s, t, scratch(t, cfg), 40))
        assert rec.total_fpi_iterations == 44
        assert (j0.target, j0.solver) == (910, 1090)
        assert j0.solver < 1170
        _, leapfrog = self.count(lambda s, t, _: leapfrog_trajectory(s, t, 0.1, 40))
        # 207 with the two half-kicks of a kick-drift-kick loop in every step
        assert (leapfrog.target, leapfrog.solver) == (129, 132)

    def test_own_calls_per_step_at_d40(self):
        # the table config's dimension, where a step's time is the dispatch of
        # its calls: a leapfrog step makes 3 of its own (drift, tau^2 grad U,
        # kick) and 3 in its gradient, a J0 step 26.55 of its own for 1.05
        # updates
        counts = {}
        for n in (40, 41):
            _, tally = self.count(lambda s, t, _: leapfrog_trajectory(s, t, 0.1, n), d=40)
            counts[n] = (tally.target, tally.solver)
        assert counts[40] == (129, 132)
        assert counts[41] == (132, 135)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=10)
        rec, j0 = self.count(lambda s, t, scratch: trajectory(s, t, scratch(t, cfg), 40), d=40)
        assert rec.total_fpi_iterations == 42
        assert (j0.target, j0.solver) == (898, 1062)


class PoisonedForce(Potential):
    """F = Q + q, except component 1, which is ``value``."""

    def __init__(self, dim, value):
        super().__init__(dim)
        self.value = value

    def evaluate(self, q):
        return 0.5 * float(q @ q)

    def closed_form_force(self, Q, q):
        f = Q + q
        f[1] = self.value
        return f


class SeparablePoisonedForce(PoisonedForce):
    def closed_form_force_jacobian_diag(self, Q, q):
        return np.ones(self.dim), np.ones(self.dim)


class ConstantForce(Potential):
    """F = -1e308 in every component, declared separable with zero diagonals when asked."""

    def __init__(self, dim, separable):
        super().__init__(dim)
        if separable:
            self.closed_form_force_jacobian_diag = lambda Q, q: (np.zeros(dim), np.zeros(dim))

    def evaluate(self, q):
        return -1e308 * float(q.sum())

    def closed_form_force(self, Q, q):
        return np.full(Q.shape, -1e308)


class InjectedDiagonals(Potential):
    """F = a (Q + q); the Jacobian-diagonal call returns the given (dF/dq, dF/dQ)."""

    def __init__(self, a, d_q, d_Q):
        super().__init__(len(a))
        self.a, self.d_q, self.d_Q = a, d_q, d_Q

    def evaluate(self, q):
        return 0.5 * float(self.a @ (q * q))

    def closed_form_force(self, Q, q):
        return self.a * (Q + q)

    def closed_form_force_jacobian_diag(self, Q, q):
        return self.d_q.copy(), self.d_Q.copy()


class TestStepChecks:
    """The step's finiteness and chord-validity checks decide as they always have."""

    @pytest.mark.parametrize("target_cls", [PoisonedForce, SeparablePoisonedForce])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_force_component_fails_the_step(self, value, target_cls):
        q, p = np.array([0.3, -0.2, 0.5]), np.array([1.0, 0.4, -0.7])
        with np.errstate(invalid="ignore", over="ignore"):
            rec, forces = counted_step(q, p, target_cls(3, value), DmmSolverConfig(tau=0.1))
        assert rec.q is q and rec.p is p
        assert rec.energy_error == math.inf and not rec.converged
        assert (rec.fpi_iterations, forces) == (1, 2)
        assert rec.force is None and rec.chord is None

    @pytest.mark.parametrize("separable", [False, True])
    def test_momentum_overflow_fails_the_step(self, separable):
        # tau = 0.5 from (0, 1.7e308): the first update lands on the fixed
        # point g = 0.85e308 + 0.0625e308 with zero energy error, but
        # P = 1.7e308 + 0.25e308 overflows
        q, p = np.zeros(2), np.full(2, 1.7e308)
        with np.errstate(over="ignore"):
            rec, forces = counted_step(q, p, ConstantForce(2, separable),
                                       DmmSolverConfig(tau=0.5))
        assert rec.q is q and rec.p is p
        assert rec.energy_error == math.inf and not rec.converged
        assert (rec.fpi_iterations, forces) == (1, 2)

    @pytest.mark.parametrize("row, value, chord_used, chord_kept", [
        (None, None, True, True),
        ("D", -1.0, False, False),  # D_1 = 0
        ("D", -3.0, False, False),  # D_1 = -2
        ("D", math.nan, False, False),
        ("D", math.inf, False, False),
        ("D_next", 1.0 + 2.0 * 1.5, True, False),  # D_next_1 = 0
        ("D_next", 3.0 + 2.0 * 1.5, True, False),  # D_next_1 = -2
        ("D_next", math.nan, True, False),
        ("D_next", -math.inf, True, False),  # D_next_1 = +inf
    ])
    def test_bad_chord_entry_decides(self, row, value, chord_used, chord_kept):
        # tau = 2, M = I: D = 1 + dF/dQ and D_next = 1 + (2 dF/dQ - dF/dq).
        # The bad value enters dF/dQ (spoiling D, and with it D_next) or only
        # dF/dq (spoiling D_next alone); one update shows the chord decision
        a = np.array([0.5, 1.5, 2.5])
        d_q, d_Q = a.copy(), a.copy()
        if row == "D":
            d_Q[1] = value
        elif row == "D_next":
            d_q[1] = value
        t = InjectedDiagonals(a, d_q, d_Q)
        q, p = np.array([0.3, -0.2, 0.5]), np.array([0.1, 0.4, -0.2])
        with np.errstate(invalid="ignore"):
            rec = dmm_step(q, p, StepScratch(t, DmmSolverConfig(tau=2.0, max_fpi=1)))
        Q0 = q + 2.0 * p
        g0 = Q0 - t.closed_form_force(Q0, q)
        with np.errstate(invalid="ignore"):
            D, D_next = 1.0 + d_Q, 1.0 + (2.0 * d_Q - d_q)
        np.testing.assert_array_equal(rec.q, Q0 + (g0 - Q0) / D if chord_used else g0)
        if chord_kept:
            np.testing.assert_array_equal(rec.chord, D_next)
        else:
            assert rec.chord is None


class TestRoundingFloor:
    def test_delta_below_the_floor_converges_at_d2560(self, monkeypatch):
        # delta = 1e-14 lies below the rounding floor of f . r at d = 2560.
        # Without the floor the first of these trajectories has a step that
        # runs to the cap of 50 updates and reports all_converged False
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(55)
        d = 2560
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-14, max_fpi=50)
        scratch = StepScratch(t, cfg)
        for _ in range(3):
            s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
            assert trajectory(s, t, scratch, 40).all_converged
        assert len(steps) == 120
        assert all(step.converged for *_, step in steps)
        assert max(step.fpi_iterations for *_, step in steps) < cfg.max_fpi
        assert any(step.tolerance > cfg.delta for *_, step in steps)

    def test_floor_below_delta_keeps_trajectories_near_the_energy_surface(self):
        # rounding errors of the d products in f . r add like independent
        # draws, so the floor is a 2-norm; a floor from their absolute sum,
        # which grows as d, let these trajectories end up to 1.8e-11 away
        d = 2560
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-14, max_fpi=50)
        scratch, errors = StepScratch(t, cfg), []
        for seed in (1, 2, 3, 55):
            rng = np.random.default_rng(seed)
            for _ in range(3):
                s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
                rec = trajectory(s, t, scratch, 40)
                assert rec.all_converged
                errors.append(abs(rec.h_out - rec.h_in))
        assert max(errors) <= 1e-11

    def test_floor_has_no_overflow_far_from_the_mode(self):
        # from q = 1e30 the products f_i (|Q_i| + |g_i|) are near 1e180 and
        # their squares overflow, yet the error 3.2e179 is finite: the floor
        # must stay finite so that the step does not pass as converged
        d = 4
        t = QuarticGeneralizedGaussian(d)
        rec = dmm_step(np.full(d, 1e30), np.ones(d),
                       StepScratch(t, DmmSolverConfig(tau=0.1, max_fpi=3)))
        assert math.isfinite(rec.energy_error)
        assert not rec.converged and rec.tolerance < rec.energy_error

    def test_floor_is_unused_at_working_tolerance(self, monkeypatch):
        # at delta = 1e-8 every step meets delta itself, so each step's
        # tolerance is delta and the end check is N delta plus a few ulps
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(56)
        d = 2560
        t = QuarticGeneralizedGaussian(d)
        cfg = DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=5)
        s = PhaseState(quartic_draws(rng, d), rng.standard_normal(d))
        assert trajectory(s, t, StepScratch(t, cfg), 40).all_converged
        assert [step.tolerance for *_, step in steps] == [cfg.delta] * 40


class TestNorm:
    """The rounding floor's 2-norm of a non-negative vector; it scales its argument in place."""

    def test_zero_and_infinite_vectors_return_their_largest_entry(self):
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([1.0, math.inf, 2.0])) == math.inf

    def test_no_square_overflows_where_the_norm_is_finite(self):
        w = np.array([3e200, 4e200])
        with np.errstate(over="ignore"):
            assert np.linalg.norm(w.copy()) == math.inf
        assert _norm(w.copy()) == pytest.approx(5e200, rel=1e-15)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DmmSolverConfig(tau=-0.1)
        with pytest.raises(ValueError):
            DmmSolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            DmmSolverConfig(tau=0.1, delta=0.0)
        with pytest.raises(ValueError):
            DmmSolverConfig(tau=0.1, max_fpi=0)
        with pytest.raises(ValueError):
            DmmSolverConfig(tau=0.1, dd_guard=-1e-8)
        # an infinite delta passes every step, an infinite guard fails every
        # black-box step: both are refused as an infinite tau is
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            DmmSolverConfig(tau=math.inf)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            DmmSolverConfig(tau=0.1, delta=math.inf)
        with pytest.raises(ValueError, match="dd_guard must be finite and positive"):
            DmmSolverConfig(tau=0.1, dd_guard=math.inf)

    @pytest.mark.parametrize("name", ["tau", "delta", "dd_guard"])
    @pytest.mark.parametrize("bad", ["0.1", None, True, np.bool_(True)],
                             ids=["str", "none", "bool", "numpy-bool"])
    def test_knobs_must_be_real_numbers(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            DmmSolverConfig(**{"tau": 0.1, name: bad})

    def test_numpy_knobs_pass(self):
        cfg = DmmSolverConfig(tau=np.float64(0.1), delta=np.float32(1e-6), dd_guard=np.int64(1))
        assert (cfg.tau, cfg.delta, cfg.dd_guard) == (0.1, np.float32(1e-6), 1)

    def test_max_fpi_must_be_an_integer(self):
        # 2.5 would run 3 updates, True 1
        for bad in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="max_fpi must be an integer"):
                DmmSolverConfig(tau=0.1, max_fpi=bad)
        with pytest.raises(ValueError, match="max_fpi must be >= 1, got 0"):
            DmmSolverConfig(tau=0.1, max_fpi=np.int64(0))
        assert DmmSolverConfig(tau=0.1, max_fpi=np.int64(3)).max_fpi == 3
