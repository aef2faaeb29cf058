import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from chmc import (
    DmmSolverConfig,
    JacobianMode,
    MassMatrix,
    Potential,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    run_chain,
)
from chmc import samplers
from chmc.integrators import trajectory
from chmc.phase import PhaseState
from chmc.samplers import (
    StateCache,
    acceptance_probability,
    chain_rng,
    chmc_iteration,
    hmc_iteration,
    initial_position,
)
from support import BoxedQuartic, CountingQuartic, MultivariateGaussian, RescaledQuartic


class TestAcceptanceProbability:
    def test_identity_proposal(self):
        assert acceptance_probability(0.0, 1.0, 0.0) == 1.0

    def test_log_two(self):
        assert acceptance_probability(math.log(2.0), 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_jacobian_scales(self):
        assert acceptance_probability(0.0, 1.0, math.log(0.97)) == pytest.approx(0.97, rel=1e-12)

    def test_capped_at_one(self):
        assert acceptance_probability(-10.0, 1.0, math.log(0.5)) == 1.0

    def test_nonpositive_jacobian_rejects(self):
        assert acceptance_probability(0.0, 0.0, -math.inf) == 0.0
        assert acceptance_probability(-5.0, -1.0, math.log(0.3)) == 0.0

    def test_infinite_energy_rejects(self):
        assert acceptance_probability(math.inf, 1.0, 0.0) == 0.0

    def test_no_overflow_for_large_negative(self):
        assert acceptance_probability(-1e6, 1.0, 0.0) == 1.0

    def test_determinant_outside_the_float_range_counts(self):
        # |J| = e^-800 reads 0 as a float, yet dH = -900 makes up for it
        assert acceptance_probability(-900.0, 1.0, -800.0) == 1.0
        assert acceptance_probability(-800.0, 1.0, -800.0 + math.log(0.25)) == pytest.approx(
            0.25, rel=1e-12)
        assert acceptance_probability(900.0, 1.0, 800.0) == pytest.approx(math.exp(-100.0))

    def test_always_in_unit_interval(self):
        # 201 points on each axis: both bounds, the signed zeros and the
        # smallest subnormals of either sign among them
        def grid(bound):
            return np.concatenate([np.linspace(-bound, bound, 197),
                                   [0.0, -0.0, 5e-324, -5e-324]]).tolist()

        for dh in grid(700.0):
            for sign in (-1.0, 0.0, 1.0):
                for log_abs in grid(1e4):
                    alpha = acceptance_probability(dh, sign, log_abs)
                    assert 0.0 <= alpha <= 1.0, (dh, sign, log_abs)
                    assert sign > 0.0 or alpha == 0.0, (dh, sign, log_abs)


def quartic_cfg(**kw):
    defaults = dict(method="chmc", tau=0.1, total_time=4.0, iterations=50, seed=1)
    defaults.update(kw)
    return SamplerConfig(**defaults)


class BufferQuartic(QuarticGeneralizedGaussian):
    """Quartic whose gradient writes one reused output buffer on every call."""

    def __init__(self, dim):
        super().__init__(dim)
        self.buf = np.empty(dim)

    def gradient(self, q):
        np.multiply(q, q, self.buf)
        return np.multiply(np.multiply(self.buf, 4.0, self.buf), q, self.buf)


class TestSamplerConfig:
    def test_non_integral_steps_rejected(self):
        with pytest.raises(ValueError, match="n_steps not integral"):
            SamplerConfig(method="chmc", tau=0.1, total_time=3.95, iterations=10)
        # a ratio that rounds to 0 steps is refused too: the trajectories
        # take n_steps >= 1 on trust
        with pytest.raises(ValueError, match="n_steps not integral"):
            SamplerConfig(method="chmc", tau=0.1, total_time=1e-12, iterations=10)

    @pytest.mark.parametrize("field, message", [
        ({"method": "nuts"}, "method must be one of"),
        ({"total_time": 0.0}, "total_time must be finite and positive"),
        ({"total_time": -4.0}, "total_time must be finite and positive"),
        ({"initial_state_mode": "prior"}, "initial_state_mode must be one of"),
    ], ids=["method", "zero-time", "negative-time", "initial-state-mode"])
    def test_unknown_choice_or_non_positive_time_refused(self, field, message):
        with pytest.raises(ValueError, match=message):
            quartic_cfg(**field)

    @pytest.mark.parametrize("field", [
        {"tau": "0.1"}, {"tau": None}, {"tau": True}, {"tau": np.bool_(True)},
        {"total_time": True},
    ], ids=["str", "none", "bool", "numpy-bool", "bool-time"])
    def test_times_must_be_real_numbers(self, field):
        # refused with the check's own message, not a TypeError from its
        # comparison, and a bool is not taken as 1.0
        name = next(iter(field))
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            quartic_cfg(**field)

    def test_numpy_times_pass(self):
        assert quartic_cfg(tau=np.float64(0.1), total_time=np.int64(4)).n_steps == 40
        assert quartic_cfg(tau=np.float32(0.5), total_time=np.float32(4.0)).n_steps == 8

    def test_n_steps_value(self):
        assert quartic_cfg().n_steps == 40

    def test_burn_in_bounds(self):
        with pytest.raises(ValueError):
            quartic_cfg(iterations=5, burn_in=5)
        with pytest.raises(ValueError):
            quartic_cfg(burn_in=-1)

    def test_counts_must_be_integers(self):
        # refused at construction, not in run_chain's range() or a burn-in comparison
        for name, bad in (("iterations", 10.0), ("iterations", True),
                          ("burn_in", 2.5), ("burn_in", False)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                quartic_cfg(**{name: bad})
        with pytest.raises(ValueError, match=r"need iterations > burn_in >= 0"):
            quartic_cfg(iterations=np.int64(5), burn_in=np.int64(5))

    def test_numpy_integer_counts_run(self):
        cfg = quartic_cfg(method="hmc-leapfrog", iterations=np.int64(4), burn_in=np.int32(1))
        seen = []
        run_chain(cfg, QuarticGeneralizedGaussian(2), MassMatrix.identity(2),
                  sinks=[lambda i, o, th: seen.append(th is not None)])
        assert seen == [False, True, True, True]

    def test_solver_tau_must_match(self):
        with pytest.raises(ValueError):
            quartic_cfg(solver=DmmSolverConfig(tau=0.2))

    def test_chmc_defaults_filled(self):
        cfg = quartic_cfg()
        assert cfg.solver.tau == 0.1
        assert cfg.jacobian_mode.kind == "J0"

    @pytest.mark.parametrize("field", [
        {"solver": DmmSolverConfig(tau=5.0)},
        {"jacobian_mode": JacobianMode("J1")},
    ])
    def test_chmc_only_fields_refused_for_leapfrog(self, field):
        with pytest.raises(ValueError, match="only apply to chmc"):
            quartic_cfg(method="hmc-leapfrog", **field)

    def test_initial_state_needs_explicit_mode(self):
        with pytest.raises(ValueError, match="initial_state"):
            quartic_cfg(initial_state=np.zeros(2))
        with pytest.raises(ValueError, match="initial_state"):
            quartic_cfg(initial_state_mode="explicit")

    def test_seed_must_be_a_non_negative_integer(self):
        # refused at construction, not in chain_rng's SeedSequence; True is
        # not seed 1
        for bad, message in ((2.5, "seed must be an integer"), (True, "seed must be an integer"),
                             (-1, "seed must be >= 0")):
            with pytest.raises(ValueError, match=message):
                quartic_cfg(seed=bad)
        seen = []
        run_chain(quartic_cfg(method="hmc-leapfrog", iterations=2, seed=np.int64(3)),
                  QuarticGeneralizedGaussian(2), MassMatrix.identity(2),
                  sinks=[lambda i, o, th: seen.append(th.tobytes())])
        same = []
        run_chain(quartic_cfg(method="hmc-leapfrog", iterations=2, seed=3),
                  QuarticGeneralizedGaussian(2), MassMatrix.identity(2),
                  sinks=[lambda i, o, th: same.append(th.tobytes())])
        assert seen == same

    def test_explicit_initial_state_must_be_a_finite_vector(self):
        # refused at construction, not at the first iteration's PhaseState
        for bad in ([math.nan, 0.0], [0.0, math.inf], np.zeros((2, 2)), []):
            with pytest.raises(ValueError, match="initial_state must be a finite vector"):
                quartic_cfg(initial_state_mode="explicit", initial_state=bad)
        start = [0.5, -0.2]
        cfg = quartic_cfg(initial_state_mode="explicit", initial_state=start)
        start[0] = 9.0
        assert not cfg.initial_state.flags.writeable
        np.testing.assert_array_equal(cfg.initial_state, [0.5, -0.2])


class TestChmcIteration:
    def test_near_identity_limit(self):
        # one tiny step: the proposal is essentially theta and alpha near one
        t = QuarticGeneralizedGaussian(3)
        cfg = SamplerConfig(method="chmc", tau=1e-6, total_time=1e-6, iterations=2, seed=9)
        rng = chain_rng(9, 0)
        theta = np.array([0.3, -0.8, 0.5])
        new_theta, out = chmc_iteration(theta, t, cfg, rng, StateCache())
        assert out.alpha >= 1.0 - 1e-6
        assert out.accepted
        np.testing.assert_allclose(new_theta, theta, atol=1e-5)

    def test_gaussian_jfull_matches_energy_only_rule(self):
        # volume-preserving case: the Jacobian product is 1, so alpha is the
        # plain energy rule
        t = MultivariateGaussian(np.zeros(2), np.array([[1.0, 0.4], [0.4, 2.0]]))
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=2.0, iterations=5, seed=4,
                            jacobian_mode=JacobianMode("JFull", "analytic"))
        rng = chain_rng(4, 0)
        theta, cache = np.array([0.5, 0.5]), StateCache()
        for _ in range(5):
            theta, out = chmc_iteration(theta, t, cfg, rng, cache)
            assert out.jacobian_product == pytest.approx(1.0, abs=1e-12)
            assert out.alpha == pytest.approx(
                acceptance_probability(out.delta_H, 1.0, 0.0), rel=1e-12)

    def test_failure_rejects_with_zero_alpha(self):
        class Nan(Potential):
            def evaluate(self, q):
                return math.nan

        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=1.0, iterations=2, seed=2)
        rng = chain_rng(2, 0)
        theta = np.array([0.5])
        new_theta, out = chmc_iteration(theta, Nan(1), cfg, rng, StateCache())
        assert not out.accepted and out.alpha == 0.0
        assert new_theta is theta

    def test_infinite_final_energy_rejects(self):
        # U = inf outside the box, closed-form force finite everywhere: the
        # steps converge and only the trajectory's final H is infinite
        t = BoxedQuartic(1)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=0.3, iterations=2, seed=0)
        theta = np.array([0.9])
        p0 = chain_rng(0, 0).standard_normal(1)
        rec = trajectory(PhaseState(theta, p0), t, cfg.solver, cfg.n_steps)
        assert rec.h_out == math.inf and not rec.all_converged
        assert abs(rec.q[0]) > 1.0 and np.isfinite(rec.p).all()
        new_theta, out = chmc_iteration(theta, t, cfg, chain_rng(0, 0), StateCache())
        assert not out.accepted and out.alpha == 0.0 and out.delta_H == math.inf
        assert new_theta is theta

    def test_acceptance_lower_bound_every_iteration(self):
        # alpha >= min(1, exp(-N delta) J^N) whenever every step converged
        t = QuarticGeneralizedGaussian(4)
        for mode in (JacobianMode("J0"), JacobianMode("J1", "analytic"),
                     JacobianMode("JFull", "analytic")):
            cfg = SamplerConfig(method="chmc", tau=0.1, total_time=4.0, iterations=100,
                                seed=13, jacobian_mode=mode,
                                solver=DmmSolverConfig(tau=0.1, delta=1e-8, max_fpi=25))
            rng = chain_rng(13, 0)
            theta, cache = rng.standard_normal(4), StateCache()
            n_delta = cfg.n_steps * cfg.solver.delta
            for _ in range(cfg.iterations):
                theta, out = chmc_iteration(theta, t, cfg, rng, cache)
                if out.all_steps_converged:
                    bound = min(1.0, math.exp(-n_delta) * out.jacobian_product)
                    assert out.alpha + 1e-14 >= bound

    @pytest.mark.xfail(strict=True, reason="known defect 3: an unconverged trajectory "
                       "enters the acceptance ratio through its true energy error")
    def test_unconverged_trajectory_never_accepted(self):
        # from a far start one update per step converges no trajectory: every
        # iteration is unconverged, and a step that fails its check must reject
        start = 2.0 * np.random.default_rng(1).standard_normal(8)
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=4.0, iterations=20, seed=3,
                            solver=DmmSolverConfig(tau=0.1, max_fpi=1),
                            initial_state_mode="explicit", initial_state=start)
        seen = []
        run_chain(cfg, QuarticGeneralizedGaussian(8), MassMatrix.identity(8),
                  sinks=[lambda i, o, th: seen.append(o)])
        assert [o for o in seen if o.accepted and not o.all_steps_converged] == []

    @pytest.mark.xfail(strict=True, reason="the frozen chord misses delta within max_fpi "
                       "from a standard-normal start at d = 2560 (ROADMAP direction 15)")
    def test_standard_normal_start_converges_at_d2560(self):
        # 4 chains x 20 J0 iterations at the separation config's solver settings
        cfg = SamplerConfig(method="chmc", tau=0.1, total_time=4.0, iterations=20,
                            seed=20240811, solver=DmmSolverConfig(tau=0.1, max_fpi=5))
        seen = []
        for chain in range(4):
            run_chain(cfg, QuarticGeneralizedGaussian(2560), MassMatrix.identity(2560),
                      sinks=[lambda i, o, th: seen.append(o)], chain_index=chain)
        assert [o for o in seen if not o.all_steps_converged] == []


class TestHmcIteration:
    def test_constant_potential_always_accepts(self):
        class Flat(Potential):
            def evaluate(self, q):
                return 2.5

            def gradient(self, q):
                return np.zeros_like(q)

        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=4.0,
                            iterations=5, seed=3)
        rng = chain_rng(3, 0)
        theta, cache = np.array([1.0, -1.0]), StateCache()
        for _ in range(5):
            theta, out = hmc_iteration(theta, Flat(2), cfg, rng, cache)
            assert out.delta_H == 0.0
            assert out.alpha == 1.0 and out.accepted

    def test_force_evals_are_n_steps_plus_one(self):
        t = QuarticGeneralizedGaussian(2)
        cfg = SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=4.0,
                            iterations=3, seed=5)
        rng = chain_rng(5, 0)
        theta = np.zeros(2)
        theta, out = hmc_iteration(theta, t, cfg, rng, StateCache())
        assert out.force_evals == cfg.n_steps + 1


def cached_chain(cfg, target, mass):
    """run_chain's (theta, accepted, delta_H, alpha, outcome) per iteration."""
    seen = []
    run_chain(cfg, target, mass,
              sinks=[lambda i, o, th: seen.append((th.copy(), o.accepted, o.delta_H, o.alpha, o))])
    return seen


def reference_chain(cfg, target):
    """The chain of run_chain, with every iteration evaluating U and the first
    half-kick at theta afresh (an empty cache each time)."""
    rng = chain_rng(cfg.seed, 0)
    iterate = chmc_iteration if cfg.method == "chmc" else hmc_iteration
    theta = initial_position(cfg, target.dim, rng)
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.iterations):
            theta, o = iterate(theta, target, cfg, rng, StateCache())
            seen.append((theta.copy(), o.accepted, o.delta_H, o.alpha, o))
    return seen


def assert_same_chain(cached, reference):
    assert len(cached) == len(reference)
    for (th, acc, dh, alpha, _), (th_r, acc_r, dh_r, alpha_r, _) in zip(cached, reference):
        np.testing.assert_array_equal(th, th_r)
        assert (acc, dh, alpha) == (acc_r, dh_r, alpha_r)


CHAINS = {
    "leapfrog": dict(method="hmc-leapfrog"),
    "chmc-J0": dict(),
    "chmc-J1": dict(jacobian_mode=JacobianMode("J1")),
    "chmc-JFull": dict(jacobian_mode=JacobianMode("JFull")),
}


def chain_setup(name, target_cls=QuarticGeneralizedGaussian, d=3, **kw):
    cfg = SamplerConfig(**{**dict(method="chmc", tau=0.1, total_time=1.0, iterations=30,
                                  seed=8), **CHAINS[name], **kw})
    return cfg, target_cls(d), MassMatrix.identity(d)


class TestStateCache:
    """run_chain carries U and leapfrog's first half-kick at theta: fewer target
    calls, the same chain as recomputing both every iteration."""

    def test_iterations_require_the_cache(self):
        # run_chain always passes one; a fresh StateCache recomputes both values
        for iterate in (chmc_iteration, hmc_iteration, samplers._accept_reject):
            cache = inspect.signature(iterate).parameters["cache"]
            assert cache.default is inspect.Parameter.empty

    @pytest.mark.parametrize("name", list(CHAINS))
    def test_same_chain_as_recomputing(self, name):
        cfg, t, mass = chain_setup(name)
        assert_same_chain(cached_chain(cfg, t, mass), reference_chain(cfg, t))

    @pytest.mark.parametrize("name", ["leapfrog", "chmc-J1"])
    def test_same_chain_on_a_rescaled_target(self, name):
        # the diagonal-mass chain of the recipe: an anisotropic target
        cfg, _, mass = chain_setup(name)
        t = RescaledQuartic(np.linspace(0.5, 2.0, 3))
        assert_same_chain(cached_chain(cfg, t, mass), reference_chain(cfg, t))

    @pytest.mark.parametrize("name", ["leapfrog", "chmc-J1"])
    def test_same_chain_with_rejections(self, name):
        cfg, t, mass = chain_setup(name, tau=0.5, total_time=2.0, iterations=60)
        cached = cached_chain(cfg, t, mass)
        assert 0 < sum(acc for _, acc, *_ in cached) < cfg.iterations
        assert_same_chain(cached, reference_chain(cfg, t))

    @pytest.mark.parametrize("name", ["leapfrog", "chmc-J0", "chmc-JFull"])
    def test_failed_trajectory_leaves_the_cache(self, name):
        # from 0.9, trajectories that leave the box fail; the chain goes on
        # from the cached values at theta
        cfg, t, mass = chain_setup(name, BoxedQuartic, d=1, tau=0.1, total_time=0.3,
                                   iterations=40, seed=0, initial_state_mode="explicit",
                                   initial_state=np.array([0.9]))
        cached = cached_chain(cfg, t, mass)
        failed = [dh == math.inf for _, _, dh, *_ in cached]
        assert failed[0] and not all(failed)
        assert_same_chain(cached, reference_chain(cfg, t))

    @pytest.mark.parametrize("name", list(CHAINS))
    def test_target_call_counts(self, name):
        # n iterations of N steps: U once per iteration plus once at the
        # start; leapfrog N gradient calls per iteration plus the first kick;
        # forces, Jacobian diagonals and probes as when recomputing
        cfg, t, mass = chain_setup(name, CountingQuartic, tau=0.5, total_time=2.0,
                                   iterations=20)
        n, n_steps = cfg.iterations, cfg.n_steps
        cached = [o for *_, o in cached_chain(cfg, t, mass)]
        calls, t.calls = t.calls, dict.fromkeys(t.calls, 0)
        reference = [o for *_, o in reference_chain(cfg, t)]
        assert calls["evaluate"] == n + 1
        assert t.calls["evaluate"] == 2 * n
        if cfg.method == "hmc-leapfrog":
            assert calls["gradient"] == n * n_steps + 1
            assert [o.force_evals for o in cached] == [n_steps + 1] + [n_steps] * (n - 1)
        else:
            assert calls["gradient"] == 0
            assert [o.force_evals for o in cached] == [o.force_evals for o in reference]
        for key in ("force", "jacobian_diag"):
            assert calls[key] == t.calls[key]
        assert ([o.jacobian_force_evals for o in cached]
                == [o.jacobian_force_evals for o in reference])

    def test_reused_gradient_buffer_gives_the_same_chain(self):
        # the cached kick is the integrator's own array, never the one the
        # gradient returned and rewrites on its next call
        cfg, t, mass = chain_setup("leapfrog", tau=0.5, total_time=2.0,
                                   iterations=60)
        assert_same_chain(cached_chain(cfg, BufferQuartic(3), mass),
                          cached_chain(cfg, t, mass))


class TestRunChain:
    def test_determinism_same_seed(self):
        t = QuarticGeneralizedGaussian(3)
        mass = MassMatrix.identity(3)
        cfg = quartic_cfg(iterations=40, seed=77)
        flags = []
        for _ in range(2):
            seen = []
            run_chain(cfg, t, mass, sinks=[lambda i, o, th: seen.append(o.accepted)])
            flags.append(seen)
        assert flags[0] == flags[1]

    def test_different_chain_index_different_stream(self):
        t = QuarticGeneralizedGaussian(3)
        mass = MassMatrix.identity(3)
        cfg = quartic_cfg(iterations=30, seed=77, method="hmc-leapfrog")
        deltas = []
        for chain in (0, 1):
            seen = []
            run_chain(cfg, t, mass, sinks=[lambda i, o, th: seen.append(o.delta_H)],
                      chain_index=chain)
            deltas.append(seen)
        assert deltas[0] != deltas[1]

    def test_iterations_equal_burn_in_plus_one(self):
        # boundary: a single retained sample, counters fully populated
        t = QuarticGeneralizedGaussian(2)
        cfg = quartic_cfg(iterations=11, burn_in=10)
        iterations, retained = [], []

        def sink(i, o, th):
            iterations.append(i)
            if th is not None:
                retained.append(th)

        run_chain(cfg, t, MassMatrix.identity(2), sinks=[sink])
        assert iterations == list(range(11))
        assert len(retained) == 1

    def test_zeros_initial_state_is_deterministic_start(self):
        t = QuarticGeneralizedGaussian(2)
        mass = MassMatrix.identity(2)
        cfg = quartic_cfg(iterations=1, initial_state_mode="explicit",
                          initial_state=np.zeros(2), method="hmc-leapfrog")
        outs = []
        run_chain(cfg, t, mass, sinks=[lambda i, o, th: outs.append(o.delta_H)])
        # from the origin the first trajectory is identical across chains with
        # identical momenta, so just assert it ran and produced a finite dH
        assert len(outs) == 1 and math.isfinite(outs[0])

    def test_mass_dimension_checked_before_the_first_draw(self):
        # the mass is read here alone, so a wrong one fails at entry
        seen = []
        with pytest.raises(ValueError, match="mass dimension 5 != target dimension 3"):
            run_chain(quartic_cfg(iterations=2), QuarticGeneralizedGaussian(3), MassMatrix(5),
                      sinks=[lambda i, o, th: seen.append(i)])
        assert seen == []

    def test_chain_index_checked_before_the_first_draw(self):
        # True is not chain 1, and neither 2.5 nor -1 reaches chain_rng
        seen = []
        for bad, message in ((True, "chain_index must be an integer"),
                             (2.5, "chain_index must be an integer"),
                             (-1, "chain_index must be >= 0")):
            with pytest.raises(ValueError, match=message):
                run_chain(quartic_cfg(iterations=2), QuarticGeneralizedGaussian(2),
                          MassMatrix.identity(2), sinks=[lambda i, o, th: seen.append(i)],
                          chain_index=bad)
        assert seen == []

    @pytest.mark.parametrize("kind", ["J1", "JFull"])
    def test_analytic_source_without_closed_form_refused_before_the_first_draw(self, kind):
        # a target with neither force-Jacobian capability fails at entry, not
        # after a draw, a U and a whole step, and never falls back to finite
        # differences; the finite-difference source and J0 still run on it
        class NoJacobians(CountingQuartic):
            closed_form_force_jacobian_diag = None

        t, seen = NoJacobians(3), []
        sink = [lambda i, o, th: seen.append(i)]
        cfg = quartic_cfg(iterations=2, jacobian_mode=JacobianMode(kind, "analytic"))
        with pytest.raises(ValueError, match="needs the target's closed_form_force_jacobian_diag "
                                             "or closed_form_force_jacobian"):
            run_chain(cfg, t, MassMatrix.identity(3), sinks=sink)
        assert t.target_calls() == 0 and seen == []
        for mode in (JacobianMode(kind), JacobianMode("J0", "analytic")):
            run_chain(quartic_cfg(iterations=2, jacobian_mode=mode), t, MassMatrix.identity(3),
                      sinks=sink)
        assert seen == [0, 1, 0, 1]

    def test_explicit_initial_state_dimension_checked(self):
        t = QuarticGeneralizedGaussian(2)
        cfg = quartic_cfg(iterations=2, initial_state_mode="explicit",
                          initial_state=np.array([1.0]))
        with pytest.raises(ValueError):
            run_chain(cfg, t, MassMatrix.identity(2))

    @pytest.mark.slow
    def test_quartic_variance_recovered(self):
        # smoke-level marginal correctness at small d
        from chmc import quartic_target_variance

        t = QuarticGeneralizedGaussian(2)
        cfg = quartic_cfg(iterations=4000, burn_in=200, seed=101)
        samples = []
        run_chain(cfg, t, MassMatrix.identity(2),
                  sinks=[lambda i, o, th: samples.append(th.copy()) if th is not None else None])
        var = np.array(samples).var(axis=0).mean()
        assert var == pytest.approx(quartic_target_variance(), rel=0.1)


def quartic_quantiles(n_bins):
    """Equal-mass bin edges of the density exp(-q^4) via quadrature."""
    z, _ = quad(lambda x: np.exp(-x ** 4), -np.inf, np.inf)

    def cdf(x):
        val, _ = quad(lambda u: np.exp(-u ** 4), -np.inf, x)
        return val / z

    edges = [-np.inf]
    for k in range(1, n_bins):
        edges.append(brentq(lambda x, k=k: cdf(x) - k / n_bins, -3.0, 3.0, xtol=1e-12))
    edges.append(np.inf)
    return np.array(edges)


class TestStationaryHistogram:
    @pytest.mark.slow
    def test_jfull_equilibrium_bin_masses(self):
        # brute-force stationary-histogram check on a discretized 1-d state
        # space: 20 equal-mass bins, batch-means standard errors
        t = QuarticGeneralizedGaussian(1)
        mass = MassMatrix.identity(1)
        iterations = 100_000
        burn_in = 2_000
        cfg = SamplerConfig(
            method="chmc", tau=0.1, total_time=0.5, iterations=iterations,
            burn_in=burn_in, seed=314,
            jacobian_mode=JacobianMode("JFull", "analytic"),
            solver=DmmSolverConfig(tau=0.1, delta=1e-10, max_fpi=50),
        )
        samples = []
        run_chain(cfg, t, mass,
                  sinks=[lambda i, o, th: samples.append(th[0]) if th is not None else None])
        x = np.asarray(samples)
        n_bins = 20
        edges = quartic_quantiles(n_bins)
        target_mass = 1.0 / n_bins
        indicator = np.stack([(x > edges[k]) & (x <= edges[k + 1]) for k in range(n_bins)])
        freqs = indicator.mean(axis=1)
        # batch means absorb the chain autocorrelation into the SE estimate
        n_batches = 100
        batches = indicator[:, : (x.size // n_batches) * n_batches]
        batches = batches.reshape(n_bins, n_batches, -1).mean(axis=2)
        se = batches.std(axis=1, ddof=1) / np.sqrt(n_batches)
        for k in range(n_bins):
            assert abs(freqs[k] - target_mass) <= 3.0 * se[k] + 1e-12, (
                f"bin {k}: freq {freqs[k]:.5f} target {target_mass:.5f} se {se[k]:.2e}")
