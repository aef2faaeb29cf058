"""The two Markov chains: leapfrog HMC and the conservative sampler.

Both follow the same outer loop: refresh the momentum from N(0, M), integrate
N steps, and accept the proposed position with probability
min(1, exp(-dH) * J) where J is 1 for leapfrog (volume preserving) and the
N-step determinant product for the energy-preserving map, taken in log
space from its (sign, log|J|); the two iterations share one accept/reject
step. Momentum is discarded after every iteration and never negated on
rejection, so exactly one uniform draw is consumed per iteration regardless
of the outcome, keeping RNG streams aligned across method variants for
paired comparisons.

A chain carries U and, for leapfrog, the first half-kick (tau/2) grad U at
its current position from one iteration to the next (see ``StateCache``),
so an iteration after the first evaluates U once, at the proposal, and
leapfrog calls the gradient n_steps times.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import ChainSummary, CovarianceTracker
from .integrators import DmmSolverConfig, leapfrog_trajectory, trajectory
from .jacobian import JacobianAccumulator, JacobianMode
from .phase import MassMatrix, PhaseState

METHODS = ("hmc-leapfrog", "chmc")
INITIAL_STATE_MODES = ("zeros", "standard-normal", "explicit")


@dataclass(frozen=True)
class SamplerConfig:
    """Full specification of one chain.

    ``n_steps`` is fixed by the pair (total_time, tau): the ratio must be an
    integer to 1e-9 or construction fails. For the conservative sampler,
    ``solver`` carries the fixed-point knobs and must agree with ``tau``;
    ``jacobian_mode`` picks J0 (default, gradient-free), J1 or JFull. Both are
    refused for leapfrog, and ``initial_state`` unless the mode is 'explicit'.
    """

    method: str
    tau: float
    total_time: float
    iterations: int
    burn_in: int = 0
    seed: int = 0
    jacobian_mode: Optional[JacobianMode] = None
    solver: Optional[DmmSolverConfig] = None
    initial_state_mode: str = "standard-normal"
    initial_state: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError("tau must be finite and positive")
        if not (self.total_time > 0.0 and math.isfinite(self.total_time)):
            raise ValueError("total_time must be finite and positive")
        ratio = self.total_time / self.tau
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("n_steps not integral: total_time / tau must be a positive integer")
        if self.burn_in < 0 or self.iterations <= self.burn_in:
            raise ValueError("need iterations > burn_in >= 0")
        if self.initial_state_mode not in INITIAL_STATE_MODES:
            raise ValueError(f"initial_state_mode must be one of {INITIAL_STATE_MODES}")
        if (self.initial_state_mode == "explicit") != (self.initial_state is not None):
            raise ValueError("initial_state is given exactly when initial_state_mode is explicit")
        if self.method != "chmc" and not (self.solver is None and self.jacobian_mode is None):
            raise ValueError("solver and jacobian_mode only apply to chmc")
        if self.method == "chmc":
            solver = self.solver if self.solver is not None else DmmSolverConfig(tau=self.tau)
            if solver.tau != self.tau:
                raise ValueError("solver.tau must equal the sampler tau")
            object.__setattr__(self, "solver", solver)
            mode = self.jacobian_mode if self.jacobian_mode is not None else JacobianMode("J0")
            object.__setattr__(self, "jacobian_mode", mode)

    @property
    def n_steps(self) -> int:
        return int(round(self.total_time / self.tau))


@dataclass(frozen=True)
class IterationOutcome:
    """Per-iteration record streamed to diagnostics sinks.

    ``delta_H`` is the proposal's H(q*, p*) - H(q0, p0) (+inf on trajectory
    failure). ``force_evals`` counts integrator force evaluations only: for
    leapfrog the gradient calls made, n_steps in a chain that carries its
    first half-kick (see ``StateCache``) and n_steps + 1 otherwise, as on a
    chain's first iteration. Jacobian finite-difference probes are tallied
    separately in ``jacobian_force_evals``. ``jacobian_product`` reads +-inf
    above the float range and 0 below it; ``alpha`` comes from its log,
    which is still finite there.
    """

    accepted: bool
    alpha: float
    delta_H: float
    jacobian_product: float
    force_evals: int
    fpi_iterations_total: int
    all_steps_converged: bool = True
    jacobian_force_evals: int = 0


def acceptance_probability(delta_h: float, sign: float, log_abs: float) -> float:
    """min(1, exp(-dH) * J) for J = sign * exp(log_abs), as log alpha = -dH + log|J|.

    The pair is the one ``JacobianAccumulator`` keeps, (1, 0) for J = 1, so a
    |J| outside the float range still counts. Total function: sign <= 0 (or
    NaN), log_abs = -inf or NaN and dH = +inf (or NaN) all force 0.
    """
    if not sign > 0.0 or math.isnan(delta_h) or delta_h == math.inf:
        return 0.0
    log_alpha = -delta_h + log_abs
    if log_alpha >= 0.0:
        return 1.0
    return 0.0 if math.isnan(log_alpha) else math.exp(log_alpha)


class StateCache:
    """U and leapfrog's first half-kick at a chain's current position theta.

    ``u`` is U(theta) as ``potential_energy`` gives it and ``kick`` is
    (tau/2) grad U(theta), an array the integrator made; both are None until
    an iteration computes them. An iteration that gets a cache passes them
    to its trajectory, then stores the trajectory's end values if it accepts
    and its start values if it rejects (a failed trajectory included). They
    are the bits a fresh evaluation at theta gives, so the chain is the same
    and only the target calls drop.
    """

    __slots__ = ("u", "kick")

    def __init__(self):
        self.u = self.kick = None


def chmc_iteration(theta: np.ndarray, target, mass: MassMatrix, cfg: SamplerConfig,
                   rng: np.random.Generator, cache: Optional[StateCache] = None):
    """One conservative-sampler iteration: refresh p, integrate, accept/reject."""
    p0 = mass.sample_momentum(rng)
    state = PhaseState(theta, p0)
    u = None if cache is None else cache.u
    accumulator = (None if cfg.jacobian_mode.kind == "J0" else
                   JacobianAccumulator(cfg.jacobian_mode, cfg.tau, mass, target,
                                       cfg.solver.dd_guard))
    rec = trajectory(state, target, mass, cfg.solver, cfg.n_steps,
                     per_step_hook=accumulator, u_in=u)
    return _accept_reject(theta, rec, rng, cache, accumulator)


def hmc_iteration(theta: np.ndarray, target, mass: MassMatrix, cfg: SamplerConfig,
                  rng: np.random.Generator, cache: Optional[StateCache] = None):
    """One leapfrog-HMC iteration; the proposal map is volume preserving (J = 1)."""
    p0 = mass.sample_momentum(rng)
    state = PhaseState(theta, p0)
    u, kick = (None, None) if cache is None else (cache.u, cache.kick)
    rec = leapfrog_trajectory(state, target, mass, cfg.tau, cfg.n_steps, u_in=u, kick_in=kick)
    return _accept_reject(theta, rec, rng, cache)


def _accept_reject(theta: np.ndarray, rec, rng: np.random.Generator,
                   cache: Optional[StateCache], jacobian: Optional[JacobianAccumulator] = None):
    """Draw u, then accept the end position; a failed trajectory rejects with dH = +inf.

    ``jacobian`` is the trajectory's filled accumulator, None for J = 1 (J0
    and leapfrog); alpha is formed from its (sign, log_abs) and the outcome
    reports its product. ``cache``, when given, takes the values at the
    position kept.
    """
    u = rng.random()
    sign, log_abs, product, jacobian_evals = (
        (1.0, 0.0, 1.0, 0) if jacobian is None
        else (jacobian.sign, jacobian.log_abs, jacobian.product, jacobian.extra_force_evals))
    if rec.h_out == math.inf:
        alpha, delta_h, accepted = 0.0, math.inf, False
    else:
        delta_h = rec.h_out - rec.h_in
        alpha = acceptance_probability(delta_h, sign, log_abs)
        accepted = u < alpha
    outcome = IterationOutcome(accepted, alpha, delta_h, product,
                               rec.total_force_evaluations, rec.total_fpi_iterations,
                               rec.all_converged, jacobian_evals)
    if cache is not None:
        cache.u, cache.kick = ((rec.u_out, rec.kick_out) if accepted
                               else (rec.u_in, rec.kick_in))
    return (rec.q if accepted else theta), outcome


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Per-chain generator from a splittable seed scheme (seed, chain index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,)))


def initial_position(cfg: SamplerConfig, dim: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.initial_state_mode == "zeros":
        return np.zeros(dim)
    if cfg.initial_state_mode == "explicit":
        theta = np.array(cfg.initial_state, dtype=float, copy=True, ndmin=1)
        if theta.size != dim:
            raise ValueError("explicit initial state has the wrong dimension")
        return theta
    return rng.standard_normal(dim)


def run_chain(
    cfg: SamplerConfig,
    target,
    mass: MassMatrix,
    sinks=(),
    chain_index: int = 0,
    covariance_tracker: Optional[CovarianceTracker] = None,
) -> ChainSummary:
    """Run one chain to completion, streaming outcomes and retained samples.

    Sinks are callables ``sink(iteration, outcome, theta_or_None)``; theta is
    passed only for retained (post burn-in) iterations so samples never need
    to be stored. U and leapfrog's first half-kick at theta ride along in a
    ``StateCache``. The summary is reduced on the fly from the accepted count,
    the integer force-evaluation sum and the |dH| column, which ``math.fsum``
    adds exactly. Identical (seed, config, target) give bit-identical output.
    """
    rng = chain_rng(cfg.seed, chain_index)
    iterate = chmc_iteration if cfg.method == "chmc" else hmc_iteration
    theta = initial_position(cfg, target.dim, rng)
    cache = StateCache()
    accepted = force_evals = 0
    energy_errors = array("d")
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.iterations):
            theta, outcome = iterate(theta, target, mass, cfg, rng, cache)
            accepted += outcome.accepted
            force_evals += outcome.force_evals
            energy_errors.append(abs(outcome.delta_H))
            retained = i >= cfg.burn_in
            if retained and covariance_tracker is not None:
                covariance_tracker.update(i, theta)
            for sink in sinks:
                sink(i, outcome, theta if retained else None)
    wall = time.perf_counter() - start
    n = cfg.iterations
    return ChainSummary(
        mean_acceptance_pct=100.0 * accepted / n,
        mean_energy_error=math.fsum(energy_errors) / n,
        mean_force_evals=force_evals / (n * cfg.n_steps),
        wall_time_seconds=wall,
    )
