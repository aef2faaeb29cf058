"""The two Markov chains: leapfrog HMC and the conservative sampler.

Both follow the same outer loop: refresh the momentum from N(0, I), integrate
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
from .integrators import DmmSolverConfig, StepScratch, leapfrog_trajectory, trajectory
from .jacobian import JacobianMode, analytic_jacobians
from .phase import (MassMatrix, PhaseState, finite_vector, require_choice, require_integer,
                    require_positive)

METHODS = ("hmc-leapfrog", "chmc")
INITIAL_STATE_MODES = ("standard-normal", "explicit")


@dataclass(frozen=True)
class SamplerConfig:
    """Full specification of one chain.

    ``n_steps`` is fixed by the pair (total_time, tau): the ratio must be an
    integer to 1e-9 or construction fails. For the conservative sampler,
    ``solver`` carries the fixed-point knobs and must agree with ``tau``;
    ``jacobian_mode`` picks J0 (default, gradient-free), J1 or JFull. Both are
    refused for leapfrog, and ``initial_state`` unless the mode is 'explicit',
    where it is kept as ``finite_vector`` makes it (``run_chain`` checks its
    dimension). ``seed`` must be a non-negative integer.
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
        require_choice("method", self.method, METHODS)
        require_positive("tau", self.tau)
        require_positive("total_time", self.total_time)
        ratio = self.total_time / self.tau
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("n_steps not integral: total_time / tau must be a positive integer")
        require_integer("iterations", self.iterations, 1)
        require_integer("burn_in", self.burn_in, 0)
        if self.iterations <= self.burn_in:
            raise ValueError("need iterations > burn_in >= 0")
        require_integer("seed", self.seed, 0)
        require_choice("initial_state_mode", self.initial_state_mode, INITIAL_STATE_MODES)
        if (self.initial_state_mode == "explicit") != (self.initial_state is not None):
            raise ValueError("initial_state is given exactly when initial_state_mode is explicit")
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state",
                               finite_vector("initial_state", self.initial_state))
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
    all_steps_converged: bool
    jacobian_force_evals: int


def acceptance_probability(delta_h: float, sign: float, log_abs: float) -> float:
    """min(1, exp(-dH) * J) for J = sign * exp(log_abs), as log alpha = -dH + log|J|.

    The pair is a trajectory factor's (sign, log_abs), (1, 0) for J = 1, so
    a |J| outside the float range still counts. Total function: sign <= 0
    (or NaN), log_abs = -inf or NaN and dH = +inf (or NaN) all force 0.
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
    an iteration computes them. ``run_chain`` hands one to every iteration,
    which passes them to its trajectory, then stores the trajectory's end
    values if it accepts and its start values if it rejects (a failed
    trajectory included). They are the bits a fresh evaluation at theta
    gives, so the chain is the same and only the target calls drop.
    """

    __slots__ = ("u", "kick")

    def __init__(self):
        self.u = self.kick = None


def chmc_iteration(theta: np.ndarray, target, cfg: SamplerConfig,
                   rng: np.random.Generator, cache: StateCache):
    """One conservative-sampler iteration: draw p ~ N(0, I), integrate, accept/reject."""
    state = PhaseState(theta, rng.standard_normal(theta.size))
    rec = trajectory(state, target, cfg.solver, cfg.n_steps, cfg.jacobian_mode, u_in=cache.u)
    return _accept_reject(theta, rec, rng, cache)


def hmc_iteration(theta: np.ndarray, target, cfg: SamplerConfig,
                  rng: np.random.Generator, cache: StateCache):
    """One leapfrog-HMC iteration from p ~ N(0, I); its map is volume preserving (J = 1)."""
    state = PhaseState(theta, rng.standard_normal(theta.size))
    rec = leapfrog_trajectory(state, target, cfg.tau, cfg.n_steps, u_in=cache.u,
                              kick_in=cache.kick)
    return _accept_reject(theta, rec, rng, cache)


def _accept_reject(theta: np.ndarray, rec, rng: np.random.Generator, cache: StateCache):
    """Accept the end position if one uniform draw u < ``acceptance_probability``.

    A failed trajectory (h_out = +inf) has dH = +inf whatever H_in is, so
    that one rule rejects it with alpha = 0. ``rec.jacobian`` is the
    trajectory's Jacobian factor, None for J = 1 (J0 and leapfrog); alpha is
    formed from its (sign, log_abs) and the outcome reports its product.
    ``cache`` takes the values at the position kept.
    """
    j = rec.jacobian
    sign, log_abs, product, jacobian_evals = (
        (1.0, 0.0, 1.0, 0) if j is None else (j.sign, j.log_abs, j.product, j.extra_force_evals))
    delta_h = math.inf if rec.h_out == math.inf else rec.h_out - rec.h_in
    alpha = acceptance_probability(delta_h, sign, log_abs)
    accepted = rng.random() < alpha
    outcome = IterationOutcome(accepted, alpha, delta_h, product,
                               rec.total_force_evaluations, rec.total_fpi_iterations,
                               rec.all_converged, jacobian_evals)
    cache.u, cache.kick = (rec.u_out, rec.kick_out) if accepted else (rec.u_in, rec.kick_in)
    return (rec.q if accepted else theta), outcome


def chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    """Per-chain generator from a splittable seed scheme (seed, chain index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,)))


def initial_position(cfg: SamplerConfig, dim: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.initial_state_mode == "explicit":
        if cfg.initial_state.size != dim:
            raise ValueError("explicit initial state has the wrong dimension")
        return cfg.initial_state.copy()
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
    to be stored; ``covariance_tracker``, when given, is updated with each
    retained theta before the sinks see it, so a sink reads the error it
    recorded at that iteration through ``last_recorded``. U and leapfrog's
    first half-kick at theta ride along in a
    ``StateCache``. The summary is reduced on the fly from the accepted count,
    the integer force-evaluation sum and the |dH| column, which ``math.fsum``
    adds exactly. Identical (seed, config, target) give bit-identical output.
    Of ``mass`` only its dimension is read. It is checked against the target's,
    ``chain_index`` as a non-negative integer, a leapfrog chain's target for
    a gradient, and the target of a J1 or JFull chain with the analytic
    derivative source for closed-form force Jacobians (the route its
    trajectories' factors settle through ``analytic_jacobians``), before the
    first draw: this is the chain's one validation boundary, and the
    iterations and trajectories below it check none of it. It is also their
    floating-point policy: every iteration runs under
    ``np.errstate(over="ignore", invalid="ignore")``, so an overflowing
    trajectory fails to h_out = +inf, and is rejected, without a warning.
    """
    if mass.dim != target.dim:
        raise ValueError(f"mass dimension {mass.dim} != target dimension {target.dim}")
    require_integer("chain_index", chain_index, 0)
    if cfg.method == "chmc":
        analytic_jacobians(cfg.jacobian_mode, StepScratch(target, cfg.solver))
    elif target.gradient is None:
        raise ValueError("leapfrog requires a potential gradient")
    rng = chain_rng(cfg.seed, chain_index)
    iterate = chmc_iteration if cfg.method == "chmc" else hmc_iteration
    theta = initial_position(cfg, target.dim, rng)
    cache = StateCache()
    accepted = force_evals = 0
    energy_errors = array("d")
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.iterations):
            theta, outcome = iterate(theta, target, cfg, rng, cache)
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
