"""Leapfrog and the symmetrized energy-preserving (divided-difference) map.

The implicit energy-preserving step

    Q_i = q_i + (tau/2) (P + p)^T M^-1 e_i
    P_i = p_i - (tau/2) F_i(Q, q)

is solved as a predictor-corrector. Eliminating P leaves the position
equation Q = g(Q) with g(Q) = a - (tau/2)^2 M^-1 F(Q, q), where
a = q + tau M^-1 p is formed once per step. The predictor is the first
iterate Q0. On a trajectory's first step it is the Euler guess Q0 = a. On
every later step the previous step's final force F_prev = F(q, q_prev),
which the trajectory carries over as ``StepRecord.force``, is frozen in g:
Q_pc = a - (tau/2)^2 M^-1 F_prev, at no target call (Hairer, Lubich &
Wanner, Geometric Numerical Integration, VIII.6, "starting
approximations"). As p = p_prev - (tau/2) F_prev, this is the momentum
extrapolation q + (tau/2) M^-1 (3p - p_prev). On a separable target the
previous step also hands over a predicted chord diagonal
D_pred = 1 + (tau/2)^2 M^-1 J, a Newton model of that force,
F(Q, q) ~ F(q, q_prev) + J (Q - q_prev), and solving the linearized
equation folds one free chord contraction into the start:

    Q0 = q_prev + (Q_pc - q_prev) / D_pred

The model wants J = U''(q), the curvature at this step's start. Per
component, with h = Q - q and m = (Q + q)/2, the divided-difference force is
F = 2 U'(m) + O(h^2), so dF/dQ = U''(m) + U'''(m) h/6 + O(h^2),
dF/dq = U''(m) - U'''(m) h/6 + O(h^2), and

    2 dF/dQ - dF/dq = U''(m) + U'''(m) h/2 + O(h^2) = U''(Q) + O(h^2).

At the previous step's (Q, q) = (q, q_prev) this is the wanted curvature,
where dF/dQ alone is only first-order, so the previous step's one
Jacobian-diagonal call also yields
D_pred = 1 + (tau/2)^2 M^-1 (2 dF/dQ - dF/dq) (see ``_chord_scale``). On a
separable quadratic target the force is linear in its arguments and this Q0
is the solution up to rounding. Without D_pred (a trajectory's first step,
a non-separable or black-box target, or a D_pred that is not finite and
positive) the start stays Q_pc.

The corrector is fixed-point iteration: the first iterate is a guess, so at
least one update always runs, and the solve stops at the first updated
iterate whose energy error drops to the tolerance ``delta``, or to the
rounding floor of that error (see ``dmm_step``), or after ``max_fpi``
updates. Each update substitutes the freshly advanced position into the
force, so it costs exactly one force evaluation; the literal simultaneous
(Jacobi) pairing of the two update lines stalls every other iterate and
doubles the force-evaluation count for the same progress.

The energy test makes no target call. The force is a discrete gradient,
F(Q, q) . (Q - q) = 2 (U(Q) - U(q)) (see ``Potential``), so at an iterate
with f = F(Q, q), P = p - (tau/2) f and g = q + (tau/2) M^-1 (P + p), the
next update's target position,

    H(Q, P) - H(q, p) = f . (Q - g) / 2

exactly (McLachlan, Quispel & Robidoux, "Geometric integration using
discrete gradients", Phil. Trans. R. Soc. A 357, 1999). A trajectory
evaluates U only at its end (and at its start unless the caller passes
U(q) in), and clears ``all_converged`` when the true
|H_out - H_in| exceeds the sum of its steps' tolerances (n_steps * delta
above the rounding floor) plus a few ulps of |H_in| + |H_out|, which the
identity rules out unless a target's force breaks the contract.

The mass is diagonal, so on a separable target the Jacobian
I + (tau/2)^2 M^-1 dF/dQ of Q - g(Q) is a diagonal D, and the update
becomes the chord (simplified Newton) step Q <- Q + (g - Q) / D (Hairer,
Lubich & Wanner, Geometric Numerical Integration, VIII.6). D is
frozen at one point X per step. With the residual R(Q) = Q - g(Q), the
solution is Q* = Q0 - R(Q0) / S, where S, the secant slope of R between Q0
and Q*, equals R' = D at their midpoint up to O(|Q* - Q0|^2). With a
predicted chord, Q* - Q0 ~ (g(Q0) - Q0) / D_pred, so

    X = Q0 + (g(Q0) - Q0) / (2 D_pred)

estimates that midpoint and the first update lands far closer to Q* than a
chord frozen at either end. Without one, X = g(Q0), the first plain update,
which lies closer to the solution than Q0. The chord step has the same fixed
point and stopping rule, needs one force-Jacobian-diagonal call per step,
and cuts the number of updates: on the quartic at tau = 0.1 and
delta = 1e-8, from exact draws, about 1.1 per step at d = 2560 and 1.03 at
d = 40. Other targets use the plain update Q <- g.

Leapfrog reuses each step's end-of-step gradient for the next step's first
half-kick, so an n-step trajectory makes n gradient evaluations plus one
for its first half-kick (tau/2) grad U(q), which the caller may pass in
instead. Both trajectories report U and leapfrog its half-kick at each end,
so a chain hands the values at its current position to the next
trajectory: the end values after an accept, the start values after a
reject. These are the bits a fresh evaluation gives, and a chain iteration
then evaluates U once and, for leapfrog, the gradient n times.

Both loops write their temporaries into work rows made once per trajectory:
a ``StepScratch`` for ``dmm_step``, which also looks up the force and the
Jacobian-diagonal call and forms tau M^-1 and (tau/2)^2 M^-1 once, and one
copy of p that leapfrog kicks in place. Arrays that leave a step or reach
the target (the iterates Q, the Jacobian point X, P, the force, the
(D, D_next) block) are fresh, and each in-place operation rounds as the
expression it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phase import MassMatrix, PhaseState, hamiltonian, potential_energy
from .targets import is_separable


@dataclass(frozen=True)
class DmmSolverConfig:
    """Knobs of the implicit energy-preserving step.

    tau: time step, finite and positive.
    delta: absolute per-step energy tolerance.
    max_fpi: cap on fixed-point updates per step.
    dd_guard: base of the relative guard of ``divided_difference_force``;
        component i uses the threshold dd_guard * max(1, |q_i|).
    """

    tau: float
    delta: float = 1e-8
    max_fpi: int = 10
    dd_guard: float = 1e-8

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError("tau must be finite and positive")
        if not (self.delta > 0.0):
            raise ValueError("delta must be positive")
        if self.max_fpi < 1:
            raise ValueError("max_fpi must be >= 1")
        if not (self.dd_guard > 0.0):
            raise ValueError("dd_guard must be positive")


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one energy-preserving step, ending at the arrays (q, p).

    ``energy_error`` is |f . (Q - g)| / 2 at the last update, the
    discrete-gradient value of |H(q, p) - H(q_in, p_in)| (see the module
    docstring); it is inf when the solve blew up, in which case (q, p) is
    the input pair and the caller must reject. ``force`` is F(q, q_in), the
    force of the last update, so p = p_in - (tau/2) force (None when the step
    failed); the finite-difference Jacobian probes reuse it as their base
    value, and the next step of a trajectory freezes it in its predictor.
    ``chord`` is the next step's predicted chord diagonal
    D_next = 1 + (tau/2)^2 M^-1 (2 dF/dQ - dF/dq), from this step's
    Jacobian-diagonal call, which the next step of a trajectory uses in its
    predictor and for its Jacobian point (see ``dmm_step`` and the module
    docstring). It is None unless every entry is finite and positive, and
    always None on a target without the chord solve. ``tolerance`` is what
    the error was tested against: delta, or its larger rounding floor.
    """

    q: np.ndarray
    p: np.ndarray
    fpi_iterations: int
    energy_error: float
    force_evaluations: int
    converged: bool
    force: Optional[np.ndarray] = None
    chord: Optional[np.ndarray] = None
    tolerance: float = math.inf


def divided_difference_force(Q: np.ndarray, q: np.ndarray, potential, guard: float = 1e-8):
    """Gradient-free force from componentwise divided differences of U.

    Walks the two interleaving substitution paths between q and Q with a
    single scratch vector per path, reusing the previous potential value, so
    a full force costs 2(d + 1) potential evaluations. Components with
    |Q_i - q_i| below the relative guard fall back to the symmetric
    difference across the midpoint of each path (the analytic limit of the
    quotient, still gradient-free).

    Returns (force, n_potential_evaluations). Non-finite potential values
    propagate into the force and are handled by rejection upstream.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q.size
    if Q.shape != q.shape:
        raise ValueError("Q and q must have the same shape")
    dq = Q - q
    eps = guard * np.maximum(1.0, np.abs(q))
    x = q.copy()  # ascending substitution path, starts at q
    y = Q.copy()  # descending substitution path, starts at Q
    u_x_prev = float(potential.evaluate(x))
    u_y_prev = float(potential.evaluate(y))
    n_evals = 2
    force = np.empty(d)
    for i in range(d):
        if abs(dq[i]) < eps[i]:
            m = 0.5 * (Q[i] + q[i])
            h = eps[i]
            x[i] = m + 0.5 * h
            u_plus = float(potential.evaluate(x))
            x[i] = m - 0.5 * h
            u_minus = float(potential.evaluate(x))
            y[i] = m + 0.5 * h
            v_plus = float(potential.evaluate(y))
            y[i] = m - 0.5 * h
            v_minus = float(potential.evaluate(y))
            force[i] = (u_plus - u_minus + v_plus - v_minus) / h
            # advance both paths past component i and refresh the running values
            x[i] = Q[i]
            u_x_prev = float(potential.evaluate(x))
            y[i] = q[i]
            u_y_prev = float(potential.evaluate(y))
            n_evals += 6
        else:
            x[i] = Q[i]
            u_x = float(potential.evaluate(x))
            y[i] = q[i]
            u_y = float(potential.evaluate(y))
            force[i] = ((u_x - u_x_prev) + (u_y_prev - u_y)) / dq[i]
            u_x_prev = u_x
            u_y_prev = u_y
            n_evals += 2
    return force, n_evals


def force_and_evals(Q: np.ndarray, q: np.ndarray, potential, guard: float):
    """Closed-form force when the target provides one, else divided differences."""
    if potential.closed_form_force is not None:
        return potential.closed_form_force(Q, q), 0
    return divided_difference_force(Q, q, potential, guard)


_ROUNDING = 4.0 * math.ulp(1.0)  # a few ulps: the energy tests' rounding floor


def _norm(w):
    """2-norm of a non-negative vector, scaled in place by its largest entry so
    that no square overflows where the norm itself is finite."""
    s = float(w.max())
    if not 0.0 < s < math.inf:
        return s
    np.divide(w, s, w)
    return s * math.sqrt(float(w @ w))


class StepScratch:
    """What ``dmm_step`` looks up and writes, made once per trajectory: ``force``
    (closed form, else divided differences), ``jacobian_diag`` (None unless
    separable), ``tau_m`` = tau M^-1 and ``half2_m`` = (tau/2)^2 M^-1
    (plain floats for M = I, diagonals otherwise) and the work rows a, g, r
    and t."""

    def __init__(self, potential, mass: MassMatrix, cfg: DmmSolverConfig):
        force = potential.closed_form_force
        if force is None:
            def force(Q, q):
                return divided_difference_force(Q, q, potential, cfg.dd_guard)[0]
        self.force = force
        self.jacobian_diag = (potential.closed_form_force_jacobian_diag
                              if is_separable(potential) else None)
        inv_m = 1.0 if mass.kind == "identity" else mass.inverse_diagonal()
        half = 0.5 * cfg.tau
        self.tau_m, self.half2_m = cfg.tau * inv_m, half * half * inv_m
        self.a, self.g, self.r, self.t = np.empty((4, mass.dim))


def _chord_scale(diagonals, half2_m):
    """Chord diagonals (D, D_next) from one Jacobian-diagonal pair (dF/dq, dF/dQ).

    With half2_m = (tau/2)^2 M^-1, D = 1 + half2_m dF/dQ is this step's
    chord and D_next = 1 + half2_m (2 dF/dQ - dF/dq) the next step's predicted
    chord, the rows of one fresh (2, d) block that one min and one max check
    (row by row only when that fails). Each is None unless finite and
    positive (a non-convex region can make the frozen Newton step point the
    wrong way); without D the step keeps the plain update, without D_next
    the next step starts from Q_pc.
    """
    d_q, d_Q = diagonals
    block = np.empty((2, np.size(d_Q)))
    D, D_next = block
    np.multiply(d_Q, half2_m, D)
    np.subtract(np.multiply(d_Q, 2.0, D_next), d_q, D_next)
    np.multiply(D_next, half2_m, D_next)
    block += 1.0
    if block.min() > 0.0 and block.max() < math.inf:  # NaN fails the first comparison
        return D, D_next
    return tuple(row if row.min() > 0.0 and row.max() < math.inf else None for row in block)


def dmm_step(
    q: np.ndarray,
    p: np.ndarray,
    potential,
    mass: MassMatrix,
    cfg: DmmSolverConfig,
    init_guess: Optional[tuple] = None,
    f_prev: Optional[np.ndarray] = None,
    chord_prev: Optional[tuple] = None,
    scratch: Optional[StepScratch] = None,
) -> StepRecord:
    """One implicit energy-preserving step from the arrays (q, p).

    The first iterate Q0 costs one force evaluation. With a = q + tau M^-1 p
    it is a on a trajectory's first step (``f_prev`` None); later, ``f_prev``
    is the previous step's ``StepRecord.force`` and it is
    Q_pc = a - (tau/2)^2 M^-1 f_prev, or q_prev + (Q_pc - q_prev) / D_pred
    with ``chord_prev`` = (q_prev, D_pred), the previous step's input
    position and ``StepRecord.chord`` (see the module docstring).
    ``init_guess``, a (Q, P) pair, overrides the prediction at no force
    evaluation (warm-starts reverse solves). At least one fixed-point update always runs before the
    first energy test: the first iterate is a guess, and testing it would let
    a guess that happens to sit on the input energy surface (such as an
    ``init_guess`` next to (q, p)) return the input unchanged.
    The energy test is the discrete-gradient identity, so the solve never
    calls ``potential.evaluate`` (a divided-difference force does, to form F).
    The last iterate is returned whether or not the tolerance was met
    (``converged`` records which); an unconverged iterate still enters the
    acceptance ratio through the trajectory's true energy error.

    Each update works on the position alone: with a = q + tau M^-1 p formed
    once, the next target is g = a - (tau/2)^2 M^-1 f, the residual
    r = g - Q serves both the energy test |f . r| / 2 and the chord update
    Q + r / D, and the momentum P = p - (tau/2) f is formed once, at exit.
    An update that misses delta still converges when its error is within a
    few ulps of the 2-norm of the vector f_i (|Q_i| + |g_i|), the rounding
    floor of f . r: rounding errors of its d products add like independent
    draws, so their sum grows as sqrt(d), where the absolute sum
    sum_i |f_i| (|Q_i| + |g_i|) grows as d and at d = 2560 let steps stop
    three orders of magnitude above what the solve reaches.

    On a separable target, one ``closed_form_force_jacobian_diag`` call per
    step, at X = Q0 + (g(Q0) - Q0) / (2 D_pred) (X = g(Q0) without
    ``chord_prev``), sets up this step's chord update and ``StepRecord.chord``
    (see ``_chord_scale``); ``force_evaluations`` counts forces only. Other
    targets take plain updates. ``scratch`` (a fresh ``StepScratch`` when
    None) changes no result.
    """
    s = StepScratch(potential, mass, cfg) if scratch is None else scratch
    half = 0.5 * cfg.tau
    a, g, r, t, half2_m = s.a, s.g, s.r, s.t, s.half2_m
    np.add(q, np.multiply(p, s.tau_m, a), a)
    if init_guess is not None:
        Q, P = init_guess
        f = (p - P) / half
        force_evals = 0
    else:
        Q = a if f_prev is None else np.subtract(a, np.multiply(f_prev, half2_m, t), t)
        if chord_prev is None:
            Q = Q.copy()
        else:
            q_prev, D_pred = chord_prev
            Q = q_prev + np.divide(np.subtract(Q, q_prev, t), D_pred, t)
        f = s.force(Q, q)
        force_evals = 1
    np.subtract(a, np.multiply(f, half2_m, g), g)
    np.subtract(g, Q, r)
    D = D_next = None
    if s.jacobian_diag is not None:
        X = (g.copy() if chord_prev is None
             else Q + np.divide(r, np.multiply(chord_prev[1], 2.0, t), t))
        D, D_next = _chord_scale(s.jacobian_diag(X, q), half2_m)
    iterations = 0
    while True:
        Q = g.copy() if D is None else Q + np.divide(r, D, t)
        f = s.force(Q, q)
        force_evals += 1
        iterations += 1
        np.subtract(a, np.multiply(f, half2_m, g), g)
        err = abs(0.5 * float(f @ np.subtract(g, Q, r)))
        tol = (max(cfg.delta, _ROUNDING * _norm(np.multiply(
                   np.abs(f), np.add(np.abs(Q), np.abs(g), t), t)))
               if cfg.delta < err < math.inf else cfg.delta)
        converged = err <= tol
        if converged or iterations >= cfg.max_fpi or not math.isfinite(err):
            break
    P = np.subtract(p, np.multiply(f, half, t))
    # a finite f . (g - Q) already implies finite f, g and Q
    if not (err < math.inf and np.isfinite(P).all()):
        return StepRecord(q, p, iterations, math.inf, force_evals, False)
    return StepRecord(Q, P, iterations, err, force_evals, converged, force=f, chord=D_next,
                      tolerance=tol)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Aggregated outcome of an N-step trajectory, ending at the arrays (q, p).

    For the energy-preserving map ``all_converged`` means every step met its
    tolerance and the true |H_out - H_in| is at most their sum plus a few
    ulps, the premise of the N delta acceptance bound. An ``h_out`` of +inf
    marks a failed trajectory (a step blew up, or H_out is not finite), which
    the sampler rejects; (q, p) is then the last all-finite state.

    ``u_in`` and ``u_out`` are U at the start and end positions as
    ``potential_energy`` gives them (``u_out`` is +inf on failure). For
    leapfrog, ``kick_in`` and ``kick_out`` are the first half-kick
    (tau/2) grad U at the two positions, arrays the integrator made and
    never writes again (``kick_out`` is None on failure); both are None for
    the energy-preserving map. A chain passes the values at the position it
    keeps to its next trajectory.
    """

    q: np.ndarray
    p: np.ndarray
    total_force_evaluations: int
    total_fpi_iterations: int
    all_converged: bool
    h_in: float
    h_out: float
    u_in: float
    u_out: float
    kick_in: Optional[np.ndarray] = None
    kick_out: Optional[np.ndarray] = None


def trajectory(
    state: PhaseState,
    potential,
    mass: MassMatrix,
    cfg: DmmSolverConfig,
    n_steps: int,
    per_step_hook: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
    u_in: Optional[float] = None,
) -> TrajectoryRecord:
    """Compose ``n_steps`` energy-preserving steps; H is formed at the two ends only.

    ``u_in``, when given, is U(state.q) as ``potential_energy`` gives it (a
    chain passes the value its last trajectory reported for the position it
    kept); without it the trajectory also evaluates U at its start, after
    ``hamiltonian`` has checked the dimensions. ``state`` is validated once;
    the steps run on its raw arrays. Each step after the first gets the
    previous step's final force ``StepRecord.force`` and, when that step
    predicted a valid chord, its input position and predicted chord
    diagonal, so its solve starts from Q_pc = a - (tau/2)^2 M^-1 F_prev or
    its chord-linearized form (see ``dmm_step``). The end check,
    |H_out - H_in| at most the sum of the steps' ``tolerance`` plus a few
    ulps of |H_in| + |H_out|, turns the target's discrete-gradient contract
    into a check on every trajectory: with every step converged, only a
    force that breaks it can fail the check, and then ``all_converged`` is
    False.
    ``per_step_hook`` is invoked after each step with the step's
    (q_in, q_out, f_out), where f_out = F(q_out, q_in) is the force of the
    solve's last update, so per-step Jacobian factors can be accumulated into
    the N-step product without recomputing that force.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    k_in = hamiltonian(state, potential, mass, 0.0)  # K(p): dimensions checked first
    if u_in is None:
        u_in = potential_energy(state.q, potential)
    h_in = u_in + k_in
    q, p = state.q, state.p
    total_f = total_it = 0
    all_converged, allowed = True, 0.0
    f_prev = chord_prev = None
    scratch = StepScratch(potential, mass, cfg)
    for _ in range(n_steps):
        rec = dmm_step(q, p, potential, mass, cfg, f_prev=f_prev, chord_prev=chord_prev,
                       scratch=scratch)
        total_f += rec.force_evaluations
        total_it += rec.fpi_iterations
        if not math.isfinite(rec.energy_error):
            return TrajectoryRecord(q, p, total_f, total_it, False, h_in, math.inf, u_in,
                                    math.inf)
        all_converged = all_converged and rec.converged
        allowed += rec.tolerance
        if per_step_hook is not None:
            per_step_hook(q, rec.q, rec.force)
        f_prev = rec.force
        chord_prev = None if rec.chord is None else (q, rec.chord)
        q, p = rec.q, rec.p
    u_out = potential_energy(q, potential)
    h_out = u_out + mass.kinetic(p)
    if not math.isfinite(h_out):
        return TrajectoryRecord(q, p, total_f, total_it, False, h_in, math.inf, u_in, math.inf)
    allowed += _ROUNDING * (abs(h_in) + abs(h_out))
    all_converged = all_converged and abs(h_out - h_in) <= allowed
    return TrajectoryRecord(q, p, total_f, total_it, all_converged, h_in, h_out, u_in, u_out)


def leapfrog_trajectory(
    state: PhaseState,
    potential,
    mass: MassMatrix,
    tau: float,
    n_steps: int,
    u_in: Optional[float] = None,
    kick_in: Optional[np.ndarray] = None,
) -> TrajectoryRecord:
    """Compose ``n_steps`` leapfrog steps with n_steps gradient evaluations,
    plus one for the first half-kick when ``kick_in`` is None.

    ``u_in`` and ``kick_in`` are U(state.q) and (tau/2) grad U(state.q) when
    the caller has them (a chain's values from its last trajectory); the
    trajectory never writes ``kick_in``, and evaluates what it is not given,
    after ``hamiltonian`` has checked the dimensions.
    Each step's end-of-step gradient is reused for the next step's first
    half-kick, and both half-kicks of a gradient subtract one (tau/2) grad U
    product from a copy of p, bit for bit as a kick-drift-kick loop that
    evaluates both gradients every step. A trajectory that leaves the finite
    range (steep targets can blow up the explicit update) fails: it reports
    h_out = +inf, which the sampler rejects.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if potential.gradient is None:
        raise ValueError("leapfrog requires a potential gradient")
    k_in = hamiltonian(state, potential, mass, 0.0)  # K(p): dimensions checked first
    if u_in is None:
        u_in = potential_energy(state.q, potential)
    h_in = u_in + k_in
    grad = potential.gradient
    half = 0.5 * tau
    tau_m = tau if mass.kind == "identity" else tau * mass.inverse_diagonal()
    buf, t = np.empty((2, state.dim))
    q, p = state.q, state.p.copy()
    total_f = n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        if kick_in is None:
            kick_in = np.multiply(grad(q), half)
            total_f += 1
        kick = kick_in
        for _ in range(n_steps):
            p -= kick
            q = q + np.multiply(p, tau_m, t)
            kick = np.multiply(grad(q), half, buf)
            p -= kick
        h_out = math.inf
        if np.isfinite(q).all() and np.isfinite(p).all():
            u_out = potential_energy(q, potential)
            h_out = u_out + mass.kinetic(p)
    if not math.isfinite(h_out):
        return TrajectoryRecord(state.q, state.p, total_f, 0, True, h_in, math.inf, u_in,
                                math.inf, kick_in)
    return TrajectoryRecord(q, p, total_f, 0, True, h_in, h_out, u_in, u_out, kick_in,
                            kick.copy())
