"""Leapfrog and the symmetrized energy-preserving (divided-difference) map.

The implicit energy-preserving step for H(q, p) = U(q) + p . p / 2

    Q_i = q_i + (tau/2) (P_i + p_i)
    P_i = p_i - (tau/2) F_i(Q, q)

is solved as a predictor-corrector. Eliminating P leaves the position
equation Q = g(Q) with g(Q) = a - (tau/2)^2 F(Q, q), where
a = q + tau p is formed once per step. The predictor is the first
iterate Q0. On a trajectory's first step it is the Euler guess Q0 = a. On
every later step the previous step's final force F_prev = F(q, q_prev),
which the trajectory carries over as ``StepRecord.force``, is frozen in g:
Q_pc = a - (tau/2)^2 F_prev, at no target call (Hairer, Lubich &
Wanner, Geometric Numerical Integration, VIII.6, "starting
approximations"). As p = p_prev - (tau/2) F_prev, this is the momentum
extrapolation q + (tau/2) (3p - p_prev). On a separable target the
previous step also hands over a predicted chord diagonal
D_pred = 1 + (tau/2)^2 J, a Newton model of that force,
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
D_pred = 1 + (tau/2)^2 (2 dF/dQ - dF/dq) (see ``_chord_scale``). On a
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
with f = F(Q, q), P = p - (tau/2) f and g = q + (tau/2) (P + p), the
next update's target position,

    H(Q, P) - H(q, p) = f . (Q - g) / 2

exactly (McLachlan, Quispel & Robidoux, "Geometric integration using
discrete gradients", Phil. Trans. R. Soc. A 357, 1999). A trajectory
evaluates U only at its end (and at its start unless the caller passes
U(q) in), and clears ``all_converged`` when the true
|H_out - H_in| exceeds the sum of its steps' tolerances (n_steps * delta
above the rounding floor) plus a few ulps of |H_in| + |H_out|, which the
identity rules out unless a target's force breaks the contract.

On a separable target the Jacobian I + (tau/2)^2 dF/dQ of Q - g(Q) is a
diagonal D, and the update becomes the chord (simplified Newton) step
Q <- Q + (g - Q) / D (Hairer, Lubich & Wanner, Geometric Numerical
Integration, VIII.6). D is frozen at one point X per step. With the
residual R(Q) = Q - g(Q), the solution is Q* = Q0 - R(Q0) / S, where S, the
secant slope of R between Q0 and Q*, equals R' = D at their midpoint up to
O(|Q* - Q0|^2). With a predicted chord, Q* - Q0 ~ (g(Q0) - Q0) / D_pred, so

    X = Q0 + (g(Q0) - Q0) / (2 D_pred)

estimates that midpoint and the first update lands far closer to Q* than a
chord frozen at either end. Without one, X = g(Q0), the first plain update,
which lies closer to the solution than Q0. The chord step has the same fixed
point and stopping rule, needs one force-Jacobian-diagonal call per step,
and cuts the number of updates: on the quartic at tau = 0.1 and
delta = 1e-8, from exact draws, about 1.1 per step at d = 2560 and 1.03 at
d = 40. Other targets use the plain update Q <- g.

Leapfrog merges each step's closing half-kick with the next step's opening
one (Neal 2011, "MCMC using Hamiltonian dynamics"). It runs on the scaled
momentum w = tau p, formed once as tau (p - (tau/2) grad U(q)); a step is
the drift q <- q + w and one kick w <- w - tau^2 grad U(q), and at the end
p = w / tau + (tau/2) grad U(q). Both trajectories report U, and leapfrog
its half-kick, at each end, with the bits of a fresh evaluation, for the
chain to carry to its next trajectory (see ``samplers.StateCache``).

Neither trajectory sets a floating-point policy: both run under their
caller's. ``samplers.run_chain`` holds ``np.errstate(over="ignore",
invalid="ignore")`` around every iteration, so a trajectory that overflows
fails (h_out = +inf) without a warning; a direct call warns as NumPy does.

Both loops write their temporaries into work rows: a ``StepScratch`` made
once per chain for ``dmm_step``, and w and one row made once per trajectory
for leapfrog. Their ufunc scalars (tau, tau/2, tau^2, (tau/2)^2 and the
constants) are 0-d arrays made once per chain, trajectory or module (see
``scalar_operand``). Each step writes a work row before it reads it, and
arrays that leave a step or reach the target (the iterates Q, the Jacobian
point X, P, the force, the (D, D_next) block) are fresh, so the trajectories
of a chain share its scratch and each in-place operation rounds as the
expression it replaces. The scratch is also the chain's one step
configuration: ``samplers.run_chain`` builds it from the target, the
``DmmSolverConfig`` and the ``JacobianMode``, and building it resolves the
force, reads the target's force-Jacobian capabilities and settles the
Jacobian factor's route, once. A J1 or JFull trajectory's factor
(``JacobianAccumulator``) runs over that route, so it probes the solve's
force, takes the same (tau/2)^2 and follows the same separability
declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jacobian import JacobianAccumulator, JacobianMode, analytic_jacobians
from .phase import (PhaseState, hamiltonian, kinetic, potential_energy, require_integer,
                    require_positive, scalar_operand)


@dataclass(frozen=True)
class DmmSolverConfig:
    """Knobs of the implicit energy-preserving step.

    tau: time step, > 0 and finite.
    delta: absolute per-step energy tolerance, > 0 and finite.
    max_fpi: cap on fixed-point updates per step, an integer >= 1.
    dd_guard: base of the relative guard of ``divided_difference_force``;
        component i uses the threshold dd_guard * max(1, |q_i|). Only that
        black-box force reads it, so it has no effect on a target with a
        closed-form force, which every target a YAML spec builds has.
    """

    tau: float
    delta: float = 1e-8
    max_fpi: int = 10
    dd_guard: float = 1e-8

    def __post_init__(self):
        require_positive("tau", self.tau)
        require_positive("delta", self.delta)
        require_integer("max_fpi", self.max_fpi, 1)
        require_positive("dd_guard", self.dd_guard)


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one energy-preserving step, ending at the arrays (q, p).

    The step made ``fpi_iterations`` + 1 forces: the first iterate's and
    one per update. ``energy_error`` is |f . (Q - g)| / 2 at the last
    update, the discrete-gradient value of |H(q, p) - H(q_in, p_in)| (see
    the module docstring); it is inf when the solve blew up, in which case
    (q, p) is the input pair and the caller must reject. ``force`` is F(q, q_in), the
    force of the last update, so p = p_in - (tau/2) force (None when the step
    failed); the finite-difference Jacobian probes reuse it as their base
    value, and the next step of a trajectory freezes it in its predictor.
    ``chord`` is the next step's predicted chord diagonal
    D_next = 1 + (tau/2)^2 (2 dF/dQ - dF/dq), from this step's
    Jacobian-diagonal call, which the next step of a trajectory uses in its
    predictor and for its Jacobian point (see ``dmm_step`` and the module
    docstring). It is None unless every entry is finite and > 0, and
    always None on a target without the chord solve. ``tolerance`` is what
    the error was tested against: delta, or its larger rounding floor.
    """

    q: np.ndarray
    p: np.ndarray
    fpi_iterations: int
    energy_error: float
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

    Q and q are float vectors of the target's dimension, as the step hands
    them over. Returns (force, n_potential_evaluations). Non-finite potential
    values propagate into the force and are handled by rejection upstream.
    """
    d = q.size
    dq = Q - q
    eps = guard * np.maximum(1.0, np.abs(q))
    x = q.copy()  # ascending substitution path, starts at q
    y = Q.copy()  # descending substitution path, starts at Q
    u_x_prev = float(potential.evaluate(x))
    u_y_prev = float(potential.evaluate(y))
    n_evals = 2 + 2 * d
    force = np.empty(d)
    for i in range(d):
        guarded = abs(dq[i]) < eps[i]
        if guarded:
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
            n_evals += 4
        # advance both paths past component i
        x[i] = Q[i]
        u_x = float(potential.evaluate(x))
        y[i] = q[i]
        u_y = float(potential.evaluate(y))
        if not guarded:
            force[i] = ((u_x - u_x_prev) + (u_y_prev - u_y)) / dq[i]
        u_x_prev, u_y_prev = u_x, u_y
    return force, n_evals


_ROUNDING = 4.0 * math.ulp(1.0)  # a few ulps: the energy tests' rounding floor


def _norm(w):
    """2-norm of a non-negative vector, scaled in place by its largest entry so
    that no square overflows where the norm itself is finite."""
    s = float(w.max())
    if not 0.0 < s < math.inf:
        return s
    np.divide(w, s, w)
    return s * math.sqrt(float(w @ w))


_ONE, _TWO = scalar_operand(1.0), scalar_operand(2.0)


class StepScratch:
    """Everything ``dmm_step`` and a Jacobian factor read and write, made once per
    chain from a target, a ``DmmSolverConfig`` and a ``JacobianMode``.

    The step reads ``cfg`` itself (delta, max_fpi), ``force`` F(Q, q) (the
    target's closed form, else divided differences of U under ``cfg.dd_guard``
    with their count dropped), ``jacobian_diag`` (the target's
    ``closed_form_force_jacobian_diag``, None exactly when it is not
    separable) for its chord, the ufunc scalars tau, tau/2 and (tau/2)^2 (see
    ``scalar_operand``) and the work rows a, g, r and t, of the target's
    dimension, which every step writes before it reads. Construction also
    settles the route of the Jacobian factor (see ``jacobian``): ``factor``
    (False for J0, whose trajectories build none), ``separable``,
    ``closed_form`` (``analytic_jacobians``' pick of the diagonal or the
    ``closed_form_force_jacobian``), ``jfull`` (JFull, not J1) and, for a
    factor on the dense route, ``eye``, the boolean identity that serves as
    the probes' colour masks and as JFull's identity (adding it casts each
    entry to 1.0 or 0.0 exactly). It is the one reader of the target's
    force-Jacobian capabilities, and refuses a J1 or JFull ``mode`` with the
    analytic source whose target has neither, with no target call."""

    def __init__(self, potential, cfg: DmmSolverConfig, mode: JacobianMode = JacobianMode("J0")):
        self.cfg = cfg
        self.force = potential.closed_form_force
        if self.force is None:
            self.force = lambda Q, q: divided_difference_force(Q, q, potential, cfg.dd_guard)[0]
        self.jacobian_diag = potential.closed_form_force_jacobian_diag
        self.separable = self.jacobian_diag is not None
        self.closed_form = analytic_jacobians(
            mode, self.jacobian_diag or potential.closed_form_force_jacobian)
        self.factor, self.jfull = mode.kind != "J0", mode.kind == "JFull"
        self.eye = np.eye(potential.dim, dtype=bool) if self.factor and not self.separable else None
        half = 0.5 * cfg.tau
        self.tau, self.half, self.half2 = map(scalar_operand, (cfg.tau, half, half * half))
        self.a, self.g, self.r, self.t = np.empty((4, potential.dim))


def _chord_scale(diagonals, half2):
    """Chord diagonals (D, D_next) from one Jacobian-diagonal pair (dF/dq, dF/dQ).

    With half2 = (tau/2)^2 (a 0-d array in ``dmm_step``), D = 1 + half2 dF/dQ
    is this step's chord and D_next = 1 + half2 (2 dF/dQ - dF/dq) the next
    step's predicted chord, the rows of one fresh (2, d) block that one min
    and one max check (row by row only when that fails). Each is None unless finite and > 0 (a
    non-convex region can make the frozen Newton step point the wrong way);
    without D the step keeps the plain update, without D_next the next step
    starts from Q_pc.
    """
    d_q, d_Q = diagonals
    block = np.empty((2, np.size(d_Q)))
    D, D_next = block
    np.multiply(d_Q, half2, D)
    np.subtract(np.multiply(d_Q, _TWO, D_next), d_q, D_next)
    np.multiply(D_next, half2, D_next)
    np.add(block, _ONE, block)
    if block.min() > 0.0 and block.max() < math.inf:  # NaN fails the first comparison
        return D, D_next
    return tuple(row if row.min() > 0.0 and row.max() < math.inf else None for row in block)


def dmm_step(
    q: np.ndarray,
    p: np.ndarray,
    scratch: StepScratch,
    f_prev: Optional[np.ndarray] = None,
    chord_prev: Optional[tuple] = None,
) -> StepRecord:
    """One implicit energy-preserving step from the arrays (q, p), with the
    target and configuration of ``scratch``, its chain's ``StepScratch``.

    The first iterate Q0 costs one force evaluation. With a = q + tau p
    it is a on a trajectory's first step (``f_prev`` None); later, ``f_prev``
    is the previous step's ``StepRecord.force`` and it is
    Q_pc = a - (tau/2)^2 f_prev, or q_prev + (Q_pc - q_prev) / D_pred
    with ``chord_prev`` = (q_prev, D_pred), the previous step's input
    position and ``StepRecord.chord`` (see the module docstring).
    At least one fixed-point update always runs before the first energy
    test: the first iterate is a guess, and testing it would let a guess
    that happens to sit on the input energy surface return the input
    unchanged.
    The energy test is the discrete-gradient identity, so the solve never
    calls the target's ``evaluate`` (a divided-difference force does, to form F).
    The last iterate is returned whether or not the tolerance was met
    (``converged`` records which); an unconverged iterate still enters the
    acceptance ratio through the trajectory's true energy error.

    Each update works on the position alone: with a = q + tau p formed
    once, the next target is g = a - (tau/2)^2 f, the residual
    r = g - Q serves both the energy test |f . r| / 2 and the chord update
    Q + r / D, and the momentum P = p - (tau/2) f is formed once, at exit.
    An update that misses delta still converges when its error is within a
    few ulps of the 2-norm of the vector f_i (|Q_i| + |g_i|), the rounding
    floor of f . r: the rounding errors of its d products add like
    independent draws, so they grow as sqrt(d), not as d.

    On a separable target, one ``closed_form_force_jacobian_diag`` call per
    step, at X = Q0 + (g(Q0) - Q0) / (2 D_pred) (X = g(Q0) without
    ``chord_prev``), sets up this step's chord update and ``StepRecord.chord``
    (see ``_chord_scale``). Other targets take plain updates.
    """
    s, cfg = scratch, scratch.cfg
    half, half2 = s.half, s.half2
    a, g, r, t = s.a, s.g, s.r, s.t
    np.add(q, np.multiply(p, s.tau, a), a)
    Q = a if f_prev is None else np.subtract(a, np.multiply(f_prev, half2, t), t)
    if chord_prev is None:
        Q = Q.copy()
    else:
        q_prev, D_pred = chord_prev
        Q = q_prev + np.divide(np.subtract(Q, q_prev, t), D_pred, t)
    f = s.force(Q, q)
    np.subtract(a, np.multiply(f, half2, g), g)
    np.subtract(g, Q, r)
    D = D_next = None
    if s.jacobian_diag is not None:
        X = (g.copy() if chord_prev is None
             else Q + np.divide(r, np.multiply(chord_prev[1], _TWO, t), t))
        D, D_next = _chord_scale(s.jacobian_diag(X, q), half2)
    iterations = 0
    while True:
        Q = g.copy() if D is None else Q + np.divide(r, D, t)
        f = s.force(Q, q)
        iterations += 1
        np.subtract(a, np.multiply(f, half2, g), g)
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
        return StepRecord(q, p, iterations, math.inf, False)
    return StepRecord(Q, P, iterations, err, converged, force=f, chord=D_next, tolerance=tol)


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
    keeps to its next trajectory. ``jacobian`` is a J1 or JFull trajectory's
    factor over the steps it completed, None for J0 and leapfrog (J = 1).
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
    jacobian: Optional[JacobianAccumulator] = None


def trajectory(
    state: PhaseState,
    potential,
    scratch: StepScratch,
    n_steps: int,
    u_in: Optional[float] = None,
) -> TrajectoryRecord:
    """Compose ``n_steps`` energy-preserving steps; H is formed at the two ends only.

    ``scratch`` is the chain's ``StepScratch`` on ``potential``, which
    settled the step and the Jacobian factor's route when ``run_chain``
    built it; the trajectory builds nothing of its own but the factor's
    running product. ``n_steps`` is an integer >= 1, as ``SamplerConfig``
    makes it; it is not checked here. ``u_in``, when given, is U(state.q) as
    ``potential_energy`` gives it (a chain passes the value its last
    trajectory reported for the position it kept); without it
    ``hamiltonian`` evaluates U at the start. The steps run on the raw
    arrays of ``state``, and each after the first starts its solve from the
    previous step's force and predicted chord (see ``dmm_step``). ``all_converged`` also needs
    |H_out - H_in| within the sum of the steps' ``tolerance`` plus a few
    ulps of |H_in| + |H_out|, which only a force that breaks the
    discrete-gradient contract can miss (see the module docstring).

    When the scratch carries a factor (J1 or JFull) it builds a
    ``JacobianAccumulator`` over the scratch, feeds it each step's
    (q_in, q_out, F(q_out, q_in)), the last update's force, so no probe
    recomputes it, and returns it as ``jacobian``; for J0 it builds none.
    """
    u_in, h_in = hamiltonian(state, potential, u_in)
    q, p = state.q, state.p
    total_f = total_it = 0
    all_converged, allowed = True, 0.0
    f_prev = chord_prev = None
    acc = JacobianAccumulator(scratch) if scratch.factor else None
    for _ in range(n_steps):
        rec = dmm_step(q, p, scratch, f_prev=f_prev, chord_prev=chord_prev)
        total_f += rec.fpi_iterations + 1
        total_it += rec.fpi_iterations
        if not math.isfinite(rec.energy_error):
            break
        all_converged = all_converged and rec.converged
        allowed += rec.tolerance
        if acc is not None:
            acc(q, rec.q, rec.force)
        f_prev = rec.force
        chord_prev = None if rec.chord is None else (q, rec.chord)
        q, p = rec.q, rec.p
    else:  # every step finite: check the end energy
        u_out = potential_energy(q, potential)
        h_out = u_out + kinetic(p)
        if math.isfinite(h_out):
            allowed += _ROUNDING * (abs(h_in) + abs(h_out))
            all_converged = all_converged and abs(h_out - h_in) <= allowed
            return TrajectoryRecord(q, p, total_f, total_it, all_converged, h_in, h_out, u_in,
                                    u_out, jacobian=acc)
    return TrajectoryRecord(q, p, total_f, total_it, False, h_in, math.inf, u_in, math.inf,
                            jacobian=acc)


def leapfrog_trajectory(
    state: PhaseState,
    potential,
    tau: float,
    n_steps: int,
    u_in: Optional[float] = None,
    kick_in: Optional[np.ndarray] = None,
) -> TrajectoryRecord:
    """Compose ``n_steps`` leapfrog steps with n_steps gradient evaluations,
    plus one for the first half-kick when ``kick_in`` is None.

    ``n_steps`` is an integer >= 1, ``tau`` finite and > 0 and
    ``potential.gradient`` present, as ``SamplerConfig`` and ``run_chain``
    make them; none is checked here. ``u_in`` and ``kick_in`` are U(state.q)
    and (tau/2) grad U(state.q) when the caller has them (a chain's values
    from its last trajectory); the trajectory never writes ``kick_in``, and
    evaluates what it is not given.
    The loop carries w = tau p and makes one kick tau^2 grad U per step (see
    the module docstring); p = w / tau + (tau/2) grad U is formed once, after
    the last step. This is the kick-drift-kick map with its inner half-kicks
    merged, so it agrees with a loop that evaluates both gradients every step
    up to rounding, not bit for bit. A trajectory that leaves the finite range
    (steep targets can blow up the explicit update) fails: it reports
    h_out = +inf, which the sampler rejects. Its overflow and invalid
    operations warn or not as the caller's floating-point policy says, which
    ``run_chain`` sets (see the module docstring).
    """
    u_in, h_in = hamiltonian(state, potential, u_in)
    grad = potential.gradient
    dt, half, dt2 = map(scalar_operand, (tau, 0.5 * tau, tau * tau))
    buf = np.empty(state.dim)
    q = state.q
    total_f = n_steps
    if kick_in is None:
        kick_in = np.multiply(grad(q), half)
        total_f += 1
    w = np.subtract(state.p, kick_in)
    np.multiply(w, dt, w)
    for _ in range(n_steps):
        q = q + w
        g = grad(q)
        np.subtract(w, np.multiply(g, dt2, buf), w)
    kick = np.multiply(g, half)
    p = np.add(np.divide(w, dt, w), kick, w)
    h_out = math.inf
    if np.isfinite(q).all() and np.isfinite(p).all():
        u_out = potential_energy(q, potential)
        h_out = u_out + kinetic(p)
    if not math.isfinite(h_out):
        return TrajectoryRecord(state.q, state.p, total_f, 0, True, h_in, math.inf, u_in,
                                math.inf, kick_in)
    return TrajectoryRecord(q, p, total_f, 0, True, h_in, h_out, u_in, u_out, kick_in, kick)
