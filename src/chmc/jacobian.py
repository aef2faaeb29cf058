"""Per-step Jacobian determinant factors of the energy-preserving map.

The one-step map has

    det J = det(I + (tau^2/4) dF/dq) / det(I + (tau^2/4) dF/dQ)

whose expansion in tau^2 starts at 1 + (tau^2/4) Tr(dF/dq - dF/dQ).
Three truncations are offered: J0 = 1 (the gradient-free sampler, which
builds no factor), J1 (the first-order trace term), and the exact ratio
JFull; their dF/dq and dF/dQ come in closed form or from forward
differences of the force the trajectory's solve uses, at the fixed step
``DEFAULT_FD_STEP`` = sqrt(eps), 2 probes per colour of columns: one colour
on a separable target, d otherwise.

A chain settles the factor's route once, when ``run_chain`` builds its one
``StepScratch`` from the target, the solver and the ``JacobianMode``: none
for J0; separable or dense (the target declares
``closed_form_force_jacobian_diag`` or not); the closed-form Jacobians or
the finite-difference probes of the scratch's force (``analytic_jacobians``,
which refuses an analytic source that the target cannot serve, the one
capability check and so part of ``run_chain``'s boundary); J1 or JFull;
(tau/2)^2; and the dense route's boolean identity. Each J1 or JFull trajectory of the
chain runs a ``JacobianAccumulator`` over that route, which hands the
scratch to ``step_jacobian`` and on to ``force_jacobians`` each step;
neither sees the target. A factor has one form from the step to the N-step
product, the pair (sign, log|J|) that ``np.linalg.slogdet`` returns, with
(0, -inf) for a zero or non-finite factor: ``step_jacobian`` gives one
step's pair and the accumulator sums them into a running pair that it
exponentiates once, so long trajectories neither overflow nor lose the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import require_choice, scalar_operand

DEFAULT_FD_STEP = float(np.sqrt(np.finfo(float).eps))
_ZERO, _ONE, _FD_STEP = map(scalar_operand, (0.0, 1.0, DEFAULT_FD_STEP))

JACOBIAN_KINDS = ("J0", "J1", "JFull")
DERIVATIVE_SOURCES = ("analytic", "finite-difference")


@dataclass(frozen=True)
class JacobianMode:
    """Which determinant truncation to use and where its derivatives come from.

    ``derivative_source`` is ignored for J0, which has no factor. The
    finite-difference source differentiates the force the solve uses, with
    step ``DEFAULT_FD_STEP`` * max(1, |component|), and works for any
    target. Its base value F(Q, q) is the force of the solve's last update,
    which the trajectory hands over, so its probes cost 2 force evaluations
    per colour of columns: 2 per step on separable targets (one colour), 2d
    otherwise. The analytic source requires the target to provide
    force-Jacobian diagonals (separable targets) or full matrices: building
    the chain's ``StepScratch`` refuses a target that provides neither.
    """

    kind: str
    derivative_source: str = "finite-difference"

    def __post_init__(self):
        require_choice("kind", self.kind, JACOBIAN_KINDS)
        require_choice("derivative_source", self.derivative_source, DERIVATIVE_SOURCES)


def analytic_jacobians(mode: JacobianMode, found):
    """The closed-form force Jacobians that ``mode`` takes: ``found``, the
    target's diagonal capability on a separable target, else its dense one.

    ``StepScratch.__init__`` is the one caller, so the check runs once per
    chain, before its first draw and with no target call. None for J0 and
    for the finite-difference source. Raises ValueError when the analytic
    source finds neither capability, so no factor falls back to finite
    differences.
    """
    if mode.kind == "J0" or mode.derivative_source != "analytic":
        return None
    if found is None:
        raise ValueError("derivative_source analytic needs the target's "
                         "closed_form_force_jacobian_diag or closed_form_force_jacobian")
    return found


def force_jacobians(Q: np.ndarray, q: np.ndarray, f0: np.ndarray, route):
    """Jacobians of the force with respect to q and Q, on ``route``, a chain's ``StepScratch``.

    Returns (d_q F, d_Q F, n_force_evaluations): the diagonals when
    ``route.separable``, full d x d matrices otherwise. With
    ``route.closed_form`` they are its value at (Q, q), at no force
    evaluation. Otherwise finite differences differentiate ``route.force``,
    the solve's F, forward from its value f0 = F(Q, q), at the step
    ``DEFAULT_FD_STEP`` * max(1, |component|), by column compression
    (Curtis, Powell & Reid 1974): a colour, a mask of columns sharing no
    nonzero row, is perturbed at once in q and then in Q (2 probe
    evaluations). A separable target has one colour, ``True`` (2 probes);
    others one per column, the rows of ``route.eye`` (2d). Callers should
    hand in well-separated (Q, q) pairs, which a converged step provides, as
    float vectors, and a capability returns float arrays; neither is
    converted here.
    """
    if route.closed_form is not None:
        return (*route.closed_form(Q, q), 0)
    hq = np.multiply(np.maximum(np.abs(q), _ONE), _FD_STEP)
    hQ = np.multiply(np.maximum(np.abs(Q), _ONE), _FD_STEP)
    up_q, up_Q = q + hq, Q + hQ
    # each colour's (q probe, Q probe, step in q, step in Q, d_q column, d_Q column);
    # a probe point is fresh, as a target may keep its arguments
    if route.separable:  # one colour, every column: its probes are up_q and up_Q
        d_q, d_Q = np.empty((2, q.size))
        colours = ((up_q, up_Q, hq, hQ, d_q, d_Q),)
    else:  # colour j perturbs column j alone
        d_q, d_Q = np.empty((2, q.size, q.size))
        colours = zip(np.where(route.eye, up_q, q), np.where(route.eye, up_Q, Q), hq, hQ,
                      d_q.T, d_Q.T)
    for x_q, x_Q, h_q, h_Q, col_q, col_Q in colours:
        np.divide(np.subtract(route.force(Q, x_q), f0, col_q), h_q, col_q)
        np.divide(np.subtract(route.force(x_Q, q), f0, col_Q), h_Q, col_Q)
    return d_q, d_Q, 2 if route.separable else 2 * q.size


def _pair(sign: float, log_abs: float, n: int) -> tuple:
    """(sign, log_abs, n), or (0, -inf, n) when the factor is zero or not finite."""
    if sign == 0.0 or not math.isfinite(log_abs):
        return 0.0, -math.inf, n
    return sign, log_abs, n


def step_jacobian(Q: np.ndarray, q: np.ndarray, f0: np.ndarray, route) -> tuple:
    """Determinant factor of one step at the converged (Q, q) pair, on ``route``.

    ``f0`` is the step's last force F(Q, q), the base value of the
    finite-difference probes; c = ``route.half2`` is (tau/2)^2, the
    chain's 0-d ``StepScratch.half2``. Returns (sign, log|J|,
    n_force_evaluations of the derivative probes), with (0, -inf) for a zero
    or non-finite factor, which rejects the proposal upstream. J1 is the
    sign and log of the first trace term 1 + c Tr(...), which reads the
    diagonals of whatever ``force_jacobians`` returns. JFull is the
    difference of the two determinants' slogdet pairs, with ``route.eye`` as
    the identity; for a separable target's diagonals it takes the
    O(d) sums of their logs instead, with the sign from the count of
    negative entries.
    """
    d_q, d_Q, n = force_jacobians(Q, q, f0, route)
    c = route.half2
    if not route.jfull:
        if not route.separable:
            d_q, d_Q = np.diagonal(d_q), np.diagonal(d_Q)
        value = 1.0 + c * float((d_q - d_Q).sum())
        log_abs = math.log(abs(value)) if value else -math.inf
        return _pair(math.copysign(1.0, value), log_abs, n)
    if route.separable:
        num = _ONE + c * d_q
        den = _ONE + c * d_Q
        with np.errstate(divide="ignore", invalid="ignore"):
            log_abs = float(np.log(np.abs(num)).sum() - np.log(np.abs(den)).sum())
        negatives = np.count_nonzero(num < _ZERO) + np.count_nonzero(den < _ZERO)
        return _pair(-1.0 if negatives % 2 else 1.0, log_abs, n)
    sign_n, log_n = np.linalg.slogdet(route.eye + c * d_q)
    sign_d, log_d = np.linalg.slogdet(route.eye + c * d_Q)
    return _pair(float(sign_n * sign_d), float(log_n) - float(log_d), n)


class JacobianAccumulator:
    """A J1 or JFull trajectory's Jacobian factor, the N-step product of step factors.

    ``integrators.trajectory`` builds one over its chain's ``StepScratch``,
    whose construction settled the route that ``step_jacobian`` and
    ``force_jacobians`` read (see the module docstring), and calls it after
    each step with (q_in, q_out, f_out); f_out, the force F(q_out, q_in) of
    the step's last update, is the probes' base value. It keeps only the
    running product as one (sign, log_abs) pair, the product of the steps'
    signs and the sum of their log|J| in step order, and the count of probe
    forces.
    """

    def __init__(self, route):
        self.route = route
        self.sign, self.log_abs, self.extra_force_evals = 1.0, 0.0, 0

    def __call__(self, q_in: np.ndarray, q_out: np.ndarray, f_out: np.ndarray) -> None:
        sign, log_abs, n = step_jacobian(q_out, q_in, f_out, self.route)
        self.sign *= sign
        self.log_abs += log_abs
        self.extra_force_evals += n

    @property
    def product(self) -> float:
        """sign * exp(log_abs): +-inf above the float range, 0 below it or after a zero."""
        if self.sign == 0.0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf
