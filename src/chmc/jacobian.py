"""Per-step Jacobian determinant factors of the energy-preserving map.

The one-step map has

    det J = det(I + (tau^2/4) dF/dq) / det(I + (tau^2/4) dF/dQ)

whose expansion in tau^2 starts at 1 + (tau^2/4) Tr(dF/dq - dF/dQ).
Three truncations are offered: J0 = 1 (the gradient-free sampler, which
builds no factor), J1 (the first-order trace term), and the exact ratio
JFull; their dF/dq and dF/dQ come in closed form or from forward
differences of the force the trajectory's solve uses, at the fixed step
``DEFAULT_FD_STEP`` = sqrt(eps), 2 probes per colour of columns: one colour
on a separable target, d otherwise. The trajectory decides the factor's
inputs, its solve's force and (tau/2)^2 and the mode's derivative source,
and hands each down. A factor has one form from the step to the N-step
product, the pair (sign, log|J|) that ``np.linalg.slogdet`` returns, with
(0, -inf) for a zero or non-finite factor: ``step_jacobian`` gives one
step's pair and ``JacobianAccumulator``, which ``integrators.trajectory``
builds, sums them into a running pair that it exponentiates once, so long
trajectories neither overflow nor lose the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import scalar_operand
from .targets import is_separable

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
    force-Jacobian diagonals (separable targets) or full matrices.
    """

    kind: str
    derivative_source: str = "finite-difference"

    def __post_init__(self):
        if self.kind not in JACOBIAN_KINDS:
            raise ValueError(f"kind must be one of {JACOBIAN_KINDS}")
        if self.derivative_source not in DERIVATIVE_SOURCES:
            raise ValueError(f"derivative_source must be one of {DERIVATIVE_SOURCES}")


def force_jacobians(
    Q: np.ndarray,
    q: np.ndarray,
    f0: np.ndarray,
    potential,
    source: str,
    force,
):
    """Jacobians of the force with respect to q and Q.

    Returns (d_q F, d_Q F, n_force_evaluations): the diagonals when the
    target declares separability (see ``is_separable``), full d x d matrices
    otherwise, from either source. Finite differences differentiate
    ``force``, the solve's F, forward from its value f0 = F(Q, q) (the
    analytic source ignores both ``force`` and f0), at the step
    ``DEFAULT_FD_STEP`` * max(1, |component|), by column compression
    (Curtis, Powell & Reid 1974): a colour, a mask of columns sharing no
    nonzero row, is perturbed at once in q and then in Q (2 probe
    evaluations). A separable target has one colour, ``True`` (2 probes);
    others one per column (2d). Callers should hand in
    well-separated (Q, q) pairs, which a converged step provides, as float
    vectors, and a capability returns float arrays; neither is converted here.
    """
    separable = is_separable(potential)
    if source == "analytic":
        closed_form = (potential.closed_form_force_jacobian_diag if separable
                       else potential.closed_form_force_jacobian)
        if closed_form is None:
            raise ValueError("target provides no analytic force Jacobians")
        d_q, d_Q = closed_form(Q, q)
        return d_q, d_Q, 0
    d = q.size
    hq = np.multiply(np.maximum(np.abs(q), _ONE), _FD_STEP)
    hQ = np.multiply(np.maximum(np.abs(Q), _ONE), _FD_STEP)
    up_q, up_Q = q + hq, Q + hQ
    # each colour's (q probe, Q probe, step in q, step in Q, d_q column, d_Q column);
    # a probe point is fresh, as a target may keep its arguments
    if separable:  # one colour, every column: its probes are up_q and up_Q
        d_q, d_Q = np.empty((2, d))
        colours = ((up_q, up_Q, hq, hQ, d_q, d_Q),)
    else:  # colour j perturbs column j alone
        eye = np.eye(d, dtype=bool)
        d_q, d_Q = np.empty((2, d, d))
        colours = zip(np.where(eye, up_q, q), np.where(eye, up_Q, Q), hq, hQ, d_q.T, d_Q.T)
    for x_q, x_Q, h_q, h_Q, col_q, col_Q in colours:
        np.divide(np.subtract(force(Q, x_q), f0, col_q), h_q, col_q)
        np.divide(np.subtract(force(x_Q, q), f0, col_Q), h_Q, col_Q)
    return d_q, d_Q, 2 if separable else 2 * d


def _pair(sign: float, log_abs: float, n: int) -> tuple:
    """(sign, log_abs, n), or (0, -inf, n) when the factor is zero or not finite."""
    if sign == 0.0 or not math.isfinite(log_abs):
        return 0.0, -math.inf, n
    return sign, log_abs, n


def step_jacobian(
    Q: np.ndarray,
    q: np.ndarray,
    f0: np.ndarray,
    c,
    mode: JacobianMode,
    potential,
    force,
) -> tuple:
    """Determinant factor of one step at the converged (Q, q) pair, as (sign, log|J|).

    ``f0``, the step's last force F(Q, q), and ``force``, the solve's F, are
    handed to ``force_jacobians`` for the finite-difference probes; ``c`` is
    (tau/2)^2, the trajectory's 0-d ``StepScratch.half2``.
    Returns (sign, log|J|, n_force_evaluations of the derivative probes),
    with (0, -inf) for a zero or non-finite factor, which rejects the
    proposal upstream. ``mode`` is J1 or JFull: J0 has no factor, and its
    trajectories build none. J1 is the sign and log of the first trace term
    1 + c Tr(...), which reads the diagonals of whatever ``force_jacobians``
    returns. JFull is the difference of the two determinants' slogdet pairs;
    for a separable target's diagonals it takes the O(d) sums of their logs
    instead, with the sign from the count of negative entries.
    """
    d_q, d_Q, n = force_jacobians(Q, q, f0, potential, mode.derivative_source, force)
    if mode.kind == "J1":
        if d_q.ndim == 2:
            d_q, d_Q = np.diagonal(d_q), np.diagonal(d_Q)
        value = 1.0 + c * float((d_q - d_Q).sum())
        log_abs = math.log(abs(value)) if value else -math.inf
        return _pair(math.copysign(1.0, value), log_abs, n)
    if d_q.ndim == 1:
        num = _ONE + c * d_q
        den = _ONE + c * d_Q
        with np.errstate(divide="ignore", invalid="ignore"):
            log_abs = float(np.log(np.abs(num)).sum() - np.log(np.abs(den)).sum())
        negatives = np.count_nonzero(num < _ZERO) + np.count_nonzero(den < _ZERO)
        return _pair(-1.0 if negatives % 2 else 1.0, log_abs, n)
    identity = np.eye(q.size)
    sign_n, log_n = np.linalg.slogdet(identity + c * d_q)
    sign_d, log_d = np.linalg.slogdet(identity + c * d_Q)
    return _pair(float(sign_n * sign_d), float(log_n) - float(log_d), n)


class JacobianAccumulator:
    """A J1 or JFull trajectory's Jacobian factor, the N-step product of step factors.

    ``integrators.trajectory`` builds one on its solve's ``StepScratch``
    values, (tau/2)^2 as ``half2`` and the force F, and calls it after each
    step with (q_in, q_out, f_out); f_out, the force F(q_out, q_in) of the
    step's last update, is the probes' base value.
    It keeps the product as one running (sign, log_abs) pair: the product of
    the steps' signs and the sum of their log|J| in step order.
    """

    def __init__(self, mode: JacobianMode, half2, potential, force):
        self.mode = mode
        self.half2 = half2
        self.potential = potential
        self.force = force
        self.sign = 1.0
        self.log_abs = 0.0
        self.extra_force_evals = 0

    def __call__(self, q_in: np.ndarray, q_out: np.ndarray, f_out: np.ndarray) -> None:
        sign, log_abs, n = step_jacobian(q_out, q_in, f_out, self.half2, self.mode,
                                         self.potential, self.force)
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
