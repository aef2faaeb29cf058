"""Per-step Jacobian determinant factors of the energy-preserving map.

The one-step map has

    det J = det(I + (tau^2/4) M^-1 dF/dq) / det(I + (tau^2/4) M^-1 dF/dQ)

whose expansion in tau^2 starts at 1 + (tau^2/4) Tr(M^-1 (dF/dq - dF/dQ)).
Three truncations are offered: J0 = 1 (the gradient-free sampler), J1 (the
first-order trace term), and the exact ratio JFull. N-step products are
accumulated in log-magnitude + sign so long trajectories neither overflow nor
lose the sign.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .integrators import force_and_evals
from .phase import MassMatrix
from .targets import is_separable

logger = logging.getLogger(__name__)

DEFAULT_FD_STEP = float(np.sqrt(np.finfo(float).eps))

JACOBIAN_KINDS = ("J0", "J1", "JFull")
DERIVATIVE_SOURCES = ("analytic", "finite-difference")

_warned_dense_mass = False


@dataclass(frozen=True)
class JacobianMode:
    """Which determinant truncation to use and where its derivatives come from.

    ``derivative_source`` is ignored for J0. The finite-difference source uses
    forward differences of the force with step h_fd * max(1, |component|) and
    works for any target: it costs 3 force evaluations per step on separable
    targets and 2d + 1 otherwise. The analytic source requires the target to
    provide force-Jacobian diagonals (separable targets) or full matrices.
    """

    kind: str
    derivative_source: str = "finite-difference"
    h_fd: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if self.kind not in JACOBIAN_KINDS:
            raise ValueError(f"kind must be one of {JACOBIAN_KINDS}")
        if self.derivative_source not in DERIVATIVE_SOURCES:
            raise ValueError(f"derivative_source must be one of {DERIVATIVE_SOURCES}")
        if not (self.h_fd > 0.0):
            raise ValueError("h_fd must be positive")

    @classmethod
    def j0(cls) -> "JacobianMode":
        return cls("J0")

    @classmethod
    def j1(cls, derivative_source: str = "finite-difference", h_fd: float = DEFAULT_FD_STEP):
        return cls("J1", derivative_source, h_fd)

    @classmethod
    def jfull(cls, derivative_source: str = "finite-difference", h_fd: float = DEFAULT_FD_STEP):
        return cls("JFull", derivative_source, h_fd)


@dataclass(frozen=True)
class StepJacobian:
    """Scalar per-step determinant factor plus its bookkeeping."""

    value: float
    mode: JacobianMode
    extra_force_evals: int


def force_jacobians(
    Q: np.ndarray,
    q: np.ndarray,
    potential,
    source: str = "finite-difference",
    h_fd: float = DEFAULT_FD_STEP,
    dd_guard: float = 1e-8,
    diagonal_only: bool = False,
):
    """Jacobians of the force with respect to q and Q.

    Returns (d_q F, d_Q F, n_force_evaluations): full d x d matrices, or just
    their diagonals when ``diagonal_only``. The finite-difference source uses
    forward differences. On a separable target F_i depends only on
    (Q_i, q_i), so one perturbation of all components at once recovers each
    diagonal (3 force evaluations); other targets perturb one component at a
    time (2d + 1 force evaluations). Callers should hand in well-separated
    (Q, q) pairs, which a converged step provides.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q.size
    if source == "analytic":
        if diagonal_only:
            if potential.closed_form_force_jacobian_diag is None:
                raise ValueError("target provides no analytic force-Jacobian diagonals")
            d_q, d_Q = potential.closed_form_force_jacobian_diag(Q, q)
            return np.asarray(d_q, dtype=float), np.asarray(d_Q, dtype=float), 0
        if is_separable(potential):
            d_q, d_Q = potential.closed_form_force_jacobian_diag(Q, q)
            return np.diag(d_q), np.diag(d_Q), 0
        if potential.closed_form_force_jacobian is not None:
            d_q, d_Q = potential.closed_form_force_jacobian(Q, q)
            return np.asarray(d_q, dtype=float), np.asarray(d_Q, dtype=float), 0
        raise ValueError("target provides no analytic force Jacobians")

    f0, _ = force_and_evals(Q, q, potential, dd_guard)
    f0 = np.asarray(f0, dtype=float)
    if is_separable(potential):
        # one-colour column compression (Curtis, Powell & Reid 1974): the
        # same quotients the per-component loop forms on its diagonal
        hq = h_fd * np.maximum(1.0, np.abs(q))
        fq, _ = force_and_evals(Q, q + hq, potential, dd_guard)
        d_q = (np.asarray(fq) - f0) / hq
        hQ = h_fd * np.maximum(1.0, np.abs(Q))
        fQ, _ = force_and_evals(Q + hQ, q, potential, dd_guard)
        d_Q = (np.asarray(fQ) - f0) / hQ
        if diagonal_only:
            return d_q, d_Q, 3
        return np.diag(d_q), np.diag(d_Q), 3

    d_qF = np.empty((d, d))
    d_QF = np.empty((d, d))
    n_evals = 1
    for j in range(d):
        hq = h_fd * max(1.0, abs(q[j]))
        q_pert = q.copy()
        q_pert[j] += hq
        fq, _ = force_and_evals(Q, q_pert, potential, dd_guard)
        d_qF[:, j] = (np.asarray(fq) - f0) / hq
        hQ = h_fd * max(1.0, abs(Q[j]))
        Q_pert = Q.copy()
        Q_pert[j] += hQ
        fQ, _ = force_and_evals(Q_pert, q, potential, dd_guard)
        d_QF[:, j] = (np.asarray(fQ) - f0) / hQ
        n_evals += 2
    if diagonal_only:
        return np.diag(d_qF).copy(), np.diag(d_QF).copy(), n_evals
    return d_qF, d_QF, n_evals


def _warn_dense_mass_once():
    global _warned_dense_mass
    if not _warned_dense_mass:
        logger.warning(
            "J1 with a dense mass matrix needs full force-Jacobian matrices; "
            "expect O(d^2) extra work per step"
        )
        _warned_dense_mass = True


def _signed_log_ratio_diagonal(num_terms: np.ndarray, den_terms: np.ndarray) -> float:
    """Product ratio of diagonal determinant factors in log-magnitude + sign.

    Each product's log-magnitude is summed in index order, the way
    ``np.linalg.slogdet`` sums the pivots of a diagonal matrix, so the ratio
    matches the slogdet route on the embedded diagonals.
    """
    if (num_terms == 0.0).any() or (den_terms == 0.0).any():
        return 0.0
    sign = 1.0
    log_num = 0.0
    for t in num_terms:
        if t < 0.0:
            sign = -sign
        log_num += math.log(abs(t))
    log_den = 0.0
    for t in den_terms:
        if t < 0.0:
            sign = -sign
        log_den += math.log(abs(t))
    return sign * math.exp(log_num - log_den)


def step_jacobian(
    Q: np.ndarray,
    q: np.ndarray,
    tau: float,
    mass: MassMatrix,
    mode: JacobianMode,
    potential,
    dd_guard: float = 1e-8,
) -> StepJacobian:
    """Determinant factor of one step, evaluated at the converged (Q, q) pair.

    J0 is exactly 1. J1 adds the first trace term; with a diagonal mass only
    the 2d Jacobian diagonals are touched. JFull evaluates the determinant
    ratio through pivoted triangular factorization in log-magnitude + sign
    form; on a separable target with a diagonal mass both matrices are
    diagonal, so it takes the O(d) product of their diagonals instead, from
    either derivative source. A singular denominator yields factor 0, which
    rejects the proposal upstream.
    """
    if mode.kind == "J0":
        return StepJacobian(1.0, mode, 0)
    c = 0.25 * tau * tau
    if mode.kind == "J1":
        if mass.is_diagonal:
            d_q, d_Q, n = force_jacobians(
                Q, q, potential, mode.derivative_source, mode.h_fd, dd_guard, diagonal_only=True
            )
            trace = float(((d_q - d_Q) * mass.inverse_diagonal()).sum())
        else:
            _warn_dense_mass_once()
            d_qF, d_QF, n = force_jacobians(
                Q, q, potential, mode.derivative_source, mode.h_fd, dd_guard
            )
            trace = float(np.trace(mass.inverse_matmul(d_qF - d_QF)))
        return StepJacobian(1.0 + c * trace, mode, n)

    # JFull: separable targets with a diagonal mass stay O(d)
    if mass.is_diagonal and is_separable(potential):
        d_q, d_Q, n = force_jacobians(
            Q, q, potential, mode.derivative_source, mode.h_fd, dd_guard, diagonal_only=True
        )
        inv_m = mass.inverse_diagonal()
        value = _signed_log_ratio_diagonal(1.0 + c * (inv_m * d_q), 1.0 + c * (inv_m * d_Q))
        return StepJacobian(value, mode, n)

    d_qF, d_QF, n = force_jacobians(Q, q, potential, mode.derivative_source, mode.h_fd, dd_guard)
    d = q.size
    identity = np.eye(d)
    num = identity + c * mass.inverse_matmul(d_qF)
    den = identity + c * mass.inverse_matmul(d_QF)
    sign_n, logdet_n = np.linalg.slogdet(num)
    sign_d, logdet_d = np.linalg.slogdet(den)
    if sign_d == 0.0 or not math.isfinite(logdet_d):
        return StepJacobian(0.0, mode, n)
    if sign_n == 0.0 or not math.isfinite(logdet_n):
        return StepJacobian(0.0, mode, n)
    value = float(sign_n * sign_d * math.exp(logdet_n - logdet_d))
    return StepJacobian(value, mode, n)


def trajectory_jacobian(step_factors) -> float:
    """Product of per-step factors, accumulated in log-magnitude + sign.

    Returns 0 if any factor is 0; otherwise the signed product (the chain
    rule makes this the determinant of the N-step composition).
    """
    sign = 1.0
    log_sum = 0.0
    for factor in step_factors:
        v = factor.value if isinstance(factor, StepJacobian) else float(factor)
        if not math.isfinite(v):
            raise ValueError("jacobian factors must be finite")
        if v == 0.0:
            return 0.0
        if v < 0.0:
            sign = -sign
            v = -v
        log_sum += math.log(v)
    return sign * math.exp(log_sum)


class JacobianAccumulator:
    """Trajectory hook that folds per-step factors into the N-step product."""

    def __init__(self, mode: JacobianMode, tau: float, mass: MassMatrix, potential,
                 dd_guard: float = 1e-8):
        self.mode = mode
        self.tau = tau
        self.mass = mass
        self.potential = potential
        self.dd_guard = dd_guard
        self.sign = 1.0
        self.log_abs = 0.0
        self.zero = False
        self.extra_force_evals = 0
        self.n_steps = 0

    def __call__(self, q_in: np.ndarray, q_out: np.ndarray) -> None:
        self.n_steps += 1
        if self.mode.kind == "J0":
            return
        sj = step_jacobian(q_out, q_in, self.tau, self.mass, self.mode,
                           self.potential, self.dd_guard)
        self.extra_force_evals += sj.extra_force_evals
        if self.zero:
            return
        v = sj.value
        if v == 0.0 or not math.isfinite(v):
            self.zero = True
            return
        if v < 0.0:
            self.sign = -self.sign
            v = -v
        self.log_abs += math.log(v)

    @property
    def product(self) -> float:
        if self.zero:
            return 0.0
        return self.sign * math.exp(self.log_abs)
