"""Streaming diagnostics: the covariance error trace and the chain summary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase import require_integer


class CovarianceTracker:
    """Welford ``count``, ``mean`` and co-moment ``scatter`` of the retained
    draws, with an error trace.

    Full mode keeps the d x d ``scatter``, diagonal mode only its length-d
    diagonal (a 40960^2 matrix would not fit in memory). ``target_cov``, a
    scalar, a length-d vector or a d x d matrix, is reduced to the kept shape
    once; any other shape, or a ``dim`` or ``record_stride`` that is no
    integer >= 1, raises ``ValueError`` at construction. Every
    ``record_stride``-th update from the second on appends (iteration,
    max|scatter / (count - 1) - target|), the l-infinity error of the sample
    covariance, to ``trace``: a plot-ready curve, not a per-iteration dump.
    """

    def __init__(self, dim: int, target_cov, diagonal: bool = False, record_stride: int = 10):
        dim = require_integer("dim", dim, 1)
        require_integer("record_stride", record_stride, 1)
        t = np.array(target_cov, dtype=float)
        if t.ndim > 2 or t.shape != (dim,) * t.ndim:
            raise ValueError(f"target_cov must be a scalar, a length-{dim} vector or a "
                             f"{dim} x {dim} matrix, got shape {t.shape}")
        if diagonal:
            self.target = np.diag(t) if t.ndim == 2 else np.full(dim, t)
        else:
            self.target = t if t.ndim == 2 else np.diag(np.full(dim, t))
        self.diagonal = bool(diagonal)
        self.record_stride = record_stride
        self.count = 0
        self.mean = np.zeros(dim)
        self.scatter = np.zeros(dim) if self.diagonal else np.zeros((dim, dim))
        self.trace: list[tuple[int, float]] = []

    def update(self, iteration: int, theta: np.ndarray) -> None:
        self.count += 1
        delta = theta - self.mean
        self.mean += delta / self.count
        delta2 = theta - self.mean
        if self.diagonal:
            self.scatter += delta * delta2
        else:
            self.scatter += np.outer(delta, delta2)
        if self.count >= 2 and self.count % self.record_stride == 0:
            error = np.max(np.abs(self.scatter / (self.count - 1) - self.target))
            self.trace.append((iteration, float(error)))

    def last_recorded(self, iteration: int):
        """Error recorded at exactly this iteration, else None."""
        if self.trace and self.trace[-1][0] == iteration:
            return self.trace[-1][1]
        return None


@dataclass
class ChainSummary:
    """Per-chain reduction of the iteration stream (see ``run_chain``).

    mean_energy_error averages the proposal's |dH| over all iterations,
    accepted or not; mean_force_evals divides total integrator force
    evaluations by iterations * n_steps.
    """

    mean_acceptance_pct: float
    mean_energy_error: float
    mean_force_evals: float
    wall_time_seconds: float
