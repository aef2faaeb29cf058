"""Streaming statistics: online covariance, error traces, chain summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StreamingCovariance:
    """Single-pass mean/covariance accumulator (Welford update).

    Full mode keeps the d x d co-moment matrix; diagonal mode keeps only the
    length-d second-moment vector, which is what very high-dimensional runs
    use (a 40960^2 matrix would not fit in memory).
    """

    def __init__(self, dim: int, diagonal: bool = False):
        self.dim = int(dim)
        self.diagonal = bool(diagonal)
        self.count = 0
        self.mean = np.zeros(self.dim)
        self.scatter = np.zeros(self.dim) if self.diagonal else np.zeros((self.dim, self.dim))

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        delta2 = x - self.mean
        if self.diagonal:
            self.scatter += delta * delta2
        else:
            self.scatter += np.outer(delta, delta2)

    def covariance(self) -> np.ndarray:
        """Sample covariance with n - 1 normalization (full mode)."""
        if self.diagonal:
            raise ValueError("diagonal stream has no full covariance")
        if self.count < 2:
            raise ValueError("need at least two samples")
        return self.scatter / (self.count - 1)

    def variance_diagonal(self) -> np.ndarray:
        """Per-component sample variance with n - 1 normalization."""
        if self.count < 2:
            raise ValueError("need at least two samples")
        if self.diagonal:
            return self.scatter / (self.count - 1)
        return np.diag(self.scatter) / (self.count - 1)


def _target(target_cov, dim: int, diagonal: bool) -> np.ndarray:
    """The target covariance's diagonal (diagonal mode) or full matrix."""
    t = np.asarray(target_cov, dtype=float)
    if t.ndim == 0:
        return np.full(dim, float(t)) if diagonal else float(t) * np.eye(dim)
    if t.ndim == 1:
        return t if diagonal else np.diag(t)
    return np.diag(t) if diagonal else t


def covariance_error(stream: StreamingCovariance, target_cov) -> float:
    """l-infinity deviation of the sample covariance from the target.

    ``target_cov`` may be a scalar (isotropic), a length-d vector (diagonal)
    or a full d x d matrix. Full streams compare entrywise over the whole
    matrix; diagonal streams compare diagonal entries only.
    """
    if stream.count < 2:
        raise ValueError("need at least two samples")
    sample = stream.variance_diagonal() if stream.diagonal else stream.covariance()
    return float(np.max(np.abs(sample - _target(target_cov, stream.dim, stream.diagonal))))


class CovarianceTracker:
    """Streams retained samples and records an error trace every few updates.

    The trace holds (iteration, l-infinity covariance error) pairs at a fixed
    stride so long runs produce plot-ready curves, not per-iteration dumps.
    The target's diagonal or full matrix is built once, at construction.
    """

    def __init__(self, dim: int, target_cov, diagonal: bool = False, record_stride: int = 10):
        if record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        self.stream = StreamingCovariance(dim, diagonal=diagonal)
        self.target = _target(target_cov, dim, diagonal)
        self.record_stride = record_stride
        self.trace: list[tuple[int, float]] = []

    def update(self, iteration: int, theta: np.ndarray) -> None:
        self.stream.update(theta)
        if self.stream.count >= 2 and self.stream.count % self.record_stride == 0:
            self.trace.append((iteration, covariance_error(self.stream, self.target)))

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
