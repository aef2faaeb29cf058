"""Mixing and output statistics shared by every workload.

- ``geyer_ess``: effective sample size by Geyer's initial monotone sequence
  estimator (Geyer 1992, "Practical Markov chain Monte Carlo", Stat. Sci.),
  one value per column of a draws matrix.
- ``MomentCheck``: pooled second moment of one method's retained draws
  against the exact quartic variance, with an ESS-based standard error.
- ``Digest``: SHA-256 over the deterministic part of a run's output.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Mean of q^4 under exp(-q^4) is Gamma(5/4)/Gamma(1/4) = 1/4, so the variance
# of q^2 is 1/4 - v^2 with v = Gamma(3/4)/Gamma(1/4).
QUARTIC_Q4_MEAN = 0.25

# A pooled second moment of an exact method further than this many standard
# errors from the exact value fails the run.
MOMENT_Z_LIMIT = 5.0
# chmc J0 drops the Jacobian factor, and with a capped solve its steps stop
# short of the energy tolerance, so its chains are biased: the second moment
# of separation-d2560's J0 chains is about 0.5 % high, far beyond 5 standard
# errors. Methods that are not exact are held to this relative error, which
# still catches a broken sampler, and their bias is recorded.
APPROX_RELATIVE_LIMIT = 0.02


def geyer_ess(draws: np.ndarray) -> np.ndarray:
    """ESS of each column of an (n, k) matrix of successive draws of one chain.

    Autocorrelations come from a zero-padded FFT. Lags are summed in pairs
    Gamma_m = rho_{2m} + rho_{2m+1}; the sum stops before the first pair that
    is not positive, and the pairs are forced non-increasing. A column with
    zero variance (a chain that never moved) has ESS 0. As in Stan, the ESS is
    capped at n log10(n) so that antithetic columns stay finite.
    """
    x = np.asarray(draws, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise ValueError("ESS needs at least four draws")
    xc = x - x.mean(axis=0)
    spec = np.fft.rfft(xc, n=2 * n, axis=0)
    acov = np.fft.irfft(spec * np.conj(spec), n=2 * n, axis=0)[:n] / n
    var0 = acov[0]
    moving = var0 > 0.0
    rho = acov / np.where(moving, var0, 1.0)
    m = n // 2
    pairs = rho[0:2 * m:2] + rho[1:2 * m:2]
    positive = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    pairs = np.minimum.accumulate(np.where(positive, pairs, np.inf), axis=0)
    pairs = np.where(positive, pairs, 0.0)
    tau = -1.0 + 2.0 * pairs.sum(axis=0)
    ess = np.minimum(n / np.maximum(tau, 1e-300), n * math.log10(n))
    return np.where(moving, ess, 0.0)


class MomentCheck:
    """Pools q^2 over chains and components, weighting each (chain, component) mean equally."""

    def __init__(self, target_variance: float, exact: bool):
        self.target = float(target_variance)
        self.exact = exact
        self.sum_means = 0.0
        self.sum_var_of_means = 0.0
        self.cells = 0

    def add_chain(self, sq: np.ndarray, ess: np.ndarray) -> None:
        """Add one chain's q^2 draws, shape (n, d), with their per-component ESS."""
        self.sum_means += float(sq.mean(axis=0).sum())
        var_sq = QUARTIC_Q4_MEAN - self.target ** 2
        self.sum_var_of_means += float((var_sq / np.maximum(ess, 1.0)).sum())
        self.cells += sq.shape[1]

    def result(self) -> dict:
        mean = self.sum_means / self.cells
        se = math.sqrt(self.sum_var_of_means) / self.cells
        z = (mean - self.target) / se
        relative = mean / self.target - 1.0
        ok = abs(z) <= MOMENT_Z_LIMIT if self.exact else abs(relative) <= APPROX_RELATIVE_LIMIT
        return {"pooled_q2_mean": mean, "target": self.target, "standard_error": se, "z": z,
                "relative_error": relative, "exact_method": self.exact, "ok": ok}


def cov_error_limit(min_ess: float, draws: int, recorded: int, target_variance: float) -> float:
    """Largest acceptable l-infinity covariance error of one full-mode chain.

    The error was recorded after ``recorded`` of the chain's ``draws`` retained
    draws; ``min_ess`` is the smallest q_i^2 ESS over components. No
    covariance entry should then be more than MOMENT_Z_LIMIT standard errors
    of sd(q^2)/sqrt(min_ess * recorded / draws) off.
    """
    sd_sq = math.sqrt(QUARTIC_Q4_MEAN - target_variance ** 2)
    effective = min(min_ess, draws) * recorded / draws
    return MOMENT_Z_LIMIT * sd_sq / math.sqrt(max(effective, 1.0))


class Digest:
    """SHA-256 over labelled byte strings, fed in a fixed order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, payload) -> None:
        if isinstance(payload, np.ndarray):
            payload = np.ascontiguousarray(payload, dtype=float).tobytes()
        elif isinstance(payload, str):
            payload = payload.encode("utf-8")
        self._h.update(label.encode("utf-8") + b"\0" + len(payload).to_bytes(8, "little"))
        self._h.update(payload)

    def hexdigest(self) -> str:
        return self._h.hexdigest()

