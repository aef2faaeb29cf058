"""Test targets, draws and recorders that more than one test module uses."""

import math

import numpy as np

import chmc.integrators as integrators
from chmc import Potential, QuarticGeneralizedGaussian


class CountingQuartic(QuarticGeneralizedGaussian):
    """Quartic that counts its calls by capability.

    ``jacobian_args`` keeps the (Q, q) of the last Jacobian-diagonal call.
    """

    def __init__(self, dim):
        super().__init__(dim)
        self.calls = dict.fromkeys(("evaluate", "gradient", "force", "jacobian_diag"), 0)
        self.jacobian_args = None

    def evaluate(self, q):
        self.calls["evaluate"] += 1
        return super().evaluate(q)

    def gradient(self, q):
        self.calls["gradient"] += 1
        return super().gradient(q)

    def closed_form_force(self, Q, q):
        self.calls["force"] += 1
        return super().closed_form_force(Q, q)

    def closed_form_force_jacobian_diag(self, Q, q):
        self.calls["jacobian_diag"] += 1
        self.jacobian_args = (Q.copy(), q.copy())
        return super().closed_form_force_jacobian_diag(Q, q)

    def target_calls(self):
        return sum(self.calls.values())


class BlackBoxQuartic(Potential):
    """Quartic well exposing only evaluate(); forces must come from differences."""

    def evaluate(self, q):
        t = q * q
        return float((t * t).sum())


class RescaledQuartic(Potential):
    """The quartic in the coordinates z = m^(1/2) q, U~(z) = U(s z) with
    s = m^(-1/2), built by the preconditioning recipe of ``Potential``: the
    identity-mass sampler on it is the diagonal-mass sampler on the quartic."""

    def __init__(self, m):
        super().__init__(len(m))
        self.m = np.asarray(m, dtype=float)
        self.s = 1.0 / np.sqrt(self.m)
        self.base = QuarticGeneralizedGaussian(self.dim)

    def evaluate(self, z):
        return self.base.evaluate(self.s * z)

    def gradient(self, z):
        return self.s * self.base.gradient(self.s * z)

    def closed_form_force(self, Z, z):
        return self.s * self.base.closed_form_force(self.s * Z, self.s * z)

    def closed_form_force_jacobian_diag(self, Z, z):
        d_q, d_Q = self.base.closed_form_force_jacobian_diag(self.s * Z, self.s * z)
        return d_q / self.m, d_Q / self.m


class MultivariateGaussian(Potential):
    """Quadratic U(q) = (q - mu)^T Sigma^-1 (q - mu) / 2: the dense,
    non-separable reference target.

    It declares full force Jacobians and no diagonal, so its chains take the
    dense route: plain updates, per-column probes and ``slogdet``. Its
    divided-difference force is linear and symmetric in (Q, q), which makes
    the energy-preserving map volume-preserving. Sigma^-1 is formed once from
    the Cholesky factor of Sigma, which must be symmetric positive definite.
    """

    def __init__(self, mean, cov):
        mean = np.array(mean, dtype=float, copy=True, ndmin=1)
        cov = np.array(cov, dtype=float, copy=True)
        super().__init__(mean.size)
        chol = np.linalg.cholesky(0.5 * (cov + cov.T))
        tri_inv = np.linalg.solve(chol, np.eye(self.dim))
        self.mean = mean
        self.cov = cov
        self._sigma_inv = tri_inv.T @ tri_inv
        for a in (self.mean, self.cov, self._sigma_inv):
            a.setflags(write=False)

    def evaluate(self, q):
        r = q - self.mean
        return 0.5 * float(r @ (self._sigma_inv @ r))

    def gradient(self, q):
        return self._sigma_inv @ (q - self.mean)

    def closed_form_force(self, Q, q):
        return self._sigma_inv @ (Q + q - 2.0 * self.mean)

    def closed_form_force_jacobian(self, Q, q):
        return self._sigma_inv, self._sigma_inv


class BoxedQuartic(QuarticGeneralizedGaussian):
    """U = inf outside the unit box: trajectories that leave it fail."""

    def evaluate(self, q):
        return math.inf if np.abs(q).max() > 1.0 else super().evaluate(q)


def quartic_draws(rng, d):
    """Exact draws from exp(-sum q^4): |q_i|^4 ~ Gamma(1/4, 1), fair-coin sign."""
    mag = rng.gamma(0.25, 1.0, size=d) ** 0.25
    return np.where(rng.random(d) < 0.5, -mag, mag)


def record_steps(monkeypatch):
    """Route ``trajectory``'s steps through a recorder of (q, p, kwargs, record)."""
    steps, step = [], integrators.dmm_step

    def recording_step(q, p, *args, **kwargs):
        rec = step(q, p, *args, **kwargs)
        steps.append((q, p, kwargs, rec))
        return rec

    monkeypatch.setattr(integrators, "dmm_step", recording_step)
    return steps
