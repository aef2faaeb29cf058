"""Built-in target distributions behind the Potential interface.

A Potential only has to supply ``evaluate``; optional capabilities (gradient,
componentwise closed-form force, force-Jacobian diagonals) default to None and
are picked up by the integrator and Jacobian code when present, keeping
black-box targets fully supported through divided differences alone.
"""

from __future__ import annotations

import numpy as np


class Potential:
    """Target potential U(q) = -log pi(q), up to an additive constant.

    Optional capabilities (left as None when unavailable):

    - ``gradient(q)``: grad U, enables leapfrog HMC and gradient-based init.
    - ``closed_form_force(Q, q)``: analytic divided-difference force, i.e. the
      componentwise two-path difference quotient of U evaluated in closed form.
    - ``closed_form_force_jacobian_diag(Q, q)``: (diag dF/dq, diag dF/dQ).
    - ``closed_form_force_jacobian(Q, q)``: full (dF/dq, dF/dQ) matrices.

    Defining ``closed_form_force_jacobian_diag`` without
    ``closed_form_force_jacobian`` declares the target separable: F_i depends
    only on (Q_i, q_i), so both force Jacobians are diagonal. The analytic
    Jacobian path embeds the diagonals, and the finite-difference path
    perturbs all components at once, so the declaration must hold.
    """

    gradient = None
    closed_form_force = None
    closed_form_force_jacobian_diag = None
    closed_form_force_jacobian = None

    def __init__(self, dim: int):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("potential needs dimension >= 1")

    def evaluate(self, q: np.ndarray) -> float:
        raise NotImplementedError


class QuarticGeneralizedGaussian(Potential):
    """Separable quartic well U(q) = sum_i q_i^4.

    The benchmark target: a generalized Gaussian with unit scale and shape
    parameter 4, whose per-component variance is Gamma(3/4)/Gamma(1/4).
    """

    def evaluate(self, q: np.ndarray) -> float:
        t = q * q
        return float((t * t).sum())

    def gradient(self, q: np.ndarray) -> np.ndarray:
        return 4.0 * (q * q) * q

    def closed_form_force(self, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        # 2 (Q_i^2 + q_i^2)(Q_i + q_i) == 2 (Q_i^4 - q_i^4)/(Q_i - q_i), also
        # defined at Q_i == q_i.
        return 2.0 * (Q * Q + q * q) * (Q + q)

    def closed_form_force_jacobian_diag(self, Q: np.ndarray, q: np.ndarray):
        s = Q + q
        c = Q * Q + q * q
        d_q = 2.0 * (2.0 * q * s + c)
        d_Q = 2.0 * (2.0 * Q * s + c)
        return d_q, d_Q


class MultivariateGaussian(Potential):
    """Quadratic potential U(q) = (q - mu)^T Sigma^-1 (q - mu) / 2.

    Its divided-difference force is linear and symmetric in (Q, q), which
    makes the energy-preserving map volume-preserving: a strong analytic test
    case. Sigma is factored once at construction.
    """

    def __init__(self, mean, cov):
        mean = np.array(mean, dtype=float, copy=True, ndmin=1)
        cov = np.array(cov, dtype=float, copy=True)
        super().__init__(mean.size)
        if cov.shape != (self.dim, self.dim):
            raise ValueError("covariance must be d x d")
        if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        identity = np.eye(self.dim)
        tri_inv = np.linalg.solve(chol, identity)
        self.mean = mean
        self.cov = cov
        self._sigma_inv = tri_inv.T @ tri_inv
        for a in (self.mean, self.cov, self._sigma_inv):
            a.setflags(write=False)

    @classmethod
    def standard(cls, dim: int) -> "MultivariateGaussian":
        return cls(np.zeros(dim), np.eye(dim))

    @property
    def precision(self) -> np.ndarray:
        return self._sigma_inv

    def evaluate(self, q: np.ndarray) -> float:
        r = q - self.mean
        return 0.5 * float(r @ (self._sigma_inv @ r))

    def gradient(self, q: np.ndarray) -> np.ndarray:
        return self._sigma_inv @ (q - self.mean)

    def closed_form_force(self, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._sigma_inv @ (Q + q - 2.0 * self.mean)

    def closed_form_force_jacobian_diag(self, Q: np.ndarray, q: np.ndarray):
        d = np.diag(self._sigma_inv).copy()
        return d, d.copy()

    def closed_form_force_jacobian(self, Q: np.ndarray, q: np.ndarray):
        return self._sigma_inv.copy(), self._sigma_inv.copy()


def quartic_target_variance() -> float:
    """Per-component variance of the density proportional to exp(-q^4).

    Substituting u = q^4 reduces both moments to gamma integrals, giving
    Gamma(3/4)/Gamma(1/4) exactly (about 0.3379891). The literal is the
    double that scipy.special.gamma gives for that ratio; math.gamma is one
    ulp off.
    """
    return 0.3379891200336423
