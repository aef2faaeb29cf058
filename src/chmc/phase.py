"""Phase-space state, mass-matrix algebra, and Hamiltonian evaluation.

Everything here is immutable after construction and safe to share across
chains; random generators are always passed in and owned per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair (q, p) with matching dimension d >= 1.

    Arrays are copied and locked at construction; all components must be
    finite.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float, copy=True, ndmin=1)
        p = np.array(self.p, dtype=float, copy=True, ndmin=1)
        if q.ndim != 1 or p.ndim != 1:
            raise ValueError("q and p must be one-dimensional vectors")
        if q.shape != p.shape:
            raise ValueError(f"q and p dimensions differ: {q.size} vs {p.size}")
        if q.size < 1:
            raise ValueError("phase state needs dimension >= 1")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("phase state components must be finite")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.size


def negate_momentum(state: PhaseState) -> PhaseState:
    """The momentum-flip map R(q, p) = (q, -p); an involution, bit-exact."""
    return PhaseState(state.q, -state.p)


class MassMatrix:
    """Constant symmetric positive-definite mass matrix in factored form.

    The triangular factor and the explicit inverse are computed once at
    construction; per-step code only applies them, never refactorizes.
    Kinds: 'identity', 'diagonal', 'dense'. Only the dense kind needs scipy,
    which is imported there so that ``import chmc`` does not load it.
    """

    def __init__(self, kind: str, dim: int, *, diag=None, matrix=None):
        self.kind = kind
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("mass matrix needs dimension >= 1")
        if kind == "identity":
            pass
        elif kind == "diagonal":
            diag = np.array(diag, dtype=float, copy=True, ndmin=1)
            if diag.ndim != 1 or diag.size != self.dim:
                raise ValueError("diagonal mass needs a length-d vector")
            if not (np.isfinite(diag).all() and (diag > 0).all()):
                raise ValueError("diagonal mass entries must be finite and positive")
            self._diag = diag
            self._inv_diag = 1.0 / diag
            self._sqrt_diag = np.sqrt(diag)
            for a in (self._diag, self._inv_diag, self._sqrt_diag):
                a.setflags(write=False)
        elif kind == "dense":
            m = np.array(matrix, dtype=float, copy=True)
            if m.shape != (self.dim, self.dim):
                raise ValueError("dense mass needs a d x d matrix")
            if not np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
                raise ValueError("dense mass matrix must be symmetric")
            m = 0.5 * (m + m.T)
            try:
                self._chol = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError("dense mass matrix is not positive definite") from exc
            self._matrix = m
            self._inverse = self._solve(np.eye(self.dim))
            for a in (self._matrix, self._chol, self._inverse):
                a.setflags(write=False)
        else:
            raise ValueError(f"unknown mass matrix kind: {kind!r}")

    @classmethod
    def identity(cls, dim: int) -> "MassMatrix":
        return cls("identity", dim)

    @classmethod
    def diagonal(cls, diag) -> "MassMatrix":
        diag = np.atleast_1d(np.asarray(diag, dtype=float))
        return cls("diagonal", diag.size, diag=diag)

    @classmethod
    def dense(cls, matrix) -> "MassMatrix":
        matrix = np.asarray(matrix, dtype=float)
        return cls("dense", matrix.shape[0], matrix=matrix)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """M^-1 @ b through the Cholesky factor (dense kind only)."""
        from scipy.linalg import cho_solve

        return cho_solve((self._chol, True), b)

    @property
    def is_diagonal(self) -> bool:
        """True when M (hence M^-1) has no off-diagonal structure."""
        return self.kind != "dense"

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M @ v."""
        if self.kind == "identity":
            return np.asarray(v, dtype=float)
        if self.kind == "diagonal":
            return self._diag * v
        return self._matrix @ v

    def inverse_apply(self, v: np.ndarray) -> np.ndarray:
        """M^-1 @ v via the triangular factor (the production path)."""
        if self.kind == "identity":
            return np.asarray(v, dtype=float)
        if self.kind == "diagonal":
            return self._inv_diag * v
        return self._solve(v)

    def inverse_apply_explicit(self, v: np.ndarray) -> np.ndarray:
        """M^-1 @ v through the precomputed inverse; independent check path."""
        if self.kind == "dense":
            return self._inverse @ v
        return self.inverse_apply(v)

    def inverse_diagonal(self) -> np.ndarray:
        """diag(M^-1) as a vector."""
        if self.kind == "identity":
            return np.ones(self.dim)
        if self.kind == "diagonal":
            return self._inv_diag.copy()
        return np.diag(self._inverse).copy()

    def inverse_matmul(self, a: np.ndarray) -> np.ndarray:
        """M^-1 @ A for a d x d matrix A."""
        if self.kind == "identity":
            return np.asarray(a, dtype=float)
        if self.kind == "diagonal":
            return self._inv_diag[:, None] * a
        return self._solve(a)

    def kinetic(self, p: np.ndarray) -> float:
        """K(p) = p^T M^-1 p / 2."""
        if self.kind == "identity":
            return 0.5 * float(p @ p)
        return 0.5 * float(p @ self.inverse_apply(p))

    def sample_momentum(self, rng: np.random.Generator) -> np.ndarray:
        """Draw p ~ N(0, M) as L @ xi with L L^T = M and xi standard normal."""
        xi = rng.standard_normal(self.dim)
        if self.kind == "identity":
            return xi
        if self.kind == "diagonal":
            return self._sqrt_diag * xi
        return self._chol @ xi


@dataclass(frozen=True)
class HamiltonianValue:
    """U(q), K(p) and their sum, stored exactly as combined."""

    potential: float
    kinetic: float
    total: float


def hamiltonian(state: PhaseState, potential, mass: MassMatrix) -> HamiltonianValue:
    """H(q, p) = U(q) + p^T M^-1 p / 2.

    A non-finite potential value is mapped to +inf so that proposals into
    forbidden regions are auto-rejected upstream instead of raising.
    """
    if state.dim != potential.dim:
        raise ValueError(f"state dimension {state.dim} != potential dimension {potential.dim}")
    if state.dim != mass.dim:
        raise ValueError(f"state dimension {state.dim} != mass dimension {mass.dim}")
    u = float(potential.evaluate(state.q))
    if not math.isfinite(u):
        u = math.inf
    k = mass.kinetic(state.p)
    return HamiltonianValue(potential=u, kinetic=k, total=u + k)


def sample_momentum(mass: MassMatrix, rng: np.random.Generator) -> np.ndarray:
    """Momentum refreshment draw from N(0, M)."""
    return mass.sample_momentum(rng)
