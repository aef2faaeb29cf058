"""Phase-space state and H(q, p) = U(q) + K(p), with K(p) = p . p / 2 of the identity mass.

``PhaseState`` validates (q, p) at the public API; step loops run on raw
arrays. Everything here is immutable after construction and safe to share
across chains; random generators are always passed in and owned per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_integer(name: str, value) -> int:
    """``value`` as an int: a count never rounds, so only Python and NumPy integers pass."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def scalar_operand(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array, built once for a hot loop's ufunc calls.

    It rounds as the Python float does, and a ufunc takes it without the
    conversion it makes for a Python float on every call.
    """
    a = np.array(x, dtype=float)
    a.setflags(write=False)
    return a


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


class MassMatrix:
    """What is left of the identity mass: ``dim``, which ``run_chain`` alone reads and checks.

    No step takes a mass: K(p) is ``kinetic`` and the iterations draw p ~ N(0, I). A diagonal
    mass is the identity on rescaled coordinates (see ``Potential``).
    """

    def __init__(self, dim: int):
        self.dim = require_integer("dim", dim)
        if self.dim < 1:
            raise ValueError("mass matrix needs dimension >= 1")

    @classmethod
    def identity(cls, dim: int) -> "MassMatrix":
        return cls(dim)


def kinetic(p: np.ndarray) -> float:
    """K(p) = p . p / 2, the kinetic energy of the identity mass."""
    return 0.5 * float(p @ p)


def potential_energy(q: np.ndarray, potential) -> float:
    """U(q) on a raw array, the one place U enters the Hamiltonian.

    A non-finite potential value is mapped to +inf so that proposals into
    forbidden regions are auto-rejected upstream instead of raising.
    """
    u = float(potential.evaluate(q))
    return u if math.isfinite(u) else math.inf


def hamiltonian(state: PhaseState, potential, u: float | None = None) -> tuple[float, float]:
    """(U, H) of a validated state, H(q, p) = U(q) + p . p / 2, after checking
    its dimension. U is ``u`` when given (``potential_energy(state.q, potential)``
    already computed), else evaluated here, after the check.
    """
    if state.dim != potential.dim:
        raise ValueError(f"state dimension {state.dim} != potential dimension {potential.dim}")
    if u is None:
        u = potential_energy(state.q, potential)
    return u, u + kinetic(state.p)
