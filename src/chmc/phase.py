"""Phase-space state and H(q, p) = U(q) + K(p), with K(p) = p . p / 2 of the identity mass.

It also holds the value checks that the chain API shares (``require_integer``,
``require_positive``, ``require_choice`` and ``finite_vector``), each with one
wording of its message. Step loops run on raw arrays. Everything here is
immutable after construction and safe to share across chains; random
generators are always passed in and owned per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np


def require_integer(name: str, value, minimum: int) -> int:
    """``value`` as an int >= ``minimum``.

    A count never rounds, so only Python and NumPy integers pass.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_positive(name: str, value) -> None:
    """``value`` is a real number, finite and > 0; a bool is no number here."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive")


def require_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}")


def finite_vector(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``, which must be a finite vector of dimension >= 1."""
    v = np.array(value, dtype=float, copy=True, ndmin=1)
    if v.ndim != 1 or v.size < 1 or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a finite vector of dimension >= 1")
    v.setflags(write=False)
    return v


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
    """Position/momentum pair (q, p): finite vectors of one dimension d >= 1,
    copied and locked at construction (see ``finite_vector``).
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q, p = finite_vector("q", self.q), finite_vector("p", self.p)
        if q.shape != p.shape:
            raise ValueError(f"q and p dimensions differ: {q.size} vs {p.size}")
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
        self.dim = require_integer("dim", dim, 1)

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
    """(U, H) of a state, H(q, p) = U(q) + p . p / 2. U is ``u`` when given
    (``potential_energy(state.q, potential)`` already computed), else evaluated here.
    ``run_chain`` has checked the dimensions; this does not.
    """
    if u is None:
        u = potential_energy(state.q, potential)
    return u, u + kinetic(state.p)
