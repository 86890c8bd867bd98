"""Problem data: the plant (A, epsilon, delta) and unit placement vectors.

The plant is the stochastic linear system

    dx = A x dt + b u dt + dw,      dy = c^T x dt + dnu,

with |b|^2 = epsilon (actuation gain) and |c|^2 = delta (sensor SNR) fixed.
Only the directions of b and c are design variables; a ``Placement`` stores
them as unit vectors, so the normalized outer products B = b_unit b_unit^T
and C = c_unit c_unit^T automatically satisfy tr(B) = tr(C) = 1 and B^2 = B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_NORM_TOL = 1e-12


def _square_matrix(A) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"system matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("system matrix contains non-finite entries")
    return A


def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size < 1:
        raise ValueError(f"{name} must have at least one entry")
    norm = np.linalg.norm(v)
    # Written so that a NaN norm (a non-finite entry) fails too.
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm!r})")
    return v


@dataclass(frozen=True)
class Plant:
    """System matrix with actuation gain epsilon and sensor SNR delta.

    ``eigenvalues`` is the spectrum of A, computed once here for every PBH
    test on the plant (spec(A^T) = spec(A) serves detectability).
    """

    A: np.ndarray
    epsilon: float
    delta: float
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _square_matrix(self.A))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))
        if not (0.0 <= self.epsilon < math.inf and 0.0 <= self.delta < math.inf):
            raise ValueError("epsilon and delta must be finite and nonnegative")
        object.__setattr__(self, "eigenvalues", np.linalg.eigvals(self.A))

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class Placement:
    """Unit actuator direction b_unit and unit sensor direction c_unit."""

    b_unit: np.ndarray
    c_unit: np.ndarray

    def __post_init__(self):
        b = _unit_vector(self.b_unit, "b_unit")
        c = _unit_vector(self.c_unit, "c_unit")
        if b.size != c.size:
            raise ValueError("b_unit and c_unit must have the same dimension")
        object.__setattr__(self, "b_unit", b)
        object.__setattr__(self, "c_unit", c)

    @classmethod
    def normalized(cls, b, c) -> "Placement":
        """Build a placement from arbitrary nonzero vectors by normalizing."""
        b = np.asarray(b, dtype=float).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        nb, nc = np.linalg.norm(b), np.linalg.norm(c)
        if not (0.0 < nb < math.inf and 0.0 < nc < math.inf):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(b / nb, c / nc)

    @property
    def n(self) -> int:
        return self.b_unit.size

    @property
    def B(self) -> np.ndarray:
        """Normalized actuator projector b_unit b_unit^T."""
        return np.outer(self.b_unit, self.b_unit)

    @property
    def C(self) -> np.ndarray:
        """Normalized sensor projector c_unit c_unit^T."""
        return np.outer(self.c_unit, self.c_unit)
