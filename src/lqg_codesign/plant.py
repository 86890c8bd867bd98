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
from typing import NamedTuple

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
        raise ValueError(f"{name} must be a unit vector (|{name}| = {float(norm)!r})")
    return v


#: PBH rank threshold, relative to 1 + |A|_F.
PBH_RANK_TOL = 1e-9
#: Per dimension, the eigendecomposition error a symmetric plant's
#: eigenbasis may carry (``_reproduces``).
EIGH_RTOL = 32.0 * np.finfo(float).eps


class Modal(NamedTuple):
    """What the modal Riccati solves read of A = Theta diag(lam) Theta^T
    alone: ``basis``, Theta's columns ordered by |lam| (the coordinates a
    symmetric plant is evaluated in), ``lam`` and ``d`` = |lam| in that
    order, ``sums`` lam_i + lam_j, ``gaps`` lam_i - lam_j (unit diagonal),
    whether the steps of d exceed 1e-8 * max d, and I."""

    basis: np.ndarray
    lam: np.ndarray
    d: np.ndarray
    sums: np.ndarray
    gaps: np.ndarray
    separated: bool
    eye: np.ndarray


def separated(d: np.ndarray) -> bool:
    """Whether ascending d steps by more than 1e-8 * max d everywhere."""
    return not np.any(np.diff(d) <= 1e-8 * d[-1])


def modal_basis(lam: np.ndarray, Theta: np.ndarray) -> Modal:
    """The ``Modal`` constants of A = Theta diag(lam) Theta^T."""
    order = np.argsort(np.abs(lam))
    lam = lam[order]
    d = np.abs(lam)
    gaps = lam[:, None] - lam
    np.fill_diagonal(gaps, 1.0)
    sums = lam[:, None] + lam
    return Modal(Theta[:, order], lam, d, sums, gaps, separated(d), np.eye(lam.size))


class PBHSetup(NamedTuple):
    """What a PBH test of A reads of A alone (``pbh_setup``): the rank
    threshold, one (lambda, sorted gaps |eigenvalues - lambda|, their order,
    whether they are distinct) per tested eigenvalue, and the eigenvectors
    the secular margins read; the gaps and eigenvectors are None without
    them."""

    threshold: float
    modes: tuple
    eigenvectors: np.ndarray | None


def pbh_setup(A, eigenvalues=None, eigenvectors=None) -> PBHSetup:
    """The ``PBHSetup`` of A: the threshold 1e-9 * (1 + |A|_F) and every
    eigenvalue lambda with Re lambda >= -1e-9. ``eigenvalues`` is the
    spectrum of A, by default ``eigvals(A)``; given with it, the orthonormal
    ``eigenvectors`` Theta of a symmetric A = Theta diag(eigenvalues) Theta^T
    are kept for the secular margins, with the gaps those read."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    secular = eigenvalues is not None and eigenvectors is not None
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(A)
    threshold = PBH_RANK_TOL * (1.0 + float(np.linalg.norm(A)))
    tested = []
    for lam in eigenvalues:
        if lam.real < -1e-9:
            continue
        gap = order = distinct = None
        if secular:
            gap = np.abs(eigenvalues - lam)
            order = np.argsort(gap)
            gap = gap[order]
            distinct = bool(np.all(np.diff(gap) > 0.0))
        tested.append((lam, gap, order, distinct))
    return PBHSetup(threshold, tuple(tested), eigenvectors if secular else None)


def _reproduces(A: np.ndarray, lam: np.ndarray, Theta: np.ndarray) -> bool:
    """Whether ``eigh``'s A = Theta diag(lam) Theta^T holds to rounding:
    |A Theta - Theta diag(lam)|_F <= 32 n u |A|_F and
    |Theta^T Theta - I|_F <= 32 n u (u the float eps; LAPACK reaches about
    2 n u on both)."""
    tol = EIGH_RTOL * A.shape[0]
    residual = np.linalg.norm(A @ Theta - Theta * lam)
    drift = np.linalg.norm(Theta.T @ Theta - np.eye(A.shape[0]))
    return bool(residual <= tol * np.linalg.norm(A) and drift <= tol)


@dataclass(frozen=True)
class Plant:
    """System matrix with actuation gain epsilon and sensor SNR delta.

    ``eigenvalues`` is the spectrum of A, computed once here for every PBH
    test on the plant (spec(A^T) = spec(A) serves detectability), and
    ``pbh`` the ``pbh_setup`` both tests share. When A is exactly symmetric
    the spectrum comes from one eigendecomposition
    A = eigenvectors diag(eigenvalues) eigenvectors^T (ascending); otherwise
    ``eigenvectors`` and ``modal`` are None. When that decomposition also
    reproduces A to rounding (``_reproduces``, one n^3 check here), the PBH
    tests reuse it for their secular margins, and ``modal`` (its
    ``modal_basis``) gives the coordinates ``riccati.gain_pair`` solves,
    certifies and keeps its results in: the certificates taken there are
    then those of A's up to that rounding. Otherwise ``modal`` is None and
    the plant takes the Hamiltonian path and the SVD margins.
    """

    A: np.ndarray
    epsilon: float
    delta: float
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False, compare=False)
    modal: Modal | None = field(init=False, repr=False, compare=False)
    pbh: PBHSetup = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _square_matrix(self.A))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))
        if not (0.0 <= self.epsilon < math.inf and 0.0 <= self.delta < math.inf):
            raise ValueError("epsilon and delta must be finite and nonnegative")
        modal = None
        if np.array_equal(self.A, self.A.T):
            eigenvalues, eigenvectors = np.linalg.eigh(self.A)
            if _reproduces(self.A, eigenvalues, eigenvectors):
                modal = modal_basis(eigenvalues, eigenvectors)
        else:
            eigenvalues, eigenvectors = np.linalg.eigvals(self.A), None
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenvectors", eigenvectors)
        object.__setattr__(self, "modal", modal)
        secular = None if modal is None else eigenvectors
        object.__setattr__(self, "pbh", pbh_setup(self.A, eigenvalues, secular))

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
        """Build a placement from nonzero finite vectors by normalizing: v / |v|
        to the bit where |v| is in [2^-500, 2^500], else after scaling v by an
        exact power of two, so |v| neither overflows nor loses subnormal bits."""
        units = []
        for v in (b, c):
            v = np.asarray(v, dtype=float).reshape(-1)
            with np.errstate(over="ignore", under="ignore"):
                if not 2.0**-500 <= np.linalg.norm(v) <= 2.0**500:  # 0, inf, NaN stay
                    v = np.ldexp(v, -np.frexp(np.abs(v).max(initial=0.0))[1])
                norm = np.linalg.norm(v)
            if not 0.0 < norm < math.inf:
                raise ValueError("cannot normalize a zero or non-finite vector")
            units.append(v / norm)
        return cls(*units)

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
