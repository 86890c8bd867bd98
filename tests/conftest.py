"""Shared helpers: seeded random instances and independent oracles."""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
from scipy.integrate import quad_vec

from lqg_codesign import Placement, Plant
from lqg_codesign.equilibria import STABLE, beta_gamma_coords, eq19_residual


def random_symmetric_hurwitz(
    rng: np.random.Generator,
    n: int,
    *,
    spread: tuple[float, float] = (-3.0, -0.3),
    min_gap: float = 0.15,
) -> np.ndarray:
    """Symmetric Hurwitz matrix with distinct eigenvalues and random basis."""
    low, high = spread
    while True:
        eigs = np.sort(rng.uniform(low, high, size=n))[::-1]
        if n == 1 or np.min(-np.diff(eigs)) > min_gap:
            break
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(eigs) @ Q.T


def spaced_in_random_basis(rng: np.random.Generator, n: int) -> np.ndarray:
    """Eigenvalues evenly spaced on [-3, -0.5] in a random orthonormal basis."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = basis @ np.diag(np.linspace(-0.5, -3.0, n)) @ basis.T
    return 0.5 * (A + A.T)


def assert_unique_stable_top_pair(spectrum, placements, verdicts) -> None:
    """Zero-gain envelope: exactly one stable candidate, the top-eigenvector
    pair (v_1, v_1), and every candidate solves eq. 19 to below 1e-8."""
    stable = [i for i, v in enumerate(verdicts) if v == STABLE]
    assert len(stable) == 1, stable
    v1 = spectrum.eigenvector(0)
    top = placements[stable[0]]
    assert min(abs(top.b_unit @ v1), abs(top.c_unit @ v1)) >= 1.0 - 1e-8
    for placement in placements:
        coords = beta_gamma_coords(placement, spectrum)
        assert eq19_residual(coords.beta, coords.gamma, spectrum) < 1e-8


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_placement_for(rng: np.random.Generator, n: int) -> Placement:
    return Placement(random_unit(rng, n), random_unit(rng, n))


def random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return 0.5 * (W - W.T)


def rotate_placement(
    placement: Placement, omega_b: np.ndarray, omega_c: np.ndarray, t: float
) -> Placement:
    """Orbit curve realizing the tangent ([B, omega_b], [C, omega_c]) at t=0."""
    return Placement.normalized(
        la.expm(-t * omega_b) @ placement.b_unit,
        la.expm(-t * omega_c) @ placement.c_unit,
    )


def kron_lyapunov_solve(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Kronecker-vectorization oracle for F P + P F^T + Q = 0 (n <= 8)."""
    n = F.shape[0]
    assert n <= 8, "oracle reserved for small systems"
    coeff = np.kron(np.eye(n), F) + np.kron(F, np.eye(n))
    vec_p = np.linalg.solve(coeff, -Q.reshape(-1, order="F"))
    return vec_p.reshape(n, n, order="F")


def integral_lyapunov_solve(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Quadrature of the integral representation int_0^inf e^{Ft} Q e^{F^T t} dt."""
    val, _ = quad_vec(lambda t: la.expm(F * t) @ Q @ la.expm(F.T * t), 0.0, np.inf)
    return val


def angular_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between the lines spanned by unit vectors u and v."""
    return float(np.arccos(min(1.0, abs(float(u @ v)))))


def scalar_plant(epsilon: float, delta: float) -> tuple[Plant, Placement]:
    plant = Plant(np.array([[-1.0]]), epsilon, delta)
    placement = Placement(np.array([1.0]), np.array([1.0]))
    return plant, placement
