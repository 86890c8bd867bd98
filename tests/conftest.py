"""Shared helpers: seeded random instances and independent oracles."""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
from scipy.integrate import quad_vec

from lqg_codesign import Direction, Placement, Plant, cost_report, gradient
from lqg_codesign.equilibria import STABLE, _tangent_basis, eq19_residual
from lqg_codesign.verify import richardson_derivative
from oracles import beta_gamma_coords, scipy_lqg


def random_symmetric_hurwitz(
    rng: np.random.Generator,
    n: int,
    *,
    spread: tuple[float, float] = (-3.0, -0.3),
    min_gap: float = 0.15,
) -> np.ndarray:
    """Exactly symmetric Hurwitz matrix with distinct eigenvalues and random
    basis, so a ``Plant`` built on it takes the modal path."""
    low, high = spread
    while True:
        eigs = np.sort(rng.uniform(low, high, size=n))[::-1]
        if n == 1 or np.min(-np.diff(eigs)) > min_gap:
            break
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (A + A.T)


def ring_laplacian_plant(rng: np.random.Generator, n: int, gain: float) -> Plant:
    """A = -L for a weighted ring with n/2 random chords (weights 0.5-1.5)."""
    weights = np.zeros((n, n))
    for i in range(n):
        weights[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
    for _ in range(n // 2):
        i, j = rng.choice(n, 2, replace=False)
        weights[i, j] = rng.uniform(0.5, 1.5)
    weights = weights + weights.T
    return Plant(weights - np.diag(weights.sum(axis=1)), gain, gain)


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


def richardson_hessian(plant: Plant, placement: Placement) -> np.ndarray:
    """Finite-difference oracle for ``hessian_matrix``: Richardson-extrapolated
    central differences of ``flow.gradient`` (O(h^4), h = 1e-4) along the
    tangent bases, on renormalized curves."""
    U = _tangent_basis(placement.b_unit)
    W = _tangent_basis(placement.c_unit)
    b0, c0 = placement.b_unit, placement.c_unit

    def coords(b, c):
        g = gradient(cost_report(plant, Placement.normalized(b, c)))
        return np.concatenate([U.T @ g.g_b, W.T @ g.g_c])

    columns = []
    for d in U.T:
        columns.append(richardson_derivative(lambda t: coords(b0 + t * d, c0), 1e-4))
    for d in W.T:
        columns.append(richardson_derivative(lambda t: coords(b0, c0 + t * d), 1e-4))
    return np.column_stack(columns)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_placement_for(rng: np.random.Generator, n: int) -> Placement:
    return Placement(random_unit(rng, n), random_unit(rng, n))


def random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    W = rng.standard_normal((n, n))
    return 0.5 * (W - W.T)


def orbit_pairing(report, omega_b: np.ndarray, omega_c: np.ndarray) -> float:
    """First variation of the descended potential at the report's placement
    along the ``rotate_placement`` curves: b(t) = expm(-t omega_b) b leaves b
    along -omega_b b (and c likewise), so it is -slope(omega_b b, omega_c c)."""
    b, c = report.placement.b_unit, report.placement.c_unit
    return -gradient(report).slope(Direction(omega_b @ b, omega_c @ c))


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


def scipy_phi_oracle(
    A: np.ndarray, eps: float, delta: float, b: np.ndarray, c: np.ndarray
) -> tuple[float, float]:
    """(phi, phi_bar) from scipy's CARE and Lyapunov solvers."""
    oracle = scipy_lqg(A, eps, delta, b, c)
    return oracle["phi"], oracle["phi_bar"]


def angular_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between the lines spanned by unit vectors u and v."""
    return float(np.arccos(min(1.0, abs(float(u @ v)))))


def scalar_plant(epsilon: float, delta: float) -> tuple[Plant, Placement]:
    plant = Plant(np.array([[-1.0]]), epsilon, delta)
    placement = Placement(np.array([1.0]), np.array([1.0]))
    return plant, placement
