"""The eq. 19 coordinate layer, an oracle independent of ``zero_gain_field``.

In the zero-gain limit a placement has the coordinates

    beta = Lambda^{-1} Theta^T b,   gamma = Lambda^{-1} Theta^T c,

in which the equilibrium condition is the Cauchy-matrix system of
``equilibria.eq19_residual``. The library enumerates and classifies in the
eigenbasis directly; the tests read these coordinates to check its
candidates, their supports and multipliers, and to match flow limits to
candidates modulo the sign group.

``two_loop_direction`` is the limited-memory secant direction of the
descent, written out from the two-loop recursion for the tests that replay
a run. ``scipy_lqg`` solves a placement's gains and adjoints with scipy,
for the tests and for the CI steps that check reports against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from lqg_codesign import NonNegativeEigenvalue, Placement, Spectrum, cauchy_matrix
from lqg_codesign.equilibria import KIND_COMMON, EquilibriumCandidate

SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class BetaGamma:
    """Zero-gain coordinates of a placement with supports and multipliers."""

    beta: np.ndarray
    gamma: np.ndarray
    support_beta: tuple[int, ...]
    support_gamma: tuple[int, ...]
    mu_beta: float
    mu_gamma: float


def beta_gamma_coords(placement: Placement, spectrum: Spectrum) -> BetaGamma:
    """Zero-gain coordinates beta = Lambda^{-1} Theta^T b (same for gamma).

    The normalization beta^T Lambda^2 beta = 1 holds automatically for unit
    b. Supports collect the entries above 1e-10 in magnitude; the
    multipliers are the Rayleigh quotients of the coupled eigen-equations.
    """
    lam = spectrum.Lambda
    if np.any(lam == 0.0):
        raise NonNegativeEigenvalue("zero eigenvalue: coordinates undefined")
    beta = (spectrum.Theta.T @ placement.b_unit) / lam
    gamma = (spectrum.Theta.T @ placement.c_unit) / lam
    psi = cauchy_matrix(lam)
    mu_beta = float(beta @ (np.diag(gamma) @ psi @ np.diag(gamma) @ beta))
    mu_gamma = float(gamma @ (np.diag(beta) @ psi @ np.diag(beta) @ gamma))
    return BetaGamma(
        beta=beta,
        gamma=gamma,
        support_beta=tuple(np.flatnonzero(np.abs(beta) > SUPPORT_TOL)),
        support_gamma=tuple(np.flatnonzero(np.abs(gamma) > SUPPORT_TOL)),
        mu_beta=mu_beta,
        mu_gamma=mu_gamma,
    )


def orbit_canonical_coords(
    placement: Placement, spectrum: Spectrum
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (beta, gamma) canonicalized by the sign-group action.

    Applies the entrywise sign pattern that makes every beta entry
    nonnegative; the returned gamma is determined up to a single global sign
    (the c-vector sign), which callers should quotient when comparing.
    """
    coords = beta_gamma_coords(placement, spectrum)
    signs = np.where(coords.beta < 0.0, -1.0, 1.0)
    return signs * coords.beta, signs * coords.gamma


def candidate_match_distance(
    placement: Placement, candidate: EquilibriumCandidate, spectrum: Spectrum
) -> float:
    """Distance between a placement and a candidate modulo orbit and signs.

    For common-support candidates, compares sign-canonicalized (beta, gamma)
    coordinates, quotienting the global gamma sign. For disjoint-support
    representatives, compares the projector pairs directly modulo vector
    signs.
    """
    if candidate.kind == KIND_COMMON:
        beta, gamma = orbit_canonical_coords(placement, spectrum)
        beta_c, gamma_c = orbit_canonical_coords(candidate.placement, spectrum)
        d_beta = np.linalg.norm(beta - beta_c)
        d_gamma = min(
            np.linalg.norm(gamma - gamma_c), np.linalg.norm(gamma + gamma_c)
        )
        return float(max(d_beta, d_gamma))
    d_b = min(
        np.linalg.norm(placement.b_unit - candidate.placement.b_unit),
        np.linalg.norm(placement.b_unit + candidate.placement.b_unit),
    )
    d_c = min(
        np.linalg.norm(placement.c_unit - candidate.placement.c_unit),
        np.linalg.norm(placement.c_unit + candidate.placement.c_unit),
    )
    return float(max(d_b, d_c))


def two_loop_direction(
    g_b: np.ndarray,
    g_c: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """H g for the L-BFGS inverse model of ``pairs`` (s, y), oldest first,
    with H_0 = gamma I (Nocedal, Math. Comp. 35(151), 1980, two-loop form),
    projected onto the tangent space of the sphere pair at (b, c).

    With no pair the result is gamma g, unprojected: g is tangent already.
    The arithmetic is written out in the order the recursion states it, so
    a run that follows the recursion reproduces its bits.
    """
    if not pairs:
        return gamma * g_b, gamma * g_c
    rhos = [1.0 / (s @ y) for s, y in pairs]
    q = np.concatenate((g_b, g_c))
    alphas = [0.0] * len(pairs)
    for i in range(len(pairs) - 1, -1, -1):
        s, y = pairs[i]
        alphas[i] = rhos[i] * (s @ q)
        q = q - alphas[i] * y
    r = gamma * q
    for i, (s, y) in enumerate(pairs):
        beta = rhos[i] * (y @ r)
        r = r + (alphas[i] - beta) * s
    n = b.shape[0]
    d_b, d_c = r[:n], r[n:]
    return d_b - (b @ d_b) * b, d_c - (c @ d_c) * c


def scipy_lqg(
    A: np.ndarray, eps: float, delta: float, b: np.ndarray, c: np.ndarray
) -> dict:
    """phi, phi_bar, K, Sigma, M and N of unit b and c, keyed as in a solve
    report: the gains from scipy's CARE solver, the adjoints from its
    Lyapunov solver, and phi and phi_bar from the dense trace formulas."""
    n = A.shape[0]
    K = la.solve_continuous_are(A, np.sqrt(eps) * b[:, None], np.eye(n), np.eye(1))
    S = la.solve_continuous_are(A.T, np.sqrt(delta) * c[:, None], np.eye(n), np.eye(1))
    B, C = np.outer(b, b), np.outer(c, c)
    M = la.solve_continuous_lyapunov(A - eps * B @ K, -S @ C @ S)
    N = la.solve_continuous_lyapunov((A - delta * S @ C).T, -K @ B @ K)
    return {
        "phi": float(np.trace(A.T @ K @ S + S @ K @ A + K + S)),
        "phi_bar": float(np.trace(A.T @ M @ N + N @ M @ A)),
        "K": K,
        "Sigma": S,
        "M": M,
        "N": N,
    }
