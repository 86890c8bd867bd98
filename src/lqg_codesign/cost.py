"""The time-averaged LQG cost, its auxiliary potential, and derivatives.

For a placement with gains (K, Sigma) the infinite-horizon time-averaged
cost is

    phi = tr(A^T K Sigma + Sigma K A + K + Sigma),

and the auxiliary potential built from the adjoint pair (M, N) is

    phi_bar = tr(A^T M N + N M A),

which is <= 0 for symmetric Hurwitz A and equals -tr(K B K M) =
-tr(Sigma C Sigma N) in the zero-gain limit epsilon = delta = 0 (where it
generates the rescaled flow). The sign is not guaranteed otherwise: phi_bar
is positive at some placements of Laplacian dynamics (zero mode) and of
non-symmetric, open-loop-unstable A (1e4 to 1e16 seen at n = 50).

``phi_gain_sensitivity`` differentiates phi with respect to the actuation
gain r and the sensor SNR s at (r, s) = (epsilon, delta); both partials are
nonpositive, and each is one Lyapunov solve on a closed loop that the gain
pair kept in Schur form. ``directional_derivative`` evaluates the first
variation of phi along an orbit tangent (ad_B Omega_b, ad_C Omega_c):

    v . phi = eps*delta * ( tr([B, K M K] Omega_b) + tr([C, Sigma N Sigma] Omega_c) ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import NotSkew
from .plant import Placement, Plant
# ``solve_lyapunov`` is unused here but stays a module attribute: the
# benchmark's tracer (benchmark/tracer.py) wraps ``cost.solve_lyapunov``.
from .riccati import (  # noqa: F401
    AdjointPair,
    GainPair,
    adjoint_pair,
    gain_pair,
    solve_lyapunov,
)

SKEW_TOL = 1e-12


@dataclass(frozen=True)
class CostReport:
    """Cost phi, potential phi_bar, and the solves they came from."""

    phi: float
    phi_bar: float
    gains: GainPair
    adjoints: AdjointPair


def phi_from_gains(A: np.ndarray, gains: GainPair) -> float:
    """Evaluate tr(A^T K Sigma + Sigma K A + K + Sigma)."""
    K, S = gains.K, gains.Sigma
    return float(np.trace(A.T @ K @ S + S @ K @ A + K + S))


def phi_bar_from_adjoints(A: np.ndarray, adjoints: AdjointPair) -> float:
    """Evaluate tr(A^T M N + N M A)."""
    M, N = adjoints.M, adjoints.N
    return float(np.trace(A.T @ M @ N + N @ M @ A))


def cost_report(plant: Plant, placement: Placement) -> CostReport:
    """Solve all four equations for a placement and assemble the report."""
    gains = gain_pair(plant, placement)
    adjoints = adjoint_pair(plant, placement, gains)
    return CostReport(
        phi=phi_from_gains(plant.A, gains),
        phi_bar=phi_bar_from_adjoints(plant.A, adjoints),
        gains=gains,
        adjoints=adjoints,
    )


def phi(plant: Plant, placement: Placement) -> float:
    """Infinite-horizon time-averaged LQG cost of a placement."""
    return phi_from_gains(plant.A, gain_pair(plant, placement))


def phi_bar(plant: Plant, placement: Placement) -> float:
    """Auxiliary potential tr(A^T M N + N M A) of a placement."""
    return cost_report(plant, placement).phi_bar


def drive_matrices(gains: GainPair, adjoints: AdjointPair):
    """The symmetric matrices (K M K, Sigma N Sigma) driving the flow."""
    S_b = gains.K @ adjoints.M @ gains.K
    S_c = gains.Sigma @ adjoints.N @ gains.Sigma
    return 0.5 * (S_b + S_b.T), 0.5 * (S_c + S_c.T)


def phi_gain_sensitivity(plant: Plant, placement: Placement) -> tuple[float, float]:
    """Partial derivatives of phi in the gain parameters (r, s) at (eps, delta).

    The derivative of the K-Riccati equation in r gives the Lyapunov equation

        (A - r B K)^T K' + K' (A - r B K) = K B K,

    so K' <= 0, and dphi/dr = tr((A Sigma + Sigma A^T + I) K'); symmetrically
    for Sigma' and dphi/ds. Both returned values are nonpositive. Each
    derivative is one solve on the closed loop the gain pair kept.
    """
    gains = gain_pair(plant, placement)
    K, Sigma = gains.K, gains.Sigma
    A = plant.A
    eye = np.eye(plant.n)

    K_prime = -gains.loop_K.solve(K @ placement.B @ K, transpose=True)[0]
    S_forcing = Sigma @ placement.C @ Sigma
    Sigma_prime = -gains.loop_Sigma.solve(S_forcing, transpose=True)[0]

    dphi_dr = float(np.trace((A @ Sigma + Sigma @ A.T + eye) @ K_prime))
    dphi_ds = float(np.trace((A.T @ K + K @ A + eye) @ Sigma_prime))
    return dphi_dr, dphi_ds


def directional_derivative(
    plant: Plant,
    placement: Placement,
    omega_b: np.ndarray,
    omega_c: np.ndarray,
) -> float:
    """First variation of phi along the orbit tangent (ad_B Omega_b, ad_C Omega_c).

    The tangent is realized by the curves b(t) = expm(-t*Omega_b) b_unit and
    c(t) = expm(-t*Omega_c) c_unit, whose derivative at t = 0 is
    ([B, Omega_b], [C, Omega_c]).

    Raises
    ------
    NotSkew
        If either direction fails |Omega + Omega^T|_F <= 1e-12.
    """
    omega_b = np.atleast_2d(np.asarray(omega_b, dtype=float))
    omega_c = np.atleast_2d(np.asarray(omega_c, dtype=float))
    for name, om in (("omega_b", omega_b), ("omega_c", omega_c)):
        if la.norm(om + om.T, "fro") > SKEW_TOL:
            raise NotSkew(f"{name} is not skew-symmetric")

    pairing = _orbit_pairing(cost_report(plant, placement), placement, omega_b, omega_c)
    return plant.epsilon * plant.delta * pairing


def _orbit_pairing(
    report: CostReport,
    placement: Placement,
    omega_b: np.ndarray,
    omega_c: np.ndarray,
) -> float:
    """tr([B, S_b] Omega_b) + tr([C, S_c] Omega_c): the variation without eps*delta."""
    S_b, S_c = drive_matrices(report.gains, report.adjoints)
    B, C = placement.B, placement.C
    comm_b = B @ S_b - S_b @ B
    comm_c = C @ S_c - S_c @ C
    return float(np.trace(comm_b @ omega_b) + np.trace(comm_c @ omega_c))
