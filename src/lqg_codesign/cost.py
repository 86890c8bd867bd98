"""The time-averaged LQG cost, its auxiliary potential, and derivatives.

For a placement with gains (K, Sigma) the infinite-horizon time-averaged
cost is

    phi = tr(A^T K Sigma + Sigma K A + K + Sigma),

and the auxiliary potential built from the adjoint pair (M, N) is

    phi_bar = tr(A^T M N + N M A),

which is <= 0 for symmetric Hurwitz A and equals -tr(K B K M) =
-tr(Sigma C Sigma N) in the zero-gain limit epsilon = delta = 0 (where the
descent acts on it). The sign is not guaranteed otherwise: phi_bar
is positive at some placements of Laplacian dynamics (zero mode) and of
non-symmetric, open-loop-unstable A (1e4 to 1e16 seen at n = 50).

For symmetric X and Y, tr(A^T X Y + Y X A) = 2 tr(A^T X Y), and every
trace here is that one pairing, plus tr X, tr Y or both: phi pairs K with
Sigma, phi_bar M with N, dphi/dr K' with Sigma and dphi/ds K with Sigma'.
The pairing is taken in the coordinates the pair is held in
(``riccati``): in A's (``basis`` None, the one test of which coordinates a
pair is in) as 2 <A, X Y>, and in a symmetric plant's eigenbasis, where
A = diag(lam), as the O(n^2) sum 2 sum_ij lam_i X_ij Y_ij, with no A-basis
matrix formed.

``phi_gain_sensitivity`` differentiates phi with respect to the actuation
gain r and the sensor SNR s at (r, s) = (epsilon, delta); both partials are
nonpositive, and each is one Lyapunov solve on a closed loop that the gain
pair kept: in real Schur form, or in modal form on a symmetric plant, whose
cost report then takes no Schur form at all. ``drive_matrices`` gives the
symmetric matrices (K M K, Sigma N Sigma), in the coordinates of the pair,
from which ``equilibria.hessian_matrix`` differentiates the descent field;
``flow.gradient`` forms the field itself. Both read one ``CostReport``,
which carries the plant and placement it was solved at; only
``phi_gain_sensitivity`` takes (plant, placement) and solves its own gain pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import Placement, Plant
# ``solve_lyapunov`` is unused here but stays a module attribute: the
# benchmark's tracer (benchmark/tracer.py) wraps ``cost.solve_lyapunov``.
from .riccati import (  # noqa: F401
    AdjointPair,
    GainPair,
    adjoint_forcings,
    adjoint_pair,
    gain_pair,
    solve_lyapunov,
)


@dataclass(frozen=True)
class CostReport:
    """Cost phi, potential phi_bar, the solves they came from, and the plant
    and placement they were solved at: everything the derivatives read."""

    phi: float
    phi_bar: float
    gains: GainPair
    adjoints: AdjointPair
    plant: Plant
    placement: Placement


def phi_from_gains(plant: Plant, gains: GainPair) -> float:
    """Evaluate tr(A^T K Sigma + Sigma K A + K + Sigma)."""
    K, S = gains.K_tilde, gains.Sigma_tilde
    return _pairing(plant, gains.basis, K, S) + float(K.trace() + S.trace())


def _pairing(plant: Plant, basis: np.ndarray | None, X: np.ndarray, Y: np.ndarray) -> float:
    """2 tr(A^T X Y) = tr(A^T X Y + Y X A) for symmetric X, Y held in the
    coordinates of ``basis``: 2 <A, X Y> in A's (``basis`` None), and in the
    eigenbasis of a symmetric A, where A = diag(lam),
    2 sum_i lam_i sum_j X_ij Y_ij, O(n^2)."""
    if basis is None:
        return 2.0 * float(np.vdot(plant.A, X @ Y))
    return 2.0 * float(np.einsum("i,ij,ij->", plant.modal.lam, X, Y))


def cost_report(plant: Plant, placement: Placement) -> CostReport:
    """Solve all four equations for a placement and assemble the report.

    ``report.gains.fallback`` says why a symmetric plant's Riccati solve left
    the modal path, if it did.
    """
    gains = gain_pair(plant, placement)
    adjoints = adjoint_pair(plant, placement, gains)
    return CostReport(
        phi=phi_from_gains(plant, gains),
        phi_bar=_pairing(plant, adjoints.basis, adjoints.M_tilde, adjoints.N_tilde),
        gains=gains,
        adjoints=adjoints,
        plant=plant,
        placement=placement,
    )


def phi(plant: Plant, placement: Placement) -> float:
    """Infinite-horizon time-averaged LQG cost of a placement."""
    return phi_from_gains(plant, gain_pair(plant, placement))


def phi_bar(plant: Plant, placement: Placement) -> float:
    """Auxiliary potential tr(A^T M N + N M A) of a placement."""
    return cost_report(plant, placement).phi_bar


def drive_matrices(gains: GainPair, adjoints: AdjointPair):
    """The symmetric matrices (K M K, Sigma N Sigma) driving the flow, in the
    coordinates of the pair (``GainPair.basis``)."""
    K, S = gains.K_tilde, gains.Sigma_tilde
    S_b = K @ adjoints.M_tilde @ K
    S_c = S @ adjoints.N_tilde @ S
    return 0.5 * (S_b + S_b.T), 0.5 * (S_c + S_c.T)


def phi_gain_sensitivity(plant: Plant, placement: Placement) -> tuple[float, float]:
    """Partial derivatives of phi in the gain parameters (r, s) at (eps, delta).

    The derivative of the K-Riccati equation in r gives the Lyapunov equation

        (A - r B K)^T K' + K' (A - r B K) = K B K,

    so K' <= 0, and dphi/dr = tr((A Sigma + Sigma A^T + I) K')
    = 2 tr(A^T K' Sigma) + tr K'; symmetrically for Sigma' and dphi/ds.
    Both returned values are nonpositive. Each derivative is one solve on
    the closed loop the gain pair kept.
    """
    gains = gain_pair(plant, placement)
    S_forcing, K_forcing = adjoint_forcings(gains, placement)
    K_prime = -gains.loop_K.solve(K_forcing, transpose=True)[0]
    Sigma_prime = -gains.loop_Sigma.solve(S_forcing, transpose=True)[0]
    K, Sigma, basis = gains.K_tilde, gains.Sigma_tilde, gains.basis
    dphi_dr = _pairing(plant, basis, K_prime, Sigma) + float(K_prime.trace())
    dphi_ds = _pairing(plant, basis, K, Sigma_prime) + float(Sigma_prime.trace())
    return dphi_dr, dphi_ds
