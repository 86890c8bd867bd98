"""Equilibrium detection, zero-gain analytic machinery, and stability.

A placement is an equilibrium of the descent flow iff b_unit and c_unit are
eigenvectors of the drive matrices:

    K M K b = mu_B b,        Sigma N Sigma c = mu_C c.

In the zero-gain limit epsilon = delta = 0 with A symmetric negative
definite (A = Theta Lambda Theta^T, 0 > lambda_1 > ... > lambda_n), the
gains collapse to K = Sigma = -A^{-1}/2 and the equilibrium condition turns
into a finite algebraic problem in the coordinates

    beta = Lambda^{-1} Theta^T b,   gamma = Lambda^{-1} Theta^T c,
    diag(gamma) Psi diag(gamma) beta = mu_beta Lambda^2 beta,
    diag(beta) Psi diag(beta) gamma = mu_gamma Lambda^2 gamma,

with Psi the positive-definite Cauchy matrix [-1/(lambda_i + lambda_j)].
Solutions either have disjoint supports (a continuum on which the potential
phi_bar vanishes) or equal supports; the equal-support solutions come in
orbits of the entrywise sign group and are enumerated exactly: for a support
and sign pattern s, the candidate exists iff the solution xi of

    diag(s) Psi' diag(s) xi = (lambda_i^2)_support

is entrywise positive, and then beta*beta = gamma*gamma is proportional to
xi, which the closed-form Cauchy inverse gives for every pattern of a
support at once. Stability is read from the Hessian of the potential on the
tangent space of the sphere pair: in closed form for enumerated candidates
(``zero_gain_field``), and in ``classify_stability`` (phi, or phi_bar in the
zero-gain limit) by ``hessian_matrix``, which differentiates
``flow.gradient`` exactly: four tangent-linear Lyapunov solves per tangent
direction on the closed-loop Schur forms the cost evaluation kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .cost import CostReport, cost_report, drive_matrices
from .errors import (
    DimensionTooLarge,
    NonNegativeEigenvalue,
    NotAnEquilibrium,
    SingularBlock,
)
from .flow import gradient
from .plant import Placement, Plant

ENUMERATION_CAP = 12
SUPPORT_TOL = 1e-10
EIGENGAP_TOL = 1e-10
#: |lambda_1| at or below this is a zero mode (e.g. a Laplacian's) in the
#: closed forms, and a negative semidefinite spectrum for the CLI.
ZERO_EIGENVALUE_TOL = 1e-10
EQ19_RESIDUAL_TOL = 1e-8
STABILITY_MARGIN = 1e-7

KIND_COMMON = "common_support"
KIND_DISJOINT = "disjoint_support"

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition A = Theta diag(Lambda) Theta^T, Lambda descending.

    Eigenvector signs are fixed so each column's largest-magnitude entry is
    positive, making the decomposition deterministic.
    """

    Theta: np.ndarray
    Lambda: np.ndarray

    def __post_init__(self):
        Theta = np.atleast_2d(np.asarray(self.Theta, dtype=float))
        Lambda = np.asarray(self.Lambda, dtype=float).reshape(-1)
        n = Lambda.size
        if Theta.shape != (n, n):
            raise ValueError("Theta and Lambda dimensions disagree")
        if np.any(np.diff(Lambda) >= 0):
            raise ValueError("eigenvalues must be strictly descending")
        if la.norm(Theta.T @ Theta - np.eye(n), "fro") > 1e-12 * n:
            raise ValueError("Theta is not orthogonal")
        object.__setattr__(self, "Theta", Theta)
        object.__setattr__(self, "Lambda", Lambda)

    @property
    def n(self) -> int:
        return self.Lambda.size

    @property
    def A(self) -> np.ndarray:
        return self.Theta @ np.diag(self.Lambda) @ self.Theta.T

    def eigenvector(self, i: int) -> np.ndarray:
        return self.Theta[:, i]

    @classmethod
    def from_matrix(cls, A) -> "Spectrum":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if la.norm(A - A.T, "fro") > 1e-10 * (1.0 + la.norm(A, "fro")):
            raise ValueError("spectral analysis requires a symmetric matrix")
        eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        for j in range(eigvecs.shape[1]):
            col = eigvecs[:, j]
            lead = np.argmax(np.abs(col))
            if col[lead] < 0:
                eigvecs[:, j] = -col
        return cls(Theta=eigvecs, Lambda=eigvals)

    def require_negative_distinct(self) -> None:
        """Guard for the zero-gain analytic routines."""
        if self.Lambda[0] >= 0.0:
            raise NonNegativeEigenvalue(
                f"largest eigenvalue {self.Lambda[0]:.6g} is not negative"
            )
        gaps = -np.diff(self.Lambda)
        if self.n > 1 and np.min(gaps) <= EIGENGAP_TOL:
            raise ValueError(
                f"eigenvalue gap {np.min(gaps):.3e} below {EIGENGAP_TOL:g}; "
                "analytic enumeration requires distinct eigenvalues"
            )


@dataclass(frozen=True)
class BetaGamma:
    """Zero-gain coordinates of a placement with supports and multipliers."""

    beta: np.ndarray
    gamma: np.ndarray
    support_beta: tuple[int, ...]
    support_gamma: tuple[int, ...]
    mu_beta: float
    mu_gamma: float


@dataclass(frozen=True)
class EquilibriumCandidate:
    """One equilibrium candidate of the zero-gain flow.

    ``sign_s`` is the sign pattern of beta*gamma padded with zeros off the
    support; ``xi`` is the support-block solution certifying existence (for
    common-support candidates). ``hessian_eigs`` and ``stability`` are None
    until classified.
    """

    placement: Placement
    kind: str
    support: tuple[int, ...]
    sign_s: tuple[int, ...]
    xi: tuple[float, ...] | None
    hessian_eigs: tuple[float, ...] | None = None
    stability: str | None = None


def is_equilibrium(
    plant: Plant,
    placement: Placement,
    tol: float,
    *,
    report: CostReport | None = None,
) -> tuple[bool, np.ndarray]:
    """Test the equilibrium condition; returns (flag, [res_b, res_c]).

    The residuals are |(I - b b^T) K M K b| and |(I - c c^T) S N S c|, which
    vanish exactly when b and c are eigenvectors of the drive matrices.
    Passing a precomputed ``report`` avoids re-solving the placement.
    """
    if report is None:
        report = cost_report(plant, placement)
    S_b, S_c = drive_matrices(report.gains, report.adjoints)
    b, c = placement.b_unit, placement.c_unit
    res_b = np.linalg.norm(S_b @ b - (b @ S_b @ b) * b)
    res_c = np.linalg.norm(S_c @ c - (c @ S_c @ c) * c)
    residuals = np.array([res_b, res_c])
    return bool(np.all(residuals <= tol)), residuals


def cauchy_matrix(lambdas) -> np.ndarray:
    """Cauchy matrix Psi with entries -1/(lambda_i + lambda_j).

    Positive definite whenever all eigenvalues are strictly negative.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if np.any(lam >= 0.0):
        raise NonNegativeEigenvalue(
            f"Cauchy matrix requires negative eigenvalues, got max {lam.max():.6g}"
        )
    return -1.0 / (lam[:, None] + lam[None, :])


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


def eq19_residual(beta: np.ndarray, gamma: np.ndarray, spectrum: Spectrum) -> float:
    """Residual of the coupled eigen-equations at (beta, gamma)."""
    lam = spectrum.Lambda
    psi = cauchy_matrix(lam)
    lam2 = lam**2
    lhs_b = np.diag(gamma) @ psi @ np.diag(gamma) @ beta
    lhs_c = np.diag(beta) @ psi @ np.diag(beta) @ gamma
    mu_b = float(beta @ lhs_b)  # beta^T Lambda^2 beta = 1
    mu_c = float(gamma @ lhs_c)
    return float(
        max(
            np.linalg.norm(lhs_b - mu_b * lam2 * beta),
            np.linalg.norm(lhs_c - mu_c * lam2 * gamma),
        )
    )


def xi_vector(lambdas, support, signs) -> tuple[np.ndarray, bool | np.ndarray]:
    """Solve diag(s) Psi' diag(s) xi = (lambda_i^2) on a support block.

    ``signs`` is one +/-1 pattern or one per column; xi and the existence
    flag (all entries positive) follow that layout. With a = -lambda on the
    support, Psi'^-1 = diag(P) Psi' diag(P), P_i = prod_k (a_i + a_k) /
    prod_{k != i} (a_i - a_k) (Boros, Kailath and Olshevsky, LAA 302-303,
    1999), so xi = s * P * (T s) with T_ij = P_j a_j^2 / (a_i + a_j). T_ij
    carries at most 4 |support| + 1 roundings and (T s)_i |support| - 1 more,
    so each sign is decided against the bound 5 |support| u sum_j |T_ij|: a
    pattern exists if every entry is surely positive, is absent if any is
    surely negative, and raises ``SingularBlock`` otherwise.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    idx = np.array(support, dtype=int).reshape(-1)
    signs = np.atleast_1d(np.asarray(signs, dtype=float))
    if idx.size == 0:
        raise ValueError("support must be nonempty")
    if signs.ndim > 2 or signs.shape[0] != idx.size or np.any(np.abs(signs) != 1.0):
        raise ValueError("signs must be +/-1 patterns over the support")
    a = -lam[idx]
    if np.any(a <= 0.0):
        raise NonNegativeEigenvalue("the Cauchy block needs negative eigenvalues")
    sums = a[:, None] + a[None, :]
    diffs = a[:, None] - a[None, :]
    np.fill_diagonal(diffs, 1.0)
    P = np.prod(sums, axis=1) / np.prod(diffs, axis=1)
    T = (P * a**2) / sums
    cols = signs.reshape(idx.size, -1)
    Ts = np.zeros(cols.shape)
    for j in range(idx.size):  # a fixed order: no column depends on the batch
        Ts += T[:, j, None] * cols[j]
    bound = (5.0 * idx.size * np.finfo(float).eps / 2 * np.abs(T).sum(axis=1))[:, None]
    sign_xi = cols * np.sign(P)[:, None] * Ts
    exists = np.all(sign_xi > bound, axis=0)
    undecided = ~exists & ~np.any(sign_xi < -bound, axis=0)
    if np.any(undecided):
        k = int(np.argmax(undecided))
        raise SingularBlock(
            f"sign of xi undecided on support {tuple(idx.tolist())}, pattern "
            f"{cols[:, k]}: T s = {Ts[:, k]} against rounding bound {bound[:, 0]}"
        )
    xi = (cols * P[:, None] * Ts).reshape(signs.shape)
    return xi, (exists if signs.ndim == 2 else bool(exists[0]))


def _common_support_placement(
    spectrum: Spectrum, support: tuple[int, ...], signs: np.ndarray, xi: np.ndarray
) -> tuple[Placement, np.ndarray, np.ndarray]:
    """Build (beta, gamma) = (sqrt(xi), s*sqrt(xi)) / |Lambda sqrt(xi)|."""
    n = spectrum.n
    beta = np.zeros(n)
    gamma = np.zeros(n)
    root = np.sqrt(xi)
    idx = np.array(support)
    scale = np.linalg.norm(spectrum.Lambda[idx] * root)
    beta[idx] = root / scale
    gamma[idx] = signs * root / scale
    b_unit = spectrum.Theta @ (spectrum.Lambda * beta)
    c_unit = spectrum.Theta @ (spectrum.Lambda * gamma)
    return Placement.normalized(b_unit, c_unit), beta, gamma


def enumerate_equilibria_zero(spectrum: Spectrum) -> list[EquilibriumCandidate]:
    """Enumerate zero-gain equilibrium candidates for a negative spectrum.

    Emits one common-support candidate per (support, sign pattern with
    leading +1) whose xi-certificate is positive (all patterns of a support
    are certified by one ``xi_vector`` call), each verified against the
    coupled eigen-equations to residual 1e-8, plus one representative
    disjoint-support candidate (v_i, v_j) per ordered pair i != j. The sign
    patterns fix the first support entry to +1 because flipping all of gamma
    yields the same projector pair.

    Raises
    ------
    DimensionTooLarge
        For n > 12 (the sign enumeration grows as 3^n).
    """
    n = spectrum.n
    if n > ENUMERATION_CAP:
        raise DimensionTooLarge(f"enumeration supports n <= {ENUMERATION_CAP}, got {n}")
    spectrum.require_negative_distinct()

    candidates: list[EquilibriumCandidate] = []
    for size in range(1, n + 1):
        patterns = np.array(
            [(1.0,) + tail for tail in itertools.product((1.0, -1.0), repeat=size - 1)]
        ).T
        for support in itertools.combinations(range(n), size):
            xis, exists = xi_vector(spectrum.Lambda, support, patterns)
            for signs, xi in zip(patterns.T[exists], xis.T[exists]):
                placement, beta, gamma = _common_support_placement(
                    spectrum, support, signs, xi
                )
                residual = eq19_residual(beta, gamma, spectrum)
                if residual >= EQ19_RESIDUAL_TOL:
                    raise SingularBlock(
                        f"candidate on support {support} failed verification "
                        f"(residual {residual:.3e})"
                    )
                sign_s = np.zeros(n, dtype=int)
                sign_s[np.array(support)] = signs.astype(int)
                candidates.append(
                    EquilibriumCandidate(
                        placement=placement,
                        kind=KIND_COMMON,
                        support=support,
                        sign_s=tuple(int(s) for s in sign_s),
                        xi=tuple(float(x) for x in xi),
                    )
                )
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            placement = Placement(spectrum.eigenvector(i), spectrum.eigenvector(j))
            candidates.append(
                EquilibriumCandidate(
                    placement=placement,
                    kind=KIND_DISJOINT,
                    support=(i, j),
                    sign_s=(0,) * n,
                    xi=None,
                )
            )
    return candidates


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the unit vector v."""
    return la.null_space(v[None, :])


def zero_gain_field(spectrum: Spectrum):
    """Closed-form ``field(b, c) -> (g_b, g_c, phi_bar, H)`` at epsilon = delta = 0.

    K = Sigma = Theta diag(k) Theta^T with k = -1/(2 lambda), both closed loops
    equal A, and in the eigenbasis M = Psi o (k c~)(k c~)^T, N likewise with
    b~ = Theta^T b, c~ = Theta^T c. With p = k^2 c~, q = k^2 b~, x = p b~,
    y = Psi x, mu = x . y: g_b = Theta (mu b~ - p y), g_c = Theta (mu c~ - q y),
    phi_bar = -mu, at ``Placement.normalized(b, c)``. H is the Riemannian
    Hessian of phi_bar, the Jacobian of (g~_b, g~_c) projected onto tangent
    bases U of b~ and W of c~ (Absil, Mahony and Trumpf, GSI 2013), where its
    rank-one terms such as b~ (2 p y)^T vanish: H = [U^T H_bb U, U^T H_bc W;
    W^T H_bc^T U, W^T H_cc W] with H_bb = mu I - diag(p) Psi diag(p),
    H_bc = -diag(k^2 y) - diag(p) Psi diag(q) and H_cc likewise in q.
    """
    Theta = spectrum.Theta
    psi = cauchy_matrix(spectrum.Lambda)
    k2 = 0.25 / spectrum.Lambda**2
    eye = np.eye(spectrum.n)

    def field(b: np.ndarray, c: np.ndarray):
        placement = Placement.normalized(b, c)
        bt = Theta.T @ placement.b_unit
        ct = Theta.T @ placement.c_unit
        p, q = k2 * ct, k2 * bt
        x = p * bt
        y = psi @ x
        mu = float(x @ y)
        H_bb = mu * eye - p[:, None] * psi * p
        H_bc = -np.diag(k2 * y) - p[:, None] * psi * q
        H_cc = mu * eye - q[:, None] * psi * q
        U, W = _tangent_basis(bt), _tangent_basis(ct)
        H = np.block(
            [[U.T @ H_bb @ U, U.T @ H_bc @ W], [W.T @ H_bc.T @ U, W.T @ H_cc @ W]]
        )
        return Theta @ (mu * bt - p * y), Theta @ (mu * ct - q * y), -mu, H

    return field


def hessian_matrix(
    plant: Plant, placement: Placement, *, report: CostReport | None = None
) -> np.ndarray:
    """Exact Hessian of the potential at a placement, by tangent linearization.

    Column j is the derivative of the gradient coordinates
    (U^T g_b, W^T g_c) of ``flow.gradient`` along the j-th direction
    (d_b, d_c) of orthonormal tangent bases U of b_unit and W of c_unit
    (dimension 2(n-1) total), with b moved along d_b and c along d_c. With
    dB = d_b b^T + b d_b^T, dC likewise, and the closed loops kept by the
    gain pair (F_K = A - eps B K, F_S = A^T - delta C Sigma):

        F_K^T dK + dK F_K = eps K dB K,
        F_S^T dSig + dSig F_S = delta Sigma dC Sigma,
        F_K dM + dM F_K^T + dF_K M + M dF_K^T + d(Sigma C Sigma) = 0,
        F_S dN + dN F_S^T + dF_S N + N dF_S^T + d(K B K) = 0,

    with dF_K = -eps (dB K + B dK) and dF_S = -delta (dC Sigma + C dSig), so
    dS_b = sym(dK M K + K dM K + K M dK), dS_c likewise, and the b rows
    are U^T (-s)(dS_b b + S_b d_b - (b^T S_b b) d_b), s the field scale:
    four solves on kept Schur forms per direction. At a critical point the
    result is the Riemannian Hessian (Absil, Mahony and Trumpf, GSI 2013),
    symmetric up to rounding; elsewhere it is the Jacobian of the projected
    field. Passing a precomputed ``report`` avoids re-solving the placement.
    """
    if report is None:
        report = cost_report(plant, placement)
    grad = gradient(plant, placement, report=report)
    gains, adjoints = report.gains, report.adjoints
    K, Sigma, M, N = gains.K, gains.Sigma, adjoints.M, adjoints.N
    eps, delta = plant.epsilon, plant.delta
    b, c = placement.b_unit, placement.c_unit
    B, C = placement.B, placement.C
    U, W = _tangent_basis(b), _tangent_basis(c)

    def sym(X: np.ndarray) -> np.ndarray:
        return X + X.T

    def column(d_b: np.ndarray, d_c: np.ndarray) -> np.ndarray:
        dB, dC = sym(np.outer(d_b, b)), sym(np.outer(d_c, c))
        KdBK, SdCS = K @ dB @ K, Sigma @ dC @ Sigma
        dK = gains.loop_K.solve(-eps * KdBK, transpose=True)[0]
        dS = gains.loop_Sigma.solve(-delta * SdCS, transpose=True)[0]
        dF_K = -eps * (dB @ K + B @ dK)
        dF_S = -delta * (dC @ Sigma + C @ dS)
        dM = gains.loop_K.solve(sym(dF_K @ M) + sym(dS @ C @ Sigma) + SdCS)[0]
        dN = gains.loop_Sigma.solve(sym(dF_S @ N) + sym(dK @ B @ K) + KdBK)[0]
        dS_b = 0.5 * sym(dK @ M @ K + K @ dM @ K + K @ M @ dK)
        dS_c = 0.5 * sym(dS @ N @ Sigma + Sigma @ dN @ Sigma + Sigma @ N @ dS)
        dg_b = dS_b @ b + grad.S_b @ d_b - (b @ grad.S_b @ b) * d_b
        dg_c = dS_c @ c + grad.S_c @ d_c - (c @ grad.S_c @ c) * d_c
        return -grad.scale * np.concatenate([U.T @ dg_b, W.T @ dg_c])

    zero = np.zeros(plant.n)
    columns = [column(d, zero) for d in U.T] + [column(zero, d) for d in W.T]
    dim = 2 * (plant.n - 1)
    return np.reshape(columns, (dim, dim)).T


def _require_equilibrium(residuals: np.ndarray, eq_tol: float) -> None:
    if not np.all(residuals <= eq_tol):
        raise NotAnEquilibrium(f"residuals {residuals} exceed tolerance {eq_tol:g}")


def _verdict(H: np.ndarray) -> tuple[np.ndarray, str]:
    """(eigenvalues descending, verdict) of the symmetric part of a Hessian:
    stable if the smallest eigenvalue exceeds 1e-7, unstable if it is below
    -1e-7, degenerate otherwise. An empty Hessian (n = 1) is stable."""
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (H + H.T)))[::-1]
    min_eig = np.min(eigs, initial=np.inf)
    if min_eig > STABILITY_MARGIN:
        verdict = STABLE
    elif min_eig < -STABILITY_MARGIN:
        verdict = UNSTABLE
    else:
        verdict = DEGENERATE
    return eigs, verdict


def classify_stability(
    plant: Plant,
    placement: Placement,
    *,
    eq_tol: float = 1e-8,
    report: CostReport | None = None,
) -> tuple[np.ndarray, str]:
    """Exact Hessian classification at an equilibrium.

    Classifies the ``hessian_matrix`` of ``flow.gradient`` with ``_verdict``,
    solving the placement once (or not at all, given its ``report``). In the
    zero-gain regime (eps*delta < 1e-12) the gradient is the rescaled one, so
    the Hessian is that of phi_bar; otherwise it is that of phi.

    Returns (eigenvalues descending, classification).

    Raises
    ------
    NotAnEquilibrium
        If the equilibrium residual exceeds ``eq_tol``.
    """
    if report is None:
        report = cost_report(plant, placement)
    residuals = is_equilibrium(plant, placement, eq_tol, report=report)[1]
    _require_equilibrium(residuals, eq_tol)
    return _verdict(hessian_matrix(plant, placement, report=report))


def classify_candidates(
    spectrum: Spectrum, candidates: list[EquilibriumCandidate]
) -> list[EquilibriumCandidate]:
    """Classify enumerated zero-gain candidates in place of their None fields
    by ``_verdict`` on the closed-form Hessian of ``zero_gain_field``. Raises
    ``NotAnEquilibrium`` if |g_b| or |g_c| exceeds 1e-8."""
    field = zero_gain_field(spectrum)
    classified = []
    for cand in candidates:
        g_b, g_c, _, H = field(cand.placement.b_unit, cand.placement.c_unit)
        _require_equilibrium(np.array([la.norm(g_b), la.norm(g_c)]), 1e-8)
        eigs, verdict = _verdict(H)
        classified.append(
            replace(cand, hessian_eigs=tuple(eigs.tolist()), stability=verdict)
        )
    return classified


def _top_mode(lam: np.ndarray, epsilon: float, delta: float):
    """(l1, sqrt(l1^2+eps), sqrt(l1^2+delta)) for the closed forms.

    l1 is set to exactly 0 when it is roundoff: eigh returns a Laplacian's
    zero eigenvalue as about +-1e-16.
    """
    lam1 = 0.0 if abs(lam[0]) <= ZERO_EIGENVALUE_TOL else lam[0]
    if lam1 > 0.0:
        raise NonNegativeEigenvalue(f"lambda_1 = {lam1:.6g} must be <= 0")
    if lam1 == 0.0 and (epsilon <= 0.0 or delta <= 0.0):
        raise ValueError("lambda_1 = 0 requires positive epsilon and delta")
    return lam1, np.sqrt(lam1**2 + epsilon), np.sqrt(lam1**2 + delta)


def analytic_minimum(spectrum: Spectrum, epsilon: float, delta: float) -> float:
    """Closed-form minimum of phi, attained at the (v_1, v_1) placement:

        (sqrt(l1^2+eps) + sqrt(l1^2+delta))
        / ((sqrt(l1^2+eps) - l1)(sqrt(l1^2+delta) - l1))
        - sum_{k>=2} 1/(2 lambda_k).

    Valid for lambda_1 < 0, and for lambda_1 = 0 (negative semidefinite A,
    e.g. Laplacian dynamics) provided epsilon and delta are positive;
    |lambda_1| <= ZERO_EIGENVALUE_TOL counts as lambda_1 = 0.
    """
    lam = spectrum.Lambda
    lam1, a, b = _top_mode(lam, epsilon, delta)
    head = (a + b) / ((a - lam1) * (b - lam1))
    tail = float(np.sum(1.0 / (2.0 * lam[1:]))) if spectrum.n > 1 else 0.0
    return float(head - tail)


def analytic_gains_at_v1(
    spectrum: Spectrum, epsilon: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of Theta^T {K, Sigma, M, N} Theta at the (v_1, v_1) placement.

        K   = diag(1/(sqrt(l1^2+eps) - l1), -1/(2 l2), ..., -1/(2 ln))
        Sig = diag(1/(sqrt(l1^2+del) - l1), -1/(2 l2), ..., -1/(2 ln))
        M   = diag(1/(2 sqrt(l1^2+eps) (sqrt(l1^2+del) - l1)^2), 0, ..., 0)
        N   = diag(1/(2 sqrt(l1^2+del) (sqrt(l1^2+eps) - l1)^2), 0, ..., 0)
    """
    lam = spectrum.Lambda
    lam1, a, b = _top_mode(lam, epsilon, delta)
    K_diag = np.concatenate([[1.0 / (a - lam1)], -1.0 / (2.0 * lam[1:])])
    S_diag = np.concatenate([[1.0 / (b - lam1)], -1.0 / (2.0 * lam[1:])])
    M_diag = np.zeros(spectrum.n)
    N_diag = np.zeros(spectrum.n)
    M_diag[0] = 1.0 / (2.0 * a * (b - lam1) ** 2)
    N_diag[0] = 1.0 / (2.0 * b * (a - lam1) ** 2)
    return K_diag, S_diag, M_diag, N_diag


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
