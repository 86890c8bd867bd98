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
xi, which the closed-form Cauchy inverse gives for every pattern of every
support of one size at once. Stability is read from the Hessian of the
potential on the tangent space of the sphere pair: in closed form for
enumerated candidates (``zero_gain_field``), and in ``classify_stability``
(phi, or phi_bar in the zero-gain limit) by ``hessian_matrix``, which
differentiates ``flow.gradient`` exactly: three tangent-linear Lyapunov
solves per tangent direction on the closed loops the cost evaluation kept.
``is_equilibrium``, ``hessian_matrix`` and ``classify_stability`` read one
``cost.CostReport`` and solve nothing; ``top_pair_candidate`` solves the one
report of (v_1, v_1) it classifies.

The zero-gain path runs in stacked array passes, one per support size to
enumerate and one per ``_CLASSIFY_BLOCK`` candidates (a memory bound) to
classify. Dot and matrix-vector products stay per row (``_dot``), so each
candidate keeps the bits it has alone, whatever the block.

The spectrum is the plant's own ``eigh`` (``Spectrum.of``). The closed forms
at (v_1, v_1) also hold for negative semidefinite A, with any repeated
eigenvalues below lambda_1; ``top_mode`` is their one zero-mode rule.
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
from .flow import field_scale, gradient
from .plant import Placement, Plant

ENUMERATION_CAP = 12
EIGENGAP_TOL = 1e-10
#: |lambda_1| at or below this is a zero mode (e.g. a Laplacian's), by
#: ``top_mode``.
ZERO_EIGENVALUE_TOL = 1e-10
EQ19_RESIDUAL_TOL = 1e-8
STABILITY_MARGIN = 1e-7
#: Candidates per stacked pass of ``classify_candidates``.
_CLASSIFY_BLOCK = 256

KIND_COMMON = "common_support"
KIND_DISJOINT = "disjoint_support"

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition A = Theta diag(Lambda) Theta^T, Lambda descending
    (repeated eigenvalues allowed), read off the plant's own ``eigh``.

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
        if np.any(np.diff(Lambda) > 0):
            raise ValueError("eigenvalues must be descending")
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
        return cls.of(Plant(0.5 * (A + A.T), 0.0, 0.0))

    @classmethod
    def of(cls, plant: Plant) -> "Spectrum":
        """A plant not exactly symmetric goes through ``from_matrix``, which
        takes A symmetric within 1e-10 relative as its symmetric part."""
        if plant.eigenvectors is None:
            return cls.from_matrix(plant.A)
        order = np.argsort(plant.eigenvalues)[::-1]
        eigvals = plant.eigenvalues[order]
        eigvecs = plant.eigenvectors[:, order]
        lead = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(eigvals.size)]
        eigvecs *= np.where(lead < 0, -1.0, 1.0)
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


def is_equilibrium(report: CostReport, tol: float) -> tuple[bool, np.ndarray]:
    """Test the equilibrium condition at the report's placement; returns
    (flag, [res_b, res_c]).

    The residuals are the norms of the tangent residuals r_b and r_c of
    ``flow.gradient``, which vanish exactly when b and c are eigenvectors of
    the drive matrices.
    """
    grad = gradient(report)
    residuals = np.array([np.linalg.norm(grad.r_b), np.linalg.norm(grad.r_c)])
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


def eq19_residual(beta: np.ndarray, gamma: np.ndarray, spectrum: Spectrum):
    """Residual of the coupled eigen-equations at (beta, gamma): a float, or
    one per row for stacked rows."""
    lam2 = spectrum.Lambda**2
    x = (beta * gamma) @ cauchy_matrix(spectrum.Lambda)  # Psi is symmetric
    lhs_b, lhs_c = gamma * x, beta * x
    # beta^T Lambda^2 beta = 1
    mu_b = np.sum(beta * lhs_b, axis=-1, keepdims=True)
    mu_c = np.sum(gamma * lhs_c, axis=-1, keepdims=True)
    residual = np.maximum(
        np.linalg.norm(lhs_b - mu_b * lam2 * beta, axis=-1),
        np.linalg.norm(lhs_c - mu_c * lam2 * gamma, axis=-1),
    )
    return residual if residual.ndim else float(residual)


def xi_vector(lambdas, support, signs) -> tuple[np.ndarray, bool | np.ndarray]:
    """Solve diag(s) Psi' diag(s) xi = (lambda_i^2) on a support block.

    ``signs`` is one +/-1 pattern or one per column; ``support`` is one
    support or one per row, all of one size, each solved for every pattern.
    xi and the existence flag (all entries positive) follow that layout,
    with a leading support axis for stacked supports. With a = -lambda on the
    support, Psi'^-1 = diag(P) Psi' diag(P), P_i = prod_k (a_i + a_k) /
    prod_{k != i} (a_i - a_k) (Boros, Kailath and Olshevsky, LAA 302-303,
    1999), so xi = s * P * (T s) with T_ij = P_j a_j^2 / (a_i + a_j). T_ij
    carries at most 4 |support| + 1 roundings and (T s)_i |support| - 1 more,
    so each sign is decided against the bound 5 |support| u sum_j |T_ij|: a
    pattern exists if every entry is surely positive, is absent if any is
    surely negative, and raises ``SingularBlock`` otherwise.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    idx = np.atleast_1d(np.array(support, dtype=int))
    signs = np.atleast_1d(np.asarray(signs, dtype=float))
    if idx.size == 0 or idx.ndim > 2:
        raise ValueError("support must be nonempty, one or a stack of one size")
    supports, size = idx.reshape(-1, idx.shape[-1]), idx.shape[-1]
    if signs.ndim > 2 or signs.shape[0] != size or np.any(np.abs(signs) != 1.0):
        raise ValueError("signs must be +/-1 patterns over the support")
    a = -lam[supports]
    if np.any(a <= 0.0):
        raise NonNegativeEigenvalue("the Cauchy block needs negative eigenvalues")
    sums = a[:, :, None] + a[:, None, :]
    diffs = a[:, :, None] - a[:, None, :]
    diffs[:, range(size), range(size)] = 1.0
    P = np.prod(sums, axis=2) / np.prod(diffs, axis=2)
    T = (P * a**2)[:, None, :] / sums
    cols = signs.reshape(size, -1)
    Ts = np.zeros((a.shape[0],) + cols.shape)
    for j in range(size):  # a fixed order: no column depends on the batch
        Ts += T[:, :, j, None] * cols[j]
    bound = (5.0 * size * np.finfo(float).eps / 2 * np.abs(T).sum(axis=2))[:, :, None]
    sign_xi = cols * np.sign(P)[:, :, None] * Ts
    exists = np.all(sign_xi > bound, axis=1)
    undecided = ~exists & ~np.any(sign_xi < -bound, axis=1)
    if np.any(undecided):
        s, k = np.unravel_index(np.argmax(undecided), undecided.shape)
        raise SingularBlock(
            f"sign of xi undecided on support {tuple(supports[s].tolist())}, pattern "
            f"{cols[:, k]}: T s = {Ts[s, :, k]} against rounding bound {bound[s, :, 0]}"
        )
    xi = (cols * P[:, :, None] * Ts).reshape(idx.shape[:-1] + signs.shape)
    exists = exists.reshape(idx.shape[:-1] + signs.shape[1:])
    return xi, (exists if exists.ndim else bool(exists))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v per row, kept on a trailing axis of length one. The stacked
    ``matmul`` takes each row's ``dot`` (and M @ v[..., None] each row's
    ``gemv``), so a row keeps the bits it has alone."""
    return (u[..., None, :] @ v[..., :, None])[..., 0]


def _unit(v: np.ndarray) -> np.ndarray:
    """``Placement.normalized``'s normalization in its normal range, per row."""
    norm = np.sqrt(_dot(v, v))
    if not np.all((0.0 < norm) & (norm < np.inf)):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def enumerate_equilibria_zero(spectrum: Spectrum) -> list[EquilibriumCandidate]:
    """Enumerate zero-gain equilibrium candidates for a negative spectrum.

    Emits one common-support candidate per (support, sign pattern with
    leading +1) whose xi-certificate is positive, each verified against the
    coupled eigen-equations to residual 1e-8, plus one representative
    disjoint-support candidate (v_i, v_j) per ordered pair i != j. Every
    support of one size is certified by one ``xi_vector`` call, and the
    placements (beta, gamma) = (sqrt(xi), s*sqrt(xi)) / |Lambda sqrt(xi)| of
    the patterns that exist are formed and verified together. The sign
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
    Theta, lam = spectrum.Theta, spectrum.Lambda

    candidates: list[EquilibriumCandidate] = []
    for size in range(1, n + 1):
        patterns = np.array(
            [(1.0,) + tail for tail in itertools.product((1.0, -1.0), repeat=size - 1)]
        )
        supports = np.array(list(itertools.combinations(range(n), size)))
        xis, exists = xi_vector(lam, supports, patterns.T)
        which, pattern = np.nonzero(exists)
        support, signs, xi = supports[which], patterns[pattern], xis[which, :, pattern]
        root = np.sqrt(xi)
        scaled = lam[support] * root
        scale = np.sqrt(_dot(scaled, scaled))
        rows = np.arange(which.size)[:, None]
        beta, gamma = np.zeros((2, which.size, n))
        beta[rows, support] = root / scale
        gamma[rows, support] = signs * root / scale
        residual = np.broadcast_to(eq19_residual(beta, gamma, spectrum), which.shape)
        failed = np.flatnonzero(~(residual < EQ19_RESIDUAL_TOL))
        if failed.size:
            raise SingularBlock(
                f"candidate on support {tuple(support[failed[0]].tolist())} failed "
                f"verification (residual {residual[failed[0]]:.3e})"
            )
        b_units = _unit((Theta @ (lam * beta)[..., None])[..., 0])
        c_units = _unit((Theta @ (lam * gamma)[..., None])[..., 0])
        sign_s = np.zeros((which.size, n), dtype=int)
        sign_s[rows, support] = signs
        tuples = (map(tuple, values.tolist()) for values in (support, sign_s, xi))
        candidates += [
            EquilibriumCandidate(Placement(b, c), KIND_COMMON, t, s, x)
            for b, c, t, s, x in zip(b_units, c_units, *tuples)
        ]
    candidates += [
        EquilibriumCandidate(
            Placement(spectrum.eigenvector(i), spectrum.eigenvector(j)),
            KIND_DISJOINT, (i, j), (0,) * n, None,
        )
        for i, j in itertools.permutations(range(n), 2)
    ]
    return candidates


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the unit vector v,
    one per row for stacked rows: the right singular vectors after the
    first (``null_space``'s, bitwise)."""
    return np.swapaxes(np.linalg.svd(v[..., None, :])[2][..., 1:, :], -1, -2)


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
    ``b`` and ``c`` are one placement or stacked rows (C, n), and so are the
    results, each row with the bits it has alone.
    """
    Theta = spectrum.Theta
    psi = cauchy_matrix(spectrum.Lambda)
    k2 = 0.25 / spectrum.Lambda**2
    eye = np.eye(spectrum.n)
    diagonal = np.arange(spectrum.n)

    def field(b: np.ndarray, c: np.ndarray):
        b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
        bt = (Theta.T @ _unit(b)[..., None])[..., 0]
        ct = (Theta.T @ _unit(c)[..., None])[..., 0]
        p, q = k2 * ct, k2 * bt
        x = p * bt
        y = (psi @ x[..., None])[..., 0]
        mu = _dot(x, y)
        H_bb = mu[..., None] * eye - p[..., :, None] * psi * p[..., None, :]
        H_bc = np.zeros(y.shape + (spectrum.n,))
        H_bc[..., diagonal, diagonal] = k2 * y
        H_bc = -H_bc - p[..., :, None] * psi * q[..., None, :]
        H_cc = mu[..., None] * eye - q[..., :, None] * psi * q[..., None, :]
        U, W = _tangent_basis(bt), _tangent_basis(ct)
        Ut, Wt, H_cb = (np.swapaxes(X, -1, -2) for X in (U, W, H_bc))
        H = np.block([[Ut @ H_bb @ U, Ut @ H_bc @ W], [Wt @ H_cb @ U, Wt @ H_cc @ W]])
        g_b = (Theta @ (mu * bt - p * y)[..., None])[..., 0]
        g_c = (Theta @ (mu * ct - q * y)[..., None])[..., 0]
        return g_b, g_c, -mu[..., 0], H

    return field


def hessian_matrix(report: CostReport) -> np.ndarray:
    """Exact Hessian of the potential at the report's placement, by tangent
    linearization.

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
    are U^T (-s)(dS_b b + S_b d_b - (b^T S_b b) d_b), s the field scale.
    That is three solves on the kept loops per direction: a b-direction has
    dC = 0, so dSig = 0, and a c-direction has dB = 0, so dK = 0, and these
    identically zero solves are skipped. At a critical point the result is
    the Riemannian Hessian (Absil, Mahony and Trumpf, GSI 2013), symmetric
    up to rounding; elsewhere it is the Jacobian of the projected field.
    """
    # Run in the coordinates of the gain pair (a symmetric plant's
    # eigenbasis Theta): b, c and the tangent bases U, W are taken there, and
    # U^T dg_b = (Theta^T U)^T (Theta^T dg_b).
    plant, placement = report.plant, report.placement
    gains, adjoints = report.gains, report.adjoints
    K, Sigma, M, N = gains.K_tilde, gains.Sigma_tilde, adjoints.M_tilde, adjoints.N_tilde
    S_b, S_c = drive_matrices(gains, adjoints)
    eps, delta, scale = plant.epsilon, plant.delta, field_scale(plant)
    U = gains.coords(_tangent_basis(placement.b_unit))
    W = gains.coords(_tangent_basis(placement.c_unit))
    b, c = gains.coords(placement.b_unit), gains.coords(placement.c_unit)
    B, C = np.outer(b, b), np.outer(c, c)
    Kb, Sc = K @ b, Sigma @ c
    unmoved = np.zeros((plant.n, plant.n))

    def sym(X: np.ndarray) -> np.ndarray:
        return X + X.T

    def column(d_b: np.ndarray, d_c: np.ndarray) -> np.ndarray:
        dB, dC = sym(np.outer(d_b, b)), sym(np.outer(d_c, c))
        # Rank two: K dB K = (K d_b)(K b)^T + its transpose, likewise for Sigma.
        KdBK, SdCS = sym(np.outer(K @ d_b, Kb)), sym(np.outer(Sigma @ d_c, Sc))
        dK = dS = unmoved
        if d_b.any():
            dK = gains.loop_K.solve(-eps * KdBK, transpose=True)[0]
        if d_c.any():
            dS = gains.loop_Sigma.solve(-delta * SdCS, transpose=True)[0]
        dF_K = -eps * (dB @ K + B @ dK)
        dF_S = -delta * (dC @ Sigma + C @ dS)
        dM = gains.loop_K.solve(sym(dF_K @ M) + sym(dS @ C @ Sigma) + SdCS)[0]
        dN = gains.loop_Sigma.solve(sym(dF_S @ N) + sym(dK @ B @ K) + KdBK)[0]
        dS_b = 0.5 * sym(dK @ M @ K + K @ dM @ K + K @ M @ dK)
        dS_c = 0.5 * sym(dS @ N @ Sigma + Sigma @ dN @ Sigma + Sigma @ N @ dS)
        dg_b = dS_b @ b + S_b @ d_b - (b @ S_b @ b) * d_b
        dg_c = dS_c @ c + S_c @ d_c - (c @ S_c @ c) * d_c
        return -scale * np.concatenate([U.T @ dg_b, W.T @ dg_c])

    zero = np.zeros(plant.n)
    columns = [column(d, zero) for d in U.T] + [column(zero, d) for d in W.T]
    dim = 2 * (plant.n - 1)
    return np.reshape(columns, (dim, dim)).T


def _require_equilibrium(residuals: np.ndarray, eq_tol: float) -> None:
    """Raise for the first row of [res_b, res_c] residuals above ``eq_tol``."""
    failed = ~np.all(residuals <= eq_tol, axis=-1)
    if np.any(failed):
        raise NotAnEquilibrium(
            f"residuals {residuals[failed][0]} exceed tolerance {eq_tol:g}"
        )


def _verdict(H: np.ndarray) -> tuple[np.ndarray, str | list[str]]:
    """(eigenvalues descending, verdict) of the symmetric part of a Hessian,
    or of each of a stack of them: stable if the smallest eigenvalue exceeds
    1e-7, unstable if it is below -1e-7, degenerate otherwise. An empty
    Hessian (n = 1) is stable."""
    sym = 0.5 * (H + np.swapaxes(H, -1, -2))
    eigs = np.sort(np.linalg.eigvalsh(sym), axis=-1)[..., ::-1]
    min_eig = np.min(eigs, axis=-1, initial=np.inf)
    decided = [min_eig > STABILITY_MARGIN, min_eig < -STABILITY_MARGIN]
    verdict = np.select(decided, [STABLE, UNSTABLE], DEGENERATE)
    return eigs, verdict.tolist()


def classify_stability(report: CostReport, *, eq_tol: float = 1e-8) -> tuple[np.ndarray, str]:
    """Exact Hessian classification at the report's placement, an equilibrium.

    Classifies the ``hessian_matrix`` of ``flow.gradient`` with ``_verdict``
    after ``is_equilibrium``, both read from ``report``; nothing is solved.
    In the zero-gain regime (eps*delta < 1e-12) the gradient is that of
    phi_bar, so the Hessian is too; otherwise of phi.

    Returns (eigenvalues descending, classification).

    Raises
    ------
    NotAnEquilibrium
        If the equilibrium residual exceeds ``eq_tol``.
    """
    _require_equilibrium(is_equilibrium(report, eq_tol)[1], eq_tol)
    return _verdict(hessian_matrix(report))


def classify_candidates(
    spectrum: Spectrum, candidates: list[EquilibriumCandidate]
) -> list[EquilibriumCandidate]:
    """Classify enumerated zero-gain candidates in place of their None fields
    by ``_verdict`` on the closed-form Hessian of ``zero_gain_field``, taken
    for ``_CLASSIFY_BLOCK`` candidates at a time. Raises ``NotAnEquilibrium``
    for the first candidate where |g_b| or |g_c| exceeds 1e-8."""
    field = zero_gain_field(spectrum)
    classified = []
    for start in range(0, len(candidates), _CLASSIFY_BLOCK):
        block = candidates[start : start + _CLASSIFY_BLOCK]
        g_b, g_c, _, H = field(
            np.array([cand.placement.b_unit for cand in block]),
            np.array([cand.placement.c_unit for cand in block]),
        )
        residuals = np.stack([la.norm(g_b, axis=-1), la.norm(g_c, axis=-1)], axis=-1)
        _require_equilibrium(residuals, 1e-8)
        eigs, verdicts = _verdict(H)
        classified += [
            replace(cand, hessian_eigs=tuple(row), stability=verdict)
            for cand, row, verdict in zip(block, eigs.tolist(), verdicts)
        ]
    return classified


def top_pair_candidate(plant: Plant, spectrum: Spectrum) -> EquilibriumCandidate:
    """The top-eigenvector pair (v_1, v_1) of the plant's ``spectrum`` as a
    common-support candidate, classified by ``classify_stability`` from its
    one ``cost_report`` at the plant's gains. On a negative semidefinite
    spectrum (e.g. a Laplacian's) the zero-gain enumeration is unavailable,
    but this pair still minimizes the cost."""
    v1 = spectrum.eigenvector(0)
    placement = Placement(v1, v1.copy())
    eigs, verdict = classify_stability(cost_report(plant, placement))
    sign_s = (1,) + (0,) * (plant.n - 1)
    return EquilibriumCandidate(
        placement, KIND_COMMON, (0,), sign_s, None, tuple(eigs.tolist()), verdict
    )


def top_mode(lam: np.ndarray, epsilon: float, delta: float):
    """(l1, sqrt(l1^2+eps), sqrt(l1^2+delta)) for the closed forms: the one
    zero-mode rule, which ``codesign equilibria`` and ``verify`` read too.

    l1 is set to exactly 0 when it is roundoff: eigh returns a Laplacian's
    zero eigenvalue as about +-1e-16. A repeated zero is refused: no single
    actuator passes PBH there.
    """
    lam1 = 0.0 if abs(lam[0]) <= ZERO_EIGENVALUE_TOL else lam[0]
    if lam1 > 0.0:
        raise NonNegativeEigenvalue(f"lambda_1 = {lam1:.6g} must be <= 0")
    if lam1 == 0.0 and (epsilon <= 0.0 or delta <= 0.0):
        raise ValueError("lambda_1 = 0 requires positive epsilon and delta")
    if lam1 == 0.0 and lam.size > 1 and abs(lam[1]) <= ZERO_EIGENVALUE_TOL:
        raise NonNegativeEigenvalue(
            f"lambda_2 = {lam[1]:.6g} repeats the zero eigenvalue: no single "
            "actuator passes PBH at a repeated zero eigenvalue"
        )
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
    lam1, a, b = top_mode(lam, epsilon, delta)
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
    lam1, a, b = top_mode(lam, epsilon, delta)
    K_diag = np.concatenate([[1.0 / (a - lam1)], -1.0 / (2.0 * lam[1:])])
    S_diag = np.concatenate([[1.0 / (b - lam1)], -1.0 / (2.0 * lam[1:])])
    M_diag = np.zeros(spectrum.n)
    N_diag = np.zeros(spectrum.n)
    M_diag[0] = 1.0 / (2.0 * a * (b - lam1) ** 2)
    N_diag[0] = 1.0 / (2.0 * b * (a - lam1) ** 2)
    return K_diag, S_diag, M_diag, N_diag
