"""Dense continuous-time Riccati and Lyapunov solvers, plus PBH tests.

The two equations solved here are

    CARE:      A^T P + P A - P W P + Q = 0        (stabilizing PSD P)
    Lyapunov:  F P + P F^T + Q = 0                (F Hurwitz, PSD P)

``gain_pair`` specializes the CARE to the LQG pair (W = epsilon*B, Q = I for
the regulator K; the dual system A^T, W = delta*C for the filter covariance
Sigma), and ``adjoint_pair`` solves the closed-loop Lyapunov equations

    (A - eps*B*K) M + M (A - eps*B*K)^T + Sigma C Sigma = 0,
    (A - delta*Sigma*C)^T N + N (A - delta*Sigma*C) + K B K = 0,

whose solutions drive the placement gradient.

The CARE is solved once by the Hamiltonian invariant-subspace method
(ordered real Schur form, stable eigenvalues first; Laub, IEEE TAC 24(6),
1979) and certified, not refined: its closed loop A - W P must be Hurwitz,
and then its residual within tolerance, or a typed error says which failed;
a NaN or inf solution fails its residual test, so nothing is pre-screened.
The Lyapunov solve is Bartels-Stewart (Bartels & Stewart, CACM 15(9), 1972):
LAPACK ``trsyl`` on the real Schur form of F, the same steps in the same
order as ``scipy.linalg.solve_continuous_lyapunov``, so its results are
scipy's to the bit. Tests cross-check it against a Kronecker-vectorization
oracle and against the integral representation
P = int_0^inf e^{Ft} Q e^{F^T t} dt.

On a plant whose A is exactly symmetric both CAREs are solved in the
eigenbasis the plant computed once (``Plant.eigenvectors``): the closed-loop
poles are the roots of a secular equation (Kalman's return-difference
identity), which LAPACK ``dlasd4`` solves to high relative accuracy, the
gain follows from the pole-placement residues, and the closed loop is kept
as a ``ModalLoop``, F = W diag(p) W^-1, on which every Lyapunov solve is a
Hadamard product. The Hurwitz margin and then the CARE residual are
certified as on the Hamiltonian path, the residual by the same test. A side
that cannot be solved this way (zero gain, |eigenvalues| not separated, a
decoupled unstable mode, a failed certificate) falls back to the Hamiltonian
path, and ``GainPair.fallback`` says why; non-symmetric plants take that
path only.

On the Hamiltonian path the real Schur form is the only factorization of
each Hamiltonian and each Lyapunov coefficient; its diagonal holds the real
part of every eigenvalue (both entries of a 2x2 block), which is all the
Hurwitz certificates read. A ``ClosedLoop`` keeps the Schur form of F for
every further solve with F or F^T: the CARE's Hurwitz certificate factors
A - W P once, and the adjoint solves and the tangent-linear Hessian
(``equilibria.hessian_matrix``) reuse that form, so a ``cost_report`` on a
non-symmetric plant takes four Schur forms (two Hamiltonians, two closed
loops), and one on a symmetric plant none.
The spectrum of A for the PBH tests is the plant's (``Plant.eigenvalues``),
computed once per plant. Nothing is kept between calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la

from .errors import (
    NoStabilizingSolution,
    NonConvergence,
    NotHurwitz,
    PBHViolation,
)
from .plant import Placement, Plant

_dlasd4 = la.get_lapack_funcs("lasd4", dtype=np.float64)

#: Residual tolerances and margins (double precision, n <= 50).
CARE_RTOL = 1e-10
LYAP_RTOL = 1e-11
HURWITZ_MARGIN = 1e-12

_PBH_RANK_TOL = 1e-9
#: Modal path: a mode with |beta_i| <= 8u (u the float eps) is decoupled
#: exactly, and the |lambda| of the other modes must be strictly increasing
#: with gaps above 1e-8 * max |lambda|.
_DEFLATE_TOL = 8.0 * np.finfo(float).eps
_MODAL_GAP = 1e-8


@dataclass(frozen=True)
class ClosedLoop:
    """A Hurwitz matrix F kept with its real Schur form F = u r u^T.

    Every Lyapunov equation on F or F^T is then one ``trsyl`` call; nothing
    re-factors F.
    """

    F: np.ndarray
    r: np.ndarray
    u: np.ndarray

    @property
    def margin(self) -> float:
        """Hurwitz margin -max Re(eig F), read off the Schur diagonal."""
        return -float(np.max(np.diag(self.r)))

    def solve(self, Q, transpose: bool = False) -> tuple[np.ndarray, float]:
        """Solve F P + P F^T + Q = 0 (F^T P + P F + Q = 0 with ``transpose``).

        Returns P and its residual, certified against 1e-11 * (1 + |P|_F);
        raises ``NonConvergence`` past it.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = _bartels_stewart(self.r, self.u, -Q, transpose)
        return _certified(self.F, Q, P, transpose)


@dataclass(frozen=True)
class ModalLoop:
    """A Hurwitz matrix F with real simple eigenvalues p, kept as
    F = W diag(p) W^{-1} (``Winv`` holds W^{-1}).

    A symmetric plant's modal Riccati solve builds it; it has the interface
    of ``ClosedLoop``. A Lyapunov equation on F or F^T is a Hadamard product
    with -1/(p_k + p_l) between two W-transforms, certified as
    ``ClosedLoop.solve`` certifies. A solve that fails its certificate (the
    transforms are as ill-conditioned as W) is solved again on the real
    Schur form of F, taken on first need and kept.
    """

    F: np.ndarray
    W: np.ndarray
    Winv: np.ndarray
    p: np.ndarray

    @property
    def margin(self) -> float:
        """Hurwitz margin -max p."""
        return -float(np.max(self.p))

    def solve(self, Q, transpose: bool = False) -> tuple[np.ndarray, float]:
        """As ``ClosedLoop.solve``: F^T P + P F + Q = 0 is solved by
        P = W^-T [-(W^T Q W) / (p_k + p_l)] W^-1, F P + P F^T + Q = 0 by
        P = W [-(W^-1 Q W^-T) / (p_k + p_l)] W^T."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        P = _modal_lyapunov(self.W, self.Winv, self.p, Q, transpose)
        try:
            return _certified(self.F, Q, P, transpose)
        except NonConvergence:
            return self._schur.solve(Q, transpose)

    @cached_property
    def _schur(self) -> ClosedLoop:
        return closed_loop(self.F)


def _modal_lyapunov(W, Winv, p, Q, transpose: bool) -> np.ndarray:
    """The uncertified solve of ``ModalLoop.solve``."""
    inner, outer = (W.T, Winv.T) if transpose else (Winv, W)
    Y = (inner @ Q @ inner.T) / -(p[:, None] + p)
    return outer @ Y @ outer.T


def _certified(F, Q, P, transpose: bool) -> tuple[np.ndarray, float]:
    """Symmetrize a Lyapunov solution and certify its residual against
    1e-11 * (1 + |P|_F); a non-finite residual or tolerance fails too."""
    P = 0.5 * (P + P.T)
    res = lyapunov_residual(F.T if transpose else F, Q, P)
    tol = LYAP_RTOL * (1.0 + float(np.linalg.norm(P)))
    if not res <= tol < np.inf:
        raise NonConvergence(
            f"Lyapunov residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return P, res


def _certified_care(A, W, Q, P) -> float:
    """CARE residual of a symmetric P, certified against
    1e-10 * (1 + |P|_F^2); a non-finite residual or tolerance fails too."""
    res = care_residual(A, W, Q, P)
    tol = CARE_RTOL * (1.0 + float(np.linalg.norm(P)) ** 2)
    if not res <= tol < np.inf:
        raise NonConvergence(f"CARE residual {res:.3e} exceeds tolerance {tol:.3e}")
    return res


@dataclass(frozen=True)
class GainPair:
    """Stabilizing ARE solutions: regulator gain K and filter covariance Sigma,
    with their closed loops A - (eps B) K and A^T - (delta C) Sigma.

    On a symmetric plant each loop is a ``ModalLoop``, or a ``ClosedLoop``
    for a side whose modal solve fell back to the Hamiltonian path;
    ``fallback`` then says why ("regulator: ..." and/or "filter: ..."). It
    is None when nothing fell back, and always for non-symmetric plants,
    which have the Hamiltonian path only. ``pbh`` holds the PBH reports passed.
    """

    K: np.ndarray
    Sigma: np.ndarray
    residual_K: float
    residual_Sigma: float
    loop_K: ClosedLoop | ModalLoop
    loop_Sigma: ClosedLoop | ModalLoop
    fallback: str | None = None
    pbh: tuple[PBHReport, ...] = ()


@dataclass(frozen=True)
class AdjointPair:
    """Closed-loop Lyapunov solutions M (state covariance side) and N (dual),
    with their certified residuals."""

    M: np.ndarray
    N: np.ndarray
    residual_M: float
    residual_N: float


@dataclass(frozen=True)
class PBHReport:
    """Outcome of the PBH rank test over the closed right half plane.

    ``tested`` holds one (eigenvalue, margin) pair per eigenvalue with
    nonnegative real part, where margin is the smallest singular value of the
    augmented pencil [A - lambda*I, v]. ``min_margin`` is +inf when A is
    Hurwitz and nothing needed testing.
    """

    mode: str
    ok: bool
    tested: tuple
    min_margin: float


def care_residual(A: np.ndarray, W: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of A^T P + P A - P W P + Q."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.linalg.norm(A.T @ P + P @ A - P @ W @ P + Q))


def lyapunov_residual(F: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of F P + P F^T + Q."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.linalg.norm(F @ P + P @ F.T + Q))


def closed_loop(F) -> ClosedLoop:
    """Real Schur form of F, kept for Lyapunov solves; F must be Hurwitz.

    Raises
    ------
    NotHurwitz
        If any eigenvalue of F has real part >= -1e-12.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    loop = ClosedLoop(F, *la.schur(F, output="real"))
    if loop.margin <= HURWITZ_MARGIN:
        raise NotHurwitz(
            f"matrix is not Hurwitz: max Re(eig) = {-loop.margin:.3e}"
        )
    return loop


def solve_lyapunov(F, Q) -> np.ndarray:
    """Solve F P + P F^T + Q = 0 for Hurwitz F and symmetric Q >= 0.

    Parameters
    ----------
    F : (n, n) array_like
        Hurwitz coefficient matrix.
    Q : (n, n) array_like
        Symmetric positive-semidefinite forcing.

    Returns
    -------
    P : (n, n) ndarray
        The unique symmetric solution, PSD for PSD Q.

    Raises
    ------
    NotHurwitz
        If any eigenvalue of F has real part >= -1e-12.
    NonConvergence
        If the computed residual exceeds 1e-11 * (1 + |P|_F).
    """
    return closed_loop(F).solve(Q)[0]


def _bartels_stewart(
    r: np.ndarray, u: np.ndarray, q: np.ndarray, transpose: bool = False
) -> np.ndarray:
    """Solve a X + X a^T = q (a^T X + X a = q with ``transpose``) for real
    a = u r u^T in real Schur form: ``scipy.linalg.solve_continuous_lyapunov``
    step for step, bar its check for an illegal ``trsyl`` argument."""
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")
    if r.shape != q.shape:
        raise ValueError("Matrix a and q should have the same shape.")
    f = u.conj().T.dot(q.dot(u))
    trsyl = la.get_lapack_funcs("trsyl", (r, f))
    if transpose:
        y, scale, info = trsyl(r, r, f, trana="T")
    else:
        y, scale, info = trsyl(r, r, f, tranb="T")
    if info == 1:
        warnings.warn(
            'Input "a" has an eigenvalue pair whose sum is '
            "very close to or exactly zero. The solution is "
            "obtained via perturbing the coefficients.",
            RuntimeWarning,
            stacklevel=2,
        )
    y *= scale
    return u.dot(y).dot(u.conj().T)


def solve_care(A, W, Q) -> np.ndarray:
    """Solve A^T P + P A - P W P + Q = 0 for the stabilizing PSD solution.

    Uses the ordered real Schur form of the Hamiltonian

        H = [[ A, -W ],
             [ -Q, -A^T ]],

    selecting the n stable eigenvalues. The solution is certified, not
    refined: the closed loop A - W P must be Hurwitz, and then the residual
    must satisfy

        |A^T P + P A - P W P + Q|_F <= 1e-10 * (1 + |P|_F^2).

    When W = 0 the equation degenerates to a Lyapunov equation and is
    dispatched to ``solve_lyapunov`` directly.

    Raises
    ------
    NoStabilizingSolution
        If the ordered Schur form fails, the stable subspace does not have
        dimension n (as when H has eigenvalues on the imaginary axis), the
        subspace basis is too ill-conditioned to invert, or the closed loop
        A - W P is not Hurwitz (margin at most 1e-12).
    NonConvergence
        If the closed loop is Hurwitz but the residual exceeds its tolerance
        or is not finite (as for a NaN or inf P).
    """
    return _solve_care(A, W, Q)[0]


def _solve_care(A, W, Q) -> tuple[np.ndarray, float, ClosedLoop]:
    """``solve_care`` returning (P, residual, closed loop A - W P)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = A.shape[0]

    if np.linalg.norm(W) == 0.0:
        # Degenerate CARE: A^T P + P A + Q = 0, solvable iff A is Hurwitz.
        # The closed loop is A itself; its Schur form solves the transposed
        # equation.
        try:
            loop = closed_loop(A)
        except NotHurwitz as exc:
            raise NoStabilizingSolution(
                "W = 0 and A is not Hurwitz: no stabilizing solution exists"
            ) from exc
        P, res = loop.solve(Q, transpose=True)
        return P, res, loop

    H = np.block([[A, -W], [-Q, -A.T]])
    try:
        T, U, sdim = la.schur(H, output="real", sort="lhp")
    except la.LinAlgError as exc:
        # The reordering fails when eigenvalues sit on or near the axis.
        raise NoStabilizingSolution(f"Hamiltonian Schur form: {exc}") from exc
    if sdim != n:
        raise NoStabilizingSolution(
            f"stable Hamiltonian subspace has dimension {sdim}, expected {n} "
            f"(min |Re eig| = {np.min(np.abs(np.diag(T))):.3e}); "
            "configuration is not stabilizable"
        )
    U1 = U[:n, :n]
    U2 = U[n:, :n]
    if np.linalg.cond(U1) > 1e13:
        raise NoStabilizingSolution(
            "stable-subspace basis is numerically singular; "
            "configuration is (nearly) non-stabilizable"
        )
    P = la.solve(U1.T, U2.T).T
    P = 0.5 * (P + P.T)
    # Near a non-stabilizable configuration a tiny residual relative to
    # |P|^2 can still come with a closed loop that is not Hurwitz, so the
    # loop is certified first. Its Schur form is kept for the Lyapunov
    # solves on that loop.
    try:
        loop = closed_loop(A - W @ P)
    except NotHurwitz as exc:
        raise NoStabilizingSolution(f"closed loop A - W P: {exc}") from exc
    return P, _certified_care(A, W, Q, P), loop


def pbh_check(A, v, mode: str, *, eigenvalues=None) -> PBHReport:
    """PBH rank test of (A, v) for stabilizability or detectability.

    For every eigenvalue lambda of A with Re(lambda) >= 0 (numerically,
    >= -1e-9 so that marginal modes such as a Laplacian zero eigenvalue are
    included), checks rank [A - lambda*I, v] = n; detectability runs the same
    test on A^T. The reported margin per eigenvalue is the smallest singular
    value of the augmented matrix. ``eigenvalues``, when given, is the
    spectrum of A (``Plant.eigenvalues``), which both modes share.
    """
    if mode not in ("stabilizability", "detectability"):
        raise ValueError(f"unknown PBH mode {mode!r}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    if np.linalg.norm(v) == 0.0:
        raise ValueError("PBH test vector must be nonzero")
    M = A if mode == "stabilizability" else A.T
    n = M.shape[0]
    threshold = _PBH_RANK_TOL * (1.0 + float(np.linalg.norm(M)))
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(M)

    tested = []
    ok = True
    for lam in eigenvalues:
        if lam.real < -1e-9:
            continue
        pencil = np.hstack([M - lam * np.eye(n), v[:, None]])
        margin = float(la.svdvals(pencil)[-1])
        tested.append((complex(lam), margin))
        if margin <= threshold:
            ok = False
    min_margin = min((m for _, m in tested), default=float("inf"))
    return PBHReport(mode=mode, ok=ok, tested=tuple(tested), min_margin=min_margin)


def _require_pbh(plant: Plant, placement: Placement) -> tuple[PBHReport, ...]:
    reports = []
    for v, mode, pair in (
        (placement.b_unit, "stabilizability", "(A, b)"),
        (placement.c_unit, "detectability", "(A, c)"),
    ):
        report = pbh_check(plant.A, v, mode, eigenvalues=plant.eigenvalues)
        if not report.ok:
            lam = min(report.tested, key=lambda t: t[1])[0]
            raise PBHViolation(
                f"{pair} fails the PBH {mode} test at eigenvalue {lam}",
                eigenvalue=lam,
            )
        reports.append(report)
    return tuple(reports)


class _ModalFallback(Exception):
    """Why a modal Riccati solve hands over to the Hamiltonian path."""


def _modal_care(A, lam, Theta, gain: float, v) -> tuple[np.ndarray, float, ModalLoop]:
    """``_solve_care(A, gain v v^T, I)`` for symmetric A = Theta diag(lam) Theta^T.

    With beta = Theta^T v the closed loop in modal coordinates is
    diag(lam) - beta k~^T, k~ = gain Theta^T P v. Its poles p_k = -sigma_k
    follow from Kalman's return-difference identity: sigma_k^2 are the
    eigenvalues of diag(lam)^2 + gain beta beta^T, a secular equation that
    LAPACK ``dlasd4`` solves together with every difference |lam_i| - sigma_k
    to high relative accuracy (Gu and Eisenstat, SIMAX 16(1), 1995), so
    lam_i - p_k is exact to a few ulps. Pole placement gives the residues
    k~_i beta_i = prod_k (lam_i - p_k) / prod_{j != i} (lam_i - lam_j), the
    right eigenvectors V_ik = beta_i / (lam_i - p_k) (columns scaled to unit
    norm) and the left ones k~_i / (lam_i - p_k), whose rescaled transpose
    is V^-1. A mode with |beta_i| <= 8u is decoupled exactly: k~_i = 0 and
    its pole is lam_i. With W = Theta V and g = Theta k~, P is the modal
    solve of (A - v g^T)^T P + P (A - v g^T) + g g^T / gain + I = 0, and the
    loop kept is A - (gain v v^T) P.

    P is certified as the Hamiltonian path certifies it: poles left of
    -1e-12 and the CARE residual within 1e-10 * (1 + |P|_F^2), which a
    non-finite P fails. Every later solve on the loop carries the Lyapunov
    certificate.

    Raises
    ------
    _ModalFallback
        At zero gain, for a decoupled mode with lam_i >= 0, coupled |lam_i|
        not separated by 1e-8 * max |lam| (repeated or +-lam eigenvalues), a
        nonzero ``dlasd4`` info or a failed certificate.
    """
    if gain == 0.0:
        raise _ModalFallback("W = 0")
    beta = Theta.T @ v
    coupled = np.abs(beta) > _DEFLATE_TOL
    rest = np.flatnonzero(~coupled)
    if np.any(lam[rest] >= 0.0):
        raise _ModalFallback("a decoupled mode has lambda >= 0")
    idx = np.flatnonzero(coupled)
    idx = idx[np.argsort(np.abs(lam[idx]))]
    lam_a, beta_a = lam[idx], beta[idx]
    d = np.abs(lam_a)
    if np.any(np.diff(d) <= _MODAL_GAP * d[-1]):
        raise _ModalFallback("|lambda| not separated by 1e-8 * max |lambda|")
    norm = float(np.linalg.norm(beta_a))
    z, rho = beta_a / norm, gain * norm**2
    m = idx.size
    sigma = np.empty(m)
    below = np.empty((m, m))  # below[k, i] = d_i - sigma_k
    for k in range(m):
        below[k], sigma[k], _, info = _dlasd4(k, d, z, rho)
        if info != 0:
            raise _ModalFallback(f"dlasd4 info = {info}")
    if m == 1:  # dlasd4 returns DELTA = 1, an eigenvector entry, for one mode
        below[0, 0] = -rho / (d[0] + sigma[0])
    # Coupled modes first, then the decoupled ones, which keep their pole.
    p = np.concatenate([-sigma, lam[rest]])
    if not -np.max(p) > HURWITZ_MARGIN:
        raise _ModalFallback(f"closed loop not Hurwitz: max pole {np.max(p):.3e}")
    diff = np.where(lam_a[:, None] <= 0.0, -below.T, d[:, None] + sigma)  # lam_i - p_k
    gaps = lam_a[:, None] - lam_a
    np.fill_diagonal(gaps, 1.0)
    eye = np.eye(lam.size)
    with np.errstate(all="ignore"):
        k_a = np.prod(diff / gaps, axis=1) / beta_a
        V = beta_a[:, None] / diff
        V /= np.linalg.norm(V, axis=0)
        U = k_a[:, None] / diff
        Vinv = (U / np.sum(U * V, axis=0)).T
        W = np.hstack([Theta[:, idx] @ V, Theta[:, rest]])
        Winv = np.vstack([Vinv @ Theta[:, idx].T, Theta[:, rest].T])
        g = Theta[:, idx] @ k_a
        P = _modal_lyapunov(W, Winv, p, np.outer(g, g) / gain + eye, transpose=True)
        P = 0.5 * (P + P.T)
        Wv = gain * np.outer(v, v)
        try:
            res = _certified_care(A, Wv, eye, P)
        except NonConvergence as exc:
            raise _ModalFallback(str(exc)) from exc
    return P, res, ModalLoop(A - Wv @ P, W, Winv, p)


def gain_pair(plant: Plant, placement: Placement) -> GainPair:
    """Solve the two LQG Riccati equations for a placement.

    K solves A^T K + K A - eps K B K + I = 0 and Sigma solves the dual
    A Sigma + Sigma A^T - delta Sigma C Sigma + I = 0, with B, C the
    normalized projectors of the placement. The closed loops are kept for
    further solves: A - (eps B) K, and A^T - (delta C) Sigma, the transpose
    of the filter loop A - delta Sigma C. On a symmetric plant each side is
    solved in the plant's eigenbasis (``_modal_care``), and a side whose
    modal solve fails takes the Hamiltonian path, with the reason in
    ``GainPair.fallback``; a non-symmetric plant takes the Hamiltonian path.

    Raises
    ------
    PBHViolation
        If (A, b) is not stabilizable or (A, c) is not detectable.
    NoStabilizingSolution, NonConvergence
        Propagated from the Hamiltonian CARE solver.
    """
    pbh = _require_pbh(plant, placement)
    eye = np.eye(plant.n)
    solved, fallbacks = [], []
    for side, A, gain, v in (
        ("regulator", plant.A, plant.epsilon, placement.b_unit),
        ("filter", plant.A.T, plant.delta, placement.c_unit),
    ):
        if plant.eigenvectors is not None:
            try:
                solved.append(
                    _modal_care(A, plant.eigenvalues, plant.eigenvectors, gain, v)
                )
                continue
            except _ModalFallback as exc:
                fallbacks.append(f"{side}: {exc}")
        solved.append(_solve_care(A, gain * np.outer(v, v), eye))
    (K, res_K, loop_K), (Sigma, res_S, loop_S) = solved
    return GainPair(
        K, Sigma, res_K, res_S, loop_K, loop_S, "; ".join(fallbacks) or None, pbh
    )


def adjoint_pair(plant: Plant, placement: Placement, gains: GainPair) -> AdjointPair:
    """Solve the closed-loop Lyapunov equations for the adjoint pair (M, N).

    M solves (A - eps B K) M + M (A - eps B K)^T + Sigma C Sigma = 0 on
    ``gains.loop_K`` and N solves
    (A - delta Sigma C)^T N + N (A - delta Sigma C) + K B K = 0 on
    ``gains.loop_Sigma``, so neither loop is factored again.
    """
    K, Sigma = gains.K, gains.Sigma
    M, res_M = gains.loop_K.solve(Sigma @ placement.C @ Sigma)
    N, res_N = gains.loop_Sigma.solve(K @ placement.B @ K)
    return AdjointPair(M, N, res_M, res_N)
