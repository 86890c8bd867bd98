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

The CARE is solved by the Hamiltonian invariant-subspace method (ordered real
Schur form, stable eigenvalues first; Laub, IEEE TAC 24(6), 1979), refined by
Newton-Kleinman to a certified residual, and its closed loop A - W P is
certified Hurwitz. The Lyapunov solve is Bartels-Stewart (Bartels & Stewart,
CACM 15(9), 1972): LAPACK ``trsyl`` on the real Schur form of F, the same
steps in the same order as ``scipy.linalg.solve_continuous_lyapunov``, so its
results are scipy's to the bit. Tests cross-check it against a
Kronecker-vectorization oracle and against the integral representation
P = int_0^inf e^{Ft} Q e^{F^T t} dt.

The real Schur form is the only factorization of each Hamiltonian and each
Lyapunov coefficient; its diagonal holds the real part of every eigenvalue
(both entries of a 2x2 block), which is all the axis and Hurwitz guards read.
A ``ClosedLoop`` keeps the Schur form of F for every further solve with F or
F^T: the CARE's Hurwitz certificate factors A - W P once, and the adjoint
solves and the tangent-linear Hessian (``equilibria.hessian_matrix``) reuse
that form, so a ``cost_report`` at positive gains takes four Schur forms
(two Hamiltonians, two closed loops) unless Newton-Kleinman refines. The
spectrum of A for the PBH tests is the plant's (``Plant.eigenvalues``),
computed once per plant. Nothing is kept between calls.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import (
    NoStabilizingSolution,
    NonConvergence,
    NotHurwitz,
    PBHViolation,
)
from .plant import Placement, Plant

#: Residual tolerances and margins (double precision, n <= 50).
CARE_RTOL = 1e-10
LYAP_RTOL = 1e-11
HURWITZ_MARGIN = 1e-12
PSD_TOL = -1e-10

_MAX_NEWTON_REFINEMENTS = 5
_PBH_RANK_TOL = 1e-9


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
        P = 0.5 * (P + P.T)
        res = lyapunov_residual(self.F.T if transpose else self.F, Q, P)
        tol = LYAP_RTOL * (1.0 + float(la.norm(P, "fro")))
        if res > tol:
            raise NonConvergence(
                f"Lyapunov residual {res:.3e} exceeds tolerance {tol:.3e}"
            )
        return P, res


@dataclass(frozen=True)
class GainPair:
    """Stabilizing ARE solutions: regulator gain K and filter covariance Sigma,
    with their closed loops A - (eps B) K and A^T - (delta C) Sigma."""

    K: np.ndarray
    Sigma: np.ndarray
    residual_K: float
    residual_Sigma: float
    loop_K: ClosedLoop
    loop_Sigma: ClosedLoop


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
    return float(la.norm(A.T @ P + P @ A - P @ W @ P + Q, "fro"))


def lyapunov_residual(F: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Frobenius norm of F P + P F^T + Q."""
    return float(la.norm(F @ P + P @ F.T + Q, "fro"))


def is_hurwitz(F: np.ndarray, margin: float = HURWITZ_MARGIN) -> bool:
    """True when every eigenvalue of F has real part < -margin."""
    r = la.schur(np.atleast_2d(np.asarray(F, dtype=float)), output="real")[0]
    return bool(np.max(np.diag(r)) < -margin)


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
    step for step."""
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
    if info < 0:
        raise ValueError(
            "?TRSYL exited with the internal error "
            f'"illegal value in argument number {-info}.". See '
            "LAPACK documentation for the ?TRSYL error codes."
        )
    elif info == 1:
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

    selecting the n stable eigenvalues, then refines with Newton-Kleinman
    steps (each one a Lyapunov solve) until the certified residual

        |A^T P + P A - P W P + Q|_F <= 1e-10 * (1 + |P|_F^2)

    is met. When W = 0 the equation degenerates to a Lyapunov equation and is
    dispatched to ``solve_lyapunov`` directly.

    Raises
    ------
    NoStabilizingSolution
        If H has eigenvalues on the imaginary axis (within 1e-12), the
        ordered Schur form fails, the stable subspace does not have dimension
        n, the subspace basis is too ill-conditioned to invert, or the closed
        loop A - W P of the refined P is not Hurwitz.
    NonConvergence
        If Newton-Kleinman refinement stalls above the residual tolerance.
    """
    return _solve_care(A, W, Q)[0]


def _solve_care(A, W, Q) -> tuple[np.ndarray, float, ClosedLoop]:
    """``solve_care`` returning (P, residual, closed loop A - W P)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = A.shape[0]

    if la.norm(W, "fro") == 0.0:
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
    axis_dist = float(np.min(np.abs(np.diag(T))))
    if axis_dist <= HURWITZ_MARGIN:
        raise NoStabilizingSolution(
            "Hamiltonian has eigenvalues on the imaginary axis "
            f"(min |Re| = {axis_dist:.3e}); configuration is not stabilizable"
        )
    if sdim != n:
        raise NoStabilizingSolution(
            f"stable Hamiltonian subspace has dimension {sdim}, expected {n}"
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

    res = care_residual(A, W, Q, P)
    for _ in range(_MAX_NEWTON_REFINEMENTS):
        tol = CARE_RTOL * (1.0 + float(la.norm(P, "fro")) ** 2)
        if res <= tol:
            break
        F = A - W @ P
        try:
            P_next = solve_lyapunov(F.T, P @ W @ P + Q)
        except NotHurwitz as exc:
            raise NoStabilizingSolution(
                "closed loop A - W P is not Hurwitz after Schur step"
            ) from exc
        res_next = care_residual(A, W, Q, P_next)
        if res_next >= res:
            break
        P, res = P_next, res_next
    tol = CARE_RTOL * (1.0 + float(la.norm(P, "fro")) ** 2)
    if res > tol:
        raise NonConvergence(
            f"Newton-Kleinman refinement stalled at residual {res:.3e} "
            f"(tolerance {tol:.3e})"
        )
    # Near a non-stabilizable configuration a tiny residual relative to
    # |P|^2 can still come with a closed loop that is not Hurwitz. The Schur
    # form that certifies it is kept for the Lyapunov solves on that loop.
    try:
        loop = closed_loop(A - W @ P)
    except NotHurwitz as exc:
        raise NoStabilizingSolution(f"closed loop A - W P: {exc}") from exc
    return P, res, loop


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
    threshold = _PBH_RANK_TOL * (1.0 + float(la.norm(M, "fro")))
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


def _require_pbh(plant: Plant, placement: Placement) -> None:
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


def gain_pair(plant: Plant, placement: Placement) -> GainPair:
    """Solve the two LQG Riccati equations for a placement.

    K solves A^T K + K A - eps K B K + I = 0 and Sigma solves the dual
    A Sigma + Sigma A^T - delta Sigma C Sigma + I = 0, with B, C the
    normalized projectors of the placement. The closed loops are kept in
    real Schur form: A - (eps B) K, and A^T - (delta C) Sigma, the transpose
    of the filter loop A - delta Sigma C.

    Raises
    ------
    PBHViolation
        If (A, b) is not stabilizable or (A, c) is not detectable.
    NoStabilizingSolution, NonConvergence
        Propagated from the CARE solver.
    """
    _require_pbh(plant, placement)
    eye = np.eye(plant.n)
    K, res_K, loop_K = _solve_care(plant.A, plant.epsilon * placement.B, eye)
    Sigma, res_S, loop_S = _solve_care(plant.A.T, plant.delta * placement.C, eye)
    return GainPair(K, Sigma, res_K, res_S, loop_K, loop_S)


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
