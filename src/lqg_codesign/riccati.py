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

The CARE is solved by the Hamiltonian invariant-subspace method (ordered
real Schur form, stable eigenvalues first; Laub, IEEE TAC 24(6), 1979) and
certified, not refined: its closed loop A - W P must be Hurwitz, and then
its residual within tolerance, or a typed error says which failed; a NaN or
inf solution fails its residual test, so nothing is pre-screened. From
order n = 12 on, where the 2n x 2n Schur form costs more, the
structure-preserving doubling algorithm (Chu, Fan and Lin, Linear Algebra
Appl. 396, 2005) is tried first: n x n products and solves only, under the
same two certificates; a doubling solve that fails to converge or to
certify hands the side to the Schur form.
The Lyapunov solve is Bartels-Stewart (Bartels & Stewart, CACM 15(9), 1972):
LAPACK ``trsyl`` on the real Schur form of F, the same steps in the same
order as ``scipy.linalg.solve_continuous_lyapunov``, so its results are
scipy's to the bit. Tests cross-check it against a Kronecker-vectorization
oracle and against the integral representation
P = int_0^inf e^{Ft} Q e^{F^T t} dt.

On a plant whose A is exactly symmetric, and whose eigendecomposition
reproduces A to rounding, the gain pair is solved and held in the
eigenbasis the plant computed once (``Plant.modal``), where A is
diag(lam) and each gain is rank one: the closed-loop poles are the roots of
a secular equation (Kalman's return-difference identity), which LAPACK
``dlasd4`` solves to high relative accuracy, and the gain follows from the
pole-placement residues. The poles' Hurwitz margin, the CARE residual and
then the loop F that is returned are certified as on the Hamiltonian path,
at the same tolerances, each by O(n^2) products: a Bauer-Fike bound accepts
F cheaply, and where it cannot, F's own Schur form decides. A side that
cannot be solved this way (zero gain, |eigenvalues| not separated, a
decoupled unstable mode, a failed certificate, a formed loop that is not
Hurwitz) sends the whole pair to the Hamiltonian path, in the coordinates
of A, and ``GainPair.fallback`` says why. Every other plant takes the
Hamiltonian path only. Either way ``GainPair`` and ``AdjointPair`` hold
their matrices in one basis, and form K, Sigma, M and N in A's on first
read.

Either path keeps its closed loop F as a ``ClosedLoop`` for every further
solve with F or F^T: the adjoint solves and the tangent-linear Hessian
(``equilibria.hessian_matrix``) factor nothing again. The real Schur form is
the only factorization of each Hamiltonian and of each loop the Hamiltonian
path keeps; its diagonal holds the real part of every eigenvalue (both
entries of a 2x2 block), which is all the Hurwitz certificates read. A
modal loop keeps F ~ V diag(p) V^-1, on which a Lyapunov solve is a
Hadamard product, and the rank-one form F = diag(lam) - u w^T, on which its
certificate takes O(n^2); it takes its Schur form only where Bauer-Fike
cannot certify it or a solve fails its certificate. So a ``cost_report`` on
a non-symmetric plant takes four Schur forms (two Hamiltonians, two closed
loops) below n = 12, two from there on (the closed loops; a side doubling
hands over adds its Hamiltonian's), and n^3 products throughout, and one on
a symmetric plant away from the PBH boundary no factorization at all: its
PBH margins are secular roots in its eigenbasis too, and the n^3 products
left are the modal transforms of its four solves. All that is read of A
alone is the plant's, taken once; nothing is kept between calls.
"""

from __future__ import annotations

import math
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
from .plant import Modal, PBHSetup, Placement, Plant, pbh_setup, separated

_dlasd4 = la.get_lapack_funcs("lasd4", dtype=np.float64)

#: Residual tolerances and margins (double precision, n <= 50).
CARE_RTOL = 1e-10
LYAP_RTOL = 1e-11
HURWITZ_MARGIN = 1e-12

#: A mode with |beta_i| <= 8u (u the float eps) is decoupled exactly.
_DEFLATE_TOL = 8.0 * np.finfo(float).eps

#: From this order on a CARE is solved by doubling first: the measured
#: crossover with the ordered Schur form of the 2n x 2n Hamiltonian.
DOUBLING_MIN_N = 12
#: Doubling steps before the Schur path takes over. The error falls like
#: r^(2^k), r = 1 - 2 m / gamma for a loop margin m, so 50 steps reach u for
#: every margin the Hurwitz certificate accepts while gamma <= 60.
_DOUBLING_STEPS = 50


@dataclass(frozen=True)
class ClosedLoop:
    """A closed loop F, kept for every Lyapunov equation on F or F^T.

    ``modes = (V, V^-1, p)``, which only a symmetric plant's modal Riccati
    solve sets, keeps F ~ V diag(p) V^-1 with real simple poles p: a solve is
    then a Hadamard product with -1/(p_k + p_l) between two V-transforms.
    Without ``modes``, or when a modal solve fails its certificate (the
    transforms are as ill-conditioned as V), it is one ``trsyl`` call on the
    real Schur form F = u r u^T, taken on first need and kept. ``margin`` and
    ``_schur`` are the loop's only Hurwitz decisions; ``closed_loop`` builds
    a loop with its Schur form taken, and the modal solve one that Bauer-Fike
    or its Schur form certifies, so F is certified Hurwitz either way.
    ``update = (S, u, w)``, which every loop of a symmetric plant sets,
    says F = diag(lam) - u w^T with S_ij = lam_i + lam_j (the plant's
    eigenbasis, where A is diagonal and the gain rank one), on which a
    Lyapunov certificate takes O(n^2).
    """

    F: np.ndarray
    modes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    update: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def margin(self) -> float:
        """Hurwitz margin: -max Re(eig F) read off the Schur diagonal once the
        Schur form is taken, else (with ``modes``) -max p."""
        if self.modes is None or "_schur" in vars(self):
            return -float(np.max(np.diag(self._schur[0])))
        return -float(np.max(self.modes[2]))

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Schur form (r, u) of F; raises ``NotHurwitz`` unless every
        eigenvalue of F has real part below -1e-12 (a NaN fails too)."""
        r, u = la.schur(self.F, output="real")
        margin = -float(np.max(np.diag(r)))
        if not margin > HURWITZ_MARGIN:
            raise NotHurwitz(f"matrix is not Hurwitz: max Re(eig) = {-margin:.3e}")
        return r, u

    def solve(self, Q, transpose: bool = False) -> tuple[np.ndarray, float]:
        """Solve F P + P F^T + Q = 0 (F^T P + P F + Q = 0 with ``transpose``).

        With ``modes``, F^T P + P F + Q = 0 is first solved by
        P = V^-T [-(V^T Q V) / (p_k + p_l)] V^-1 and F P + P F^T + Q = 0 by
        P = V [-(V^-1 Q V^-T) / (p_k + p_l)] V^T. Returns P and its residual,
        certified against 1e-11 * (1 + |P|_F); raises ``NonConvergence`` when
        the Schur-form solve fails that certificate too.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if self.modes is not None:
            P = _modal_lyapunov(*self.modes, Q, transpose)
            try:
                return _certified(self.F, Q, P, transpose, self.update)
            except NonConvergence:
                pass
        P = _bartels_stewart(*self._schur, -Q, transpose)
        return _certified(self.F, Q, P, transpose, self.update)


def _modal_lyapunov(V, Vinv, p, Q, transpose: bool) -> np.ndarray:
    """The uncertified modal solve of ``ClosedLoop.solve``."""
    inner, outer = (V.T, Vinv.T) if transpose else (Vinv, V)
    Y = (inner @ Q @ inner.T) / -(p[:, None] + p)
    return outer @ Y @ outer.T


def _certified(F, Q, P, transpose: bool, update=None) -> tuple[np.ndarray, float]:
    """Symmetrize a Lyapunov solution and certify its residual against
    1e-11 * (1 + |P|_F); a non-finite residual or tolerance fails too. Given
    a loop's ``update`` (``ClosedLoop.update``), the residual is taken from
    F's rank-one form instead of F."""
    P = 0.5 * (P + P.T)
    if update is None:
        res = lyapunov_residual(F.T if transpose else F, Q, P)
    else:
        S, u, w = update
        res = update_residual(S, *((w, u) if transpose else (u, w)), Q, P)
    return P, _certify("Lyapunov", res, LYAP_RTOL * (1.0 + math.sqrt(np.vdot(P, P))))


def _certified_care(res: float, P, error=NonConvergence) -> float:
    """The CARE certificate of every path: the residual of a symmetric P
    against 1e-10 * (1 + |P|_F^2). A non-finite residual or tolerance fails
    too, raising ``error`` (``_Refused`` where the side is handed over)."""
    return _certify("CARE", res, CARE_RTOL * (1.0 + float(np.vdot(P, P))), error)


def _certify(kind: str, res: float, tol: float, error=NonConvergence) -> float:
    if not res <= tol < np.inf:
        raise error(f"{kind} residual {res:.3e} exceeds tolerance {tol:.3e}")
    return res


class _Refused(Exception):
    """Why a modal or doubling CARE solve hands its side over."""


def _to_plant(basis: np.ndarray | None, X: np.ndarray) -> np.ndarray:
    """A symmetric X held in ``basis`` coordinates, in the plant's:
    basis X basis^T, symmetrized; X itself when ``basis`` is None."""
    if basis is None:
        return X
    Y = basis @ X @ basis.T
    return 0.5 * (Y + Y.T)


@dataclass(frozen=True)
class GainPair:
    """Stabilizing ARE solutions: regulator gain K and filter covariance Sigma,
    with their closed loops A - (eps B) K and A^T - (delta C) Sigma.

    Everything is held in the coordinates of ``basis``: on a symmetric plant
    its eigenbasis (``Plant.modal.basis``, Theta), so ``K_tilde`` is
    Theta^T K Theta and the loops Theta^T F Theta; otherwise ``basis`` is
    None and they are K and F themselves. ``K`` and ``Sigma`` are formed on
    first read. A symmetric plant's pair is held in its eigenbasis only when
    both sides' modal solves succeed, and then both loops keep their
    ``modes``; otherwise both sides are solved on the Hamiltonian path, with
    ``basis`` None, and ``fallback`` says which sides failed and why
    ("regulator: ..." and/or "filter: ..."). It is None when nothing fell
    back, and always for a plant without ``modal``, which has the
    Hamiltonian path only. ``pbh`` holds the PBH reports passed.
    """

    K_tilde: np.ndarray
    Sigma_tilde: np.ndarray
    residual_K: float
    residual_Sigma: float
    loop_K: ClosedLoop
    loop_Sigma: ClosedLoop
    fallback: str | None = None
    pbh: tuple[PBHReport, ...] = ()
    basis: np.ndarray | None = None

    @cached_property
    def K(self) -> np.ndarray:
        return _to_plant(self.basis, self.K_tilde)

    @cached_property
    def Sigma(self) -> np.ndarray:
        return _to_plant(self.basis, self.Sigma_tilde)

    def coords(self, v: np.ndarray) -> np.ndarray:
        """A vector (or the columns of a matrix) in the pair's coordinates."""
        return v if self.basis is None else self.basis.T @ v

    def to_plant(self, x: np.ndarray) -> np.ndarray:
        """A vector in the pair's coordinates, in the plant's."""
        return x if self.basis is None else self.basis @ x


@dataclass(frozen=True)
class AdjointPair:
    """Closed-loop Lyapunov solutions M (state covariance side) and N (dual),
    with their certified residuals, held like ``GainPair`` in the
    coordinates of ``basis``; ``M`` and ``N`` are formed on first read."""

    M_tilde: np.ndarray
    N_tilde: np.ndarray
    residual_M: float
    residual_N: float
    basis: np.ndarray | None = None

    @cached_property
    def M(self) -> np.ndarray:
        return _to_plant(self.basis, self.M_tilde)

    @cached_property
    def N(self) -> np.ndarray:
        return _to_plant(self.basis, self.N_tilde)


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


def update_residual(S, u, w, Q, P) -> float:
    """Frobenius norm of F P + P F^T + Q for F = diag(lam) - u w^T and a
    symmetric P, in O(n^2) from S_ij = lam_i + lam_j:
    S * P - u (P w)^T - (P w) u^T + Q."""
    with np.errstate(invalid="ignore", over="ignore"):
        up = u[:, None] * (P @ w)
        R = S * P
        R -= up
        R -= up.T
        R += Q
        return math.sqrt(np.vdot(R, R))


def closed_loop(F) -> ClosedLoop:
    """F kept with its real Schur form for Lyapunov solves; F must be Hurwitz.

    Raises
    ------
    NotHurwitz
        If any eigenvalue of F has real part >= -1e-12.
    """
    loop = ClosedLoop(np.atleast_2d(np.asarray(F, dtype=float)))
    loop._schur  # takes the Schur form, which certifies F Hurwitz
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
    step for step, bar its check for an illegal ``trsyl`` argument and its
    warning when ``trsyl`` perturbs a near-singular equation (info = 1): the
    Lyapunov certificate that follows every solve judges the result."""
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")
    if r.shape != q.shape:
        raise ValueError("Matrix a and q should have the same shape.")
    f = u.conj().T.dot(q.dot(u))
    trsyl = la.get_lapack_funcs("trsyl", (r, f))
    if transpose:
        y, scale, _ = trsyl(r, r, f, trana="T")
    else:
        y, scale, _ = trsyl(r, r, f, tranb="T")
    y *= scale
    return u.dot(y).dot(u.conj().T)


def solve_care(A, W, Q) -> np.ndarray:
    """Solve A^T P + P A - P W P + Q = 0 for the stabilizing PSD solution.

    When W = 0 the equation degenerates to a Lyapunov equation and is
    dispatched to ``solve_lyapunov`` directly. Otherwise, from order
    n = 12 (``DOUBLING_MIN_N``) on, the structure-preserving doubling
    algorithm solves it with n x n products and solves alone
    (``_doubling_care``); below that order, and wherever doubling stalls,
    meets a singular solve or a non-finite value, or its result fails a
    certificate, the ordered real Schur form of the Hamiltonian

        H = [[ A, -W ],
             [ -Q, -A^T ]]

    does, selecting its n stable eigenvalues. Either solution is certified,
    not refined: the closed loop A - W P must be Hurwitz, and then the
    residual must satisfy

        |A^T P + P A - P W P + Q|_F <= 1e-10 * (1 + |P|_F^2).

    Only the Schur path raises: a doubling solve that fails is handed over.

    Raises
    ------
    NoStabilizingSolution
        If W = 0 and A is not Hurwitz, or, on the Schur path, the ordered
        Schur form fails, the stable subspace does not have dimension n (as
        when H has eigenvalues on the imaginary axis), the subspace basis is
        too ill-conditioned to invert, or the closed loop A - W P is not
        Hurwitz (margin at most 1e-12).
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

    if not W.any():
        # Degenerate CARE: A^T P + P A + Q = 0, solvable iff A is Hurwitz.
        # The closed loop is A itself; its Schur form solves the transposed
        # equation.
        try:
            loop = closed_loop(A)
        except NotHurwitz as exc:
            raise NoStabilizingSolution(
                "W = 0 and A is not Hurwitz: no stabilizing solution exists"
            ) from exc
        return (*loop.solve(Q, transpose=True), loop)
    if A.shape[0] >= DOUBLING_MIN_N:
        try:
            return _doubling_care(A, W, Q)
        except _Refused:
            pass
    return _schur_care(A, W, Q)


def _doubling_care(A, W, Q) -> tuple[np.ndarray, float, ClosedLoop]:
    """``_solve_care`` for W != 0 by the structure-preserving doubling
    algorithm (Chu, Fan and Lin, Linear Algebra Appl. 396, 2005).

    With gamma = |A|_1 + 1, above the spectral radius of A, so that
    A_g = A - gamma I is nonsingular, and W_g = A_g^T + Q A_g^-1 W, it starts
    from E_0 = I + 2 gamma W_g^-T, G_0 = 2 gamma A_g^-1 W W_g^-1 and
    H_0 = 2 gamma W_g^-1 Q A_g^-1, and doubles: with
    [Z_E, Z_G] = (I + G_k H_k)^-1 [E_k, G_k],

        E_k+1 = E_k Z_E,  G_k+1 = G_k + E_k Z_G E_k^T,  H_k+1 = H_k + E_k^T H_k Z_E.

    H_k converges quadratically to the stabilizing P; it stops once
    |H_k+1 - H_k|_F <= u |H_k+1|_F. P is symmetrized and certified as on the
    Schur path: the loop A - W P (Schur form kept) must be Hurwitz, and then
    the CARE residual within tolerance.

    Raises
    ------
    _Refused
        After ``_DOUBLING_STEPS`` steps, on a singular solve, a non-finite
        iterate, a loop that is not Hurwitz or a failed CARE certificate.
    """
    n = A.shape[0]
    eye = np.eye(n)
    gamma = float(np.abs(A).sum(axis=0).max()) + 1.0
    u = np.finfo(float).eps
    try:
        with np.errstate(all="ignore"):
            Ag_inv = np.linalg.inv(A - gamma * eye)
            Wg_inv = np.linalg.inv(A.T - gamma * eye + Q @ Ag_inv @ W)
            E = eye + 2.0 * gamma * Wg_inv.T
            G = (2.0 * gamma) * (Ag_inv @ W @ Wg_inv)
            H = (2.0 * gamma) * (Wg_inv @ Q @ Ag_inv)
            for _ in range(_DOUBLING_STEPS):
                Z = np.linalg.solve(eye + G @ H, np.hstack((E, G)))
                step = E.T @ (H @ Z[:, :n])
                H = H + step
                size = math.sqrt(np.vdot(H, H))
                if not math.isfinite(size):
                    raise _Refused("non-finite iterate")
                if math.sqrt(np.vdot(step, step)) <= u * size:
                    break
                G = G + E @ Z[:, n:] @ E.T
                E = E @ Z[:, :n]
            else:
                raise _Refused(f"no convergence in {_DOUBLING_STEPS} steps")
        P = 0.5 * (H + H.T)
        loop = closed_loop(A - W @ P)
        return P, _certified_care(care_residual(A, W, Q, P), P, _Refused), loop
    except (np.linalg.LinAlgError, NotHurwitz) as exc:
        raise _Refused(str(exc)) from exc


def _schur_care(A, W, Q) -> tuple[np.ndarray, float, ClosedLoop]:
    """``_solve_care`` for W != 0 on the ordered real Schur form of the
    Hamiltonian; raises as ``solve_care`` says."""
    n = A.shape[0]
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
    return P, _certified_care(care_residual(A, W, Q, P), P), loop


def pbh_check(A, v, mode: str, *, setup: PBHSetup | None = None) -> PBHReport:
    """PBH rank test of (A, v) for stabilizability or detectability.

    For every eigenvalue lambda of A with Re(lambda) >= 0 (numerically,
    >= -1e-9 so that marginal modes such as a Laplacian zero eigenvalue are
    included), checks rank [A - lambda*I, v] = n; detectability runs the same
    test on A^T. The reported margin per eigenvalue is the smallest singular
    value of the augmented matrix. ``setup`` is what the test reads of A
    alone (``plant.pbh_setup``; ``Plant.pbh`` for a plant, which both modes
    share, as spec(A^T) = spec(A)); without it the test takes
    ``pbh_setup`` of A (of A^T for detectability) itself. When the setup
    holds the eigenvectors Theta of a symmetric A = Theta diag(lam) Theta^T,
    the margin is the smallest root (``dlasd4``) of a secular equation: its
    square is the least eigenvalue of diag(lam - lambda)^2 + beta beta^T,
    beta = Theta^T v. An SVD gives it when some |beta_j| <= 8u or the
    |lam_j - lambda| are not distinct.
    """
    if mode not in ("stabilizability", "detectability"):
        raise ValueError(f"unknown PBH mode {mode!r}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    if v @ v == 0.0:
        raise ValueError("PBH test vector must be nonzero")
    M = A if mode == "stabilizability" else A.T
    if setup is None:
        setup = pbh_setup(M)
    threshold, modes, eigenvectors = setup
    z = None
    if eigenvectors is not None:
        beta = eigenvectors.T @ v
        if np.abs(beta).min() > _DEFLATE_TOL:  # dlasd4 needs every z_j nonzero
            norm = math.sqrt(beta @ beta)
            z, rho = beta / norm, norm**2

    tested = []
    svd_margins = {}
    for lam, gap, order, distinct in modes:
        info = 1  # the SVD, unless dlasd4 gives the root
        if z is not None and distinct:
            _, margin, _, info = _dlasd4(0, gap, z[order], rho)
        if info != 0:
            # conj(lam)'s pencil is the entrywise conjugate of lam's: same SVD.
            margin = svd_margins.get(np.conj(lam))
            if margin is None:
                pencil = np.hstack([M - lam * np.eye(M.shape[0]), v[:, None]])
                margin = svd_margins[lam] = la.svdvals(pencil)[-1]
        tested.append((complex(lam), float(margin)))
    ok = all(m > threshold for _, m in tested)  # a NaN margin fails too
    min_margin = min((m for _, m in tested), default=float("inf"))
    return PBHReport(mode=mode, ok=ok, tested=tuple(tested), min_margin=min_margin)


def _require_pbh(plant: Plant, placement: Placement) -> tuple[PBHReport, ...]:
    reports = []
    for v, mode, pair in (
        (placement.b_unit, "stabilizability", "(A, b)"),
        (placement.c_unit, "detectability", "(A, c)"),
    ):
        report = pbh_check(plant.A, v, mode, setup=plant.pbh)
        if not report.ok:
            lam = min(report.tested, key=lambda t: t[1])[0]
            raise PBHViolation(
                f"{pair} fails the PBH {mode} test at eigenvalue {lam}",
                eigenvalue=lam,
            )
        reports.append(report)
    return tuple(reports)


def _modal_care(modal: Modal, gain: float, beta) -> tuple[np.ndarray, float, ClosedLoop]:
    """``_solve_care(A, gain v v^T, I)`` for symmetric A in the coordinates of
    its eigenbasis ``modal.basis`` (Theta), where A is diag(lam); beta is
    Theta^T v. Returns (P~, residual, loop) with P~ = Theta^T P Theta and the
    loop F~ = diag(lam) - gain beta (P~ beta)^T = Theta^T (A - gain v v^T P) Theta.

    With k~ = gain P~ beta the loop is diag(lam) - beta k~^T. Its poles
    p_k = -sigma_k follow from Kalman's return-difference identity: sigma_k^2
    are the eigenvalues of diag(lam)^2 + gain beta beta^T, a secular equation
    that LAPACK ``dlasd4`` solves together with every difference
    |lam_i| - sigma_k to high relative accuracy (Gu and Eisenstat, SIMAX
    16(1), 1995), so lam_i - p_k is exact to a few ulps. Pole placement gives
    the residues k~_i beta_i = prod_k (lam_i - p_k) / prod_{j != i} (lam_i - lam_j),
    the right eigenvectors V_ik = beta_i / (lam_i - p_k) (columns scaled to
    unit norm) and the left ones k~_i / (lam_i - p_k), whose rescaled
    transpose is V^-1. A mode with |beta_i| <= 8u is decoupled exactly:
    k~_i = 0, its pole is lam_i and its column of V is e_i. P~ is the modal
    solve of F~^T P~ + P~ F~ + k~ k~^T / gain + I = 0.

    Every certificate is the Hamiltonian path's, taken in O(n^2) from lam
    and the rank-one term; the Frobenius norm does not see Theta. The poles
    must lie left of -1e-12, the CARE residual
    diag(lam) P~ + P~ diag(lam) - gain (P~ beta)(P~ beta)^T + I within
    1e-10 * (1 + |P~|_F^2) (a non-finite P~ fails it), and the formed loop F~
    is certified Hurwitz: by Bauer-Fike (Numer. Math. 2, 1960) applied to
    V^-1 F~ V = diag(p) + V^-1 R, R = F~ V - V diag(p), when -max p exceeds
    1e-12 by more than |V^-1|_F |R|_F, else on its Schur form, which the
    loop keeps. Every later solve on the loop carries the Lyapunov
    certificate.

    Raises
    ------
    _Refused
        At zero gain, for a decoupled mode with lam_i >= 0, coupled |lam_i|
        not separated by 1e-8 * max |lam| (repeated or +-lam eigenvalues), a
        nonzero ``dlasd4`` info, poles not left of -1e-12, a failed CARE
        certificate or a formed loop that is not Hurwitz.
    """
    if gain == 0.0:
        raise _Refused("W = 0")
    lam, n = modal.lam, modal.lam.size
    if np.abs(beta).min() > _DEFLATE_TOL:
        idx, block = slice(None), (slice(None), slice(None))
        d, gaps, split = modal.d, modal.gaps, modal.separated
    else:
        coupled = np.abs(beta) > _DEFLATE_TOL
        if np.any(lam[~coupled] >= 0.0):
            raise _Refused("a decoupled mode has lambda >= 0")
        idx = np.flatnonzero(coupled)
        block = np.ix_(idx, idx)
        d, gaps = modal.d[idx], modal.gaps[block]
        split = separated(d)
    if not split:
        raise _Refused("|lambda| not separated by 1e-8 * max |lambda|")
    lam_a, beta_a = lam[idx], beta[idx]
    norm = math.sqrt(beta_a @ beta_a)
    z, rho = beta_a / norm, gain * norm**2
    m = beta_a.size
    sigma = np.empty(m)
    below = np.empty((m, m))  # below[k, i] = d_i - sigma_k
    for k in range(m):
        below[k], sigma[k], _, info = _dlasd4(k, d, z, rho)
        if info != 0:
            raise _Refused(f"dlasd4 info = {info}")
    if m == 1:  # dlasd4 returns DELTA = 1, an eigenvector entry, for one mode
        below[0, 0] = -rho / (d[0] + sigma[0])
    if m == n:
        p = -sigma
    else:  # a decoupled mode keeps its pole
        p = lam.copy()
        p[idx] = -sigma
    top = float(p.max())
    if not -top > HURWITZ_MARGIN:
        raise _Refused(f"closed loop not Hurwitz: max pole {top:.3e}")
    diff = -below.T  # lam_i - p_k, read off d_i + sigma_k where lam_i > 0
    up = lam_a > 0.0
    if up.any():
        diff[up] = d[up, None] + sigma
    eye = modal.eye
    with np.errstate(all="ignore"):
        k_a = (diff / gaps).prod(axis=1) / beta_a
        V_a = beta_a[:, None] / diff
        V_a /= np.sqrt(np.einsum("ij,ij->j", V_a, V_a))
        U = k_a[:, None] / diff
        Vinv_a = (U / np.einsum("ij,ij->j", U, V_a)).T
        V, Vinv, k = V_a, Vinv_a, k_a
        if m < n:
            V, Vinv, k = eye.copy(), eye.copy(), np.zeros(n)
            V[block], Vinv[block], k[idx] = V_a, Vinv_a, k_a
        P = _modal_lyapunov(V, Vinv, p, k[:, None] * (k / gain) + eye, transpose=True)
        P = 0.5 * (P + P.T)
    res = update_residual(modal.sums, 0.5 * gain * (P @ beta), beta, eye, P)
    _certified_care(res, P, _Refused)
    # P~ is finite from here on.
    u, w = gain * beta, P @ beta
    F = u[:, None] * -w
    F.flat[:: n + 1] += lam
    loop = ClosedLoop(F, (V, Vinv, p), (modal.sums, u, w))
    R = u[:, None] * -(w @ V)
    R[block] += diff * V_a
    spread = math.sqrt(np.vdot(Vinv, Vinv) * np.vdot(R, R))
    if not -top - spread > HURWITZ_MARGIN:
        try:
            loop._schur  # the formed F decides, as on the Hamiltonian path
        except NotHurwitz as exc:
            raise _Refused(f"formed loop: {exc}") from exc
    return P, res, loop


def gain_pair(plant: Plant, placement: Placement) -> GainPair:
    """Solve the two LQG Riccati equations for a placement.

    K solves A^T K + K A - eps K B K + I = 0 and Sigma solves the dual
    A Sigma + Sigma A^T - delta Sigma C Sigma + I = 0, with B, C the
    normalized projectors of the placement. The closed loops are kept for
    further solves: A - (eps B) K, and A^T - (delta C) Sigma, the transpose
    of the filter loop A - delta Sigma C. On a symmetric plant both sides
    are solved in the plant's eigenbasis (``_modal_care``), and the pair is
    held there. If either side's modal solve fails, both sides take the
    Hamiltonian path in A's coordinates (``basis`` None), and
    ``GainPair.fallback`` says which sides failed and why. A plant without
    ``modal`` takes the Hamiltonian path.

    Raises
    ------
    PBHViolation
        If (A, b) is not stabilizable or (A, c) is not detectable.
    NoStabilizingSolution, NonConvergence
        Propagated from the Hamiltonian CARE solver.
    """
    pbh = _require_pbh(plant, placement)
    sides = (
        ("regulator", plant.A, plant.epsilon, placement.b_unit),
        ("filter", plant.A.T, plant.delta, placement.c_unit),
    )
    modal, fallbacks = plant.modal, []
    if modal is not None:
        solved = []
        for side, _, gain, v in sides:
            try:
                solved.append(_modal_care(modal, gain, modal.basis.T @ v))
            except _Refused as exc:
                fallbacks.append(f"{side}: {exc}")
        if not fallbacks:
            (K, res_K, loop_K), (Sigma, res_S, loop_S) = solved
            return GainPair(K, Sigma, res_K, res_S, loop_K, loop_S, None, pbh, modal.basis)
    (K, res_K, loop_K), (Sigma, res_S, loop_S) = (
        _solve_care(A, gain * np.outer(v, v), np.eye(plant.n)) for _, A, gain, v in sides
    )
    return GainPair(K, Sigma, res_K, res_S, loop_K, loop_S, "; ".join(fallbacks) or None, pbh)


def adjoint_pair(plant: Plant, placement: Placement, gains: GainPair) -> AdjointPair:
    """Solve the closed-loop Lyapunov equations for the adjoint pair (M, N).

    M solves (A - eps B K) M + M (A - eps B K)^T + Sigma C Sigma = 0 on
    ``gains.loop_K`` and N solves
    (A - delta Sigma C)^T N + N (A - delta Sigma C) + K B K = 0 on
    ``gains.loop_Sigma``, so neither loop is factored again; both are solved
    and held in the coordinates of the gain pair.
    """
    S_forcing, K_forcing = adjoint_forcings(gains, placement)
    M, res_M = gains.loop_K.solve(S_forcing)
    N, res_N = gains.loop_Sigma.solve(K_forcing)
    return AdjointPair(M, N, res_M, res_N, gains.basis)


def adjoint_forcings(gains: GainPair, placement: Placement):
    """(Sigma C Sigma, K B K) in the pair's coordinates, as outer products of
    Sigma c and K b: symmetric to the bit, without the cancellation of two
    products with a large Sigma."""
    s = gains.Sigma_tilde @ gains.coords(placement.c_unit)
    k = gains.K_tilde @ gains.coords(placement.b_unit)
    return s[:, None] * s, k[:, None] * k
