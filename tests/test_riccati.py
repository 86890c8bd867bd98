import json
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    integral_lyapunov_solve,
    kron_lyapunov_solve,
    random_placement_for,
    random_symmetric_hurwitz,
    random_unit,
    ring_laplacian_plant,
    spaced_in_random_basis,
)

from lqg_codesign import (
    CodesignError,
    NoStabilizingSolution,
    NonConvergence,
    NotHurwitz,
    PBHViolation,
    Placement,
    Plant,
    adjoint_pair,
    cost_report,
    gain_pair,
    pbh_check,
    solve_care,
    solve_lyapunov,
)
from lqg_codesign import riccati
from lqg_codesign.cli import main
from lqg_codesign.equilibria import hessian_matrix
from lqg_codesign.riccati import care_residual, closed_loop, lyapunov_residual


class TestSolveCare:
    def test_scalar_lyapunov_limit(self):
        # -2P + 1 = 0
        P = solve_care(np.array([[-1.0]]), np.array([[0.0]]), np.array([[1.0]]))
        assert abs(P[0, 0] - 0.5) < 1e-12

    def test_scalar_quadratic_root(self):
        # eps*P^2 + 2P - 1 = 0 with eps = 3: P = (-1 + sqrt(1 + eps)) / eps = 1/3
        P = solve_care(np.array([[-1.0]]), np.array([[3.0]]), np.array([[1.0]]))
        assert abs(P[0, 0] - 1.0 / 3.0) < 1e-12

    def test_zero_forcing(self):
        P = solve_care(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.allclose(P, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        v = rng.standard_normal(n)
        W = np.outer(v, v) * rng.uniform(0.1, 2.0)
        Q = np.eye(n)
        P = solve_care(A, W, Q)
        assert la.norm(P - P.T) < 1e-12
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-10
        assert care_residual(A, W, Q, P) <= 1e-10 * (1 + la.norm(P) ** 2)
        F = A - W @ P
        assert closed_loop(F).margin == pytest.approx(
            -np.max(np.linalg.eigvals(F).real), rel=1e-8
        )
        # independent oracle: scipy's CARE solver on the equivalent (B, R) form
        P_ref = la.solve_continuous_are(
            A, v[:, None], Q, np.array([[1.0 / _outer_weight(W, v)]])
        )
        assert la.norm(P - P_ref) <= 1e-8 * (1 + la.norm(P_ref))

    def test_no_stabilizing_solution_when_w_zero_and_unstable(self):
        with pytest.raises(NoStabilizingSolution):
            solve_care(np.array([[0.5]]), np.array([[0.0]]), np.array([[1.0]]))

    def test_uncontrollable_unstable_mode_rejected(self):
        A = np.diag([1.0, -1.0])
        W = np.diag([0.0, 1.0])  # actuation misses the unstable mode
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, W, np.eye(2))

    def test_uncontrollable_zero_mode_rejected(self):
        A = np.diag([0.0, -1.0])
        W = np.diag([0.0, 1.0])  # the zero mode sits on the imaginary axis
        with pytest.raises(NoStabilizingSolution):
            solve_care(A, W, np.eye(2))

    def test_non_stabilizing_result_is_refused(self):
        # An unactuated oscillator: the residual test alone accepts a P with
        # entries near 1e8 whose closed loop keeps the eigenvalues +-i.
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NoStabilizingSolution, match="not Hurwitz"):
            solve_care(A, np.diag([0.0, 0.0, 1.0]), np.eye(3))

    def test_non_stabilizable_probe_never_returns(self):
        # An unactuated skew block (eigenvalues on the imaginary axis) beside
        # an actuated stable block: no stabilizing solution exists.
        rng = np.random.default_rng(0)
        for i in range(300):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            G = rng.standard_normal((m, m))
            A = np.zeros((n, n))
            A[:m, :m] = G - G.T
            A[m:, m:] = -rng.uniform(0.5, 2.0) * np.eye(n - m)
            W = np.diag([0.0] * m + [1.0] * (n - m))
            Q = np.zeros((n, n)) if i % 2 == 0 else np.eye(n)
            with pytest.raises(NoStabilizingSolution):
                solve_care(A, W, Q)

    def test_failed_schur_reordering_is_no_stabilizing_solution(self, monkeypatch):
        def failing_schur(*args, **kwargs):
            raise la.LinAlgError("Leading eigenvalues do not satisfy sort condition")

        monkeypatch.setattr(la, "schur", failing_schur)
        with pytest.raises(NoStabilizingSolution, match="sort condition"):
            solve_care(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))


def _outer_weight(W: np.ndarray, v: np.ndarray) -> float:
    """Weight w such that W = w * v v^T (for building the scipy reference)."""
    i = int(np.argmax(np.abs(v)))
    return float(W[i, i] / (v[i] * v[i]))


class TestSolveLyapunov:
    def test_scalar_examples(self):
        assert abs(solve_lyapunov([[-2.0]], [[1.0 / 9.0]])[0, 0] - 1.0 / 36.0) < 1e-14
        assert np.allclose(solve_lyapunov(-np.eye(2), np.eye(2)), 0.5 * np.eye(2))
        assert abs(solve_lyapunov([[-1.0]], [[0.25]])[0, 0] - 0.125) < 1e-14

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.diag([-1.0, 1e-13]), np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kronecker_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        F = rng.standard_normal((n, n)) - 2.0 * n * np.eye(n)
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        P = solve_lyapunov(F, Q)
        P_ref = kron_lyapunov_solve(F, Q)
        assert la.norm(P - P_ref) <= 1e-10 * (1 + la.norm(P_ref))
        assert lyapunov_residual(F, Q, P) <= 1e-11 * (1 + la.norm(P))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_integral_representation(self, seed):
        rng = np.random.default_rng(200 + seed)
        F = rng.standard_normal((3, 3)) - 4.0 * np.eye(3)
        G = rng.standard_normal((3, 3))
        Q = G @ G.T
        P = solve_lyapunov(F, Q)
        P_int = integral_lyapunov_solve(F, Q)
        assert la.norm(P - P_int, "fro") <= 1e-6 * la.norm(P_int, "fro")


    @pytest.mark.parametrize("seed", range(3))
    def test_closed_loop_solves_both_orientations(self, seed):
        rng = np.random.default_rng(150 + seed)
        F = _hurwitz(rng, 5)
        G = rng.standard_normal((5, 5))
        Q = G @ G.T
        loop = riccati.closed_loop(F)
        assert abs(loop.margin - 0.5) <= 1e-10
        for transpose, coeff in ((False, F), (True, F.T)):
            P, res = loop.solve(Q, transpose=transpose)
            P_ref = kron_lyapunov_solve(coeff, Q)
            assert la.norm(P - P_ref) <= 1e-10 * (1 + la.norm(P_ref))
            assert res == lyapunov_residual(coeff, Q, P) <= 1e-11 * (1 + la.norm(P))


def _hurwitz(rng: np.random.Generator, n: int) -> np.ndarray:
    X = rng.standard_normal((n, n))
    return X - (np.max(np.linalg.eigvals(X).real) + 0.5) * np.eye(n)


def _shifted_with_pair(rng: np.random.Generator, n: int, top: float) -> np.ndarray:
    """Random orthogonal similarity of a real quasi-triangular matrix whose
    rightmost eigenvalues are the pair top +- 1.5i (just top when n = 1)."""
    T = np.triu(rng.standard_normal((n, n))) / n
    np.fill_diagonal(T, top - rng.uniform(0.1, 2.0, n))
    T[0, 0] = top
    for k in range(0, n - 1, 2):  # 2x2 blocks with eigenvalues T[k, k] +- 1.5i
        T[k + 1, k + 1] = T[k, k]
        T[k, k + 1], T[k + 1, k] = 1.5, -1.5
    Qo, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Qo @ T @ Qo.T


class TestOneFactorizationPerMatrix:
    def test_no_matrix_is_factored_twice(self, monkeypatch):
        # A cold cost_report takes four Schur forms: two Hamiltonians and two
        # closed loops, which serve both the CARE certificates and the
        # adjoint solves. The spectrum both PBH tests read was computed when
        # the plant was built. At eps = delta = 0.5 the certificate and the
        # adjoint coefficient used to be bitwise equal.
        rng = np.random.default_rng(41)
        A = rng.standard_normal((4, 4)) + 0.5 * np.eye(4)
        assert np.max(np.linalg.eigvals(A).real) > 0.0
        assert not np.allclose(A, A.T)
        placement = random_placement_for(rng, 4)
        for eps, delta in ((0.5, 0.5), (0.7, 1.3)):
            plant = Plant(A, eps, delta)
            seen = {"eigvals": [], "schur": []}

            def recording(name, fn):
                def wrapped(M, *args, **kwargs):
                    M_arr = np.asarray(M, dtype=float)
                    seen[name].append((M_arr.shape, M_arr.tobytes()))
                    return fn(M, *args, **kwargs)

                return wrapped

            with monkeypatch.context() as patch:
                eigvals = np.linalg.eigvals
                patch.setattr(np.linalg, "eigvals", recording("eigvals", eigvals))
                patch.setattr(la, "schur", recording("schur", la.schur))
                cost_report(plant, placement)

            shapes = sorted(shape for shape, _ in seen["schur"])
            assert shapes == [(4, 4), (4, 4), (8, 8), (8, 8)], (eps, delta)
            assert len(set(seen["schur"])) == 4, (eps, delta)
            assert seen["eigvals"] == [], (eps, delta)

    def test_symmetric_plant_takes_no_factorization(self, monkeypatch):
        # A symmetric plant is factored once, when it is built: its cost
        # report and exact Hessian take no Schur form and no eigensolver.
        rng = np.random.default_rng(42)
        plant = Plant(spaced_in_random_basis(rng, 4), 0.5, 0.5)
        placement = random_placement_for(rng, 4)
        seen = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                seen.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        with monkeypatch.context() as patch:
            for module, name in ((la, "schur"), (np.linalg, "eigvals"), (np.linalg, "eigh")):
                patch.setattr(module, name, recording(getattr(module, name)))
            report = cost_report(plant, placement)
            hessian_matrix(plant, placement, report=report)
        assert seen == []
        assert report.gains.fallback is None

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
    @pytest.mark.parametrize("offset", [-1e-11, 1e-11])
    def test_is_hurwitz_matches_eigenvalues(self, n, offset):
        # closed_loop accepts F exactly when max Re(eig F) < -HURWITZ_MARGIN,
        # and its margin is -max Re(eig F).
        threshold = -riccati.HURWITZ_MARGIN
        F = _shifted_with_pair(np.random.default_rng(400 + n), n, threshold + offset)
        top = np.max(np.linalg.eigvals(F).real)
        assert (top < threshold) == (offset < 0.0)
        if offset < 0.0:
            # -top is about 1e-11: a roundoff of 1e-16 in either routine is
            # 1e-5 of it.
            assert closed_loop(F).margin == pytest.approx(-top, rel=1e-3)
        else:
            with pytest.raises(NotHurwitz):
                closed_loop(F)


class TestRepeatedSolves:
    @pytest.mark.parametrize("n", [1, 3, 8, 50])
    def test_bitwise_scipy_on_repeat(self, n):
        rng = np.random.default_rng(300 + n)
        F = _hurwitz(rng, n)
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        # The same content in two memory layouts: products on a transposed
        # operand can round differently, and each must match scipy's.
        for Q_in in (Q, np.asfortranarray(Q)):
            P_ref = la.solve_continuous_lyapunov(F, -Q_in)
            P_ref = 0.5 * (P_ref + P_ref.T)
            for _ in range(2):
                assert np.array_equal(solve_lyapunov(F, Q_in), P_ref)

    def test_returned_array_is_the_callers(self):
        rng = np.random.default_rng(5)
        F = _hurwitz(rng, 4)
        Q = np.eye(4)
        first = solve_lyapunov(F, Q)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(solve_lyapunov(F, Q), expected)

    def test_errors_are_not_cached(self):
        F = np.diag([-1.0, 0.5])
        for _ in range(2):
            with pytest.raises(NotHurwitz):
                solve_lyapunov(F, np.eye(2))

    def test_equilibria_bytes_of_two_in_process_runs(self, tmp_path):
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = basis @ np.diag([-0.5, -1.3, -2.2, -3.0]) @ basis.T
        problem = tmp_path / "spaced4.json"
        problem.write_text(json.dumps({"A": A.tolist(), "epsilon": 0.0, "delta": 0.0}))
        reports = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["equilibria", "--problem", str(problem), "--out", str(out)]) == 0
            reports.append((out / "equilibria.json").read_bytes())
        assert reports[0] == reports[1]


class TestGainPair:
    def test_diagonal_paper_values(self):
        # K11 = 1/(sqrt(lam1^2+eps) - lam1) = 1/3, K22 = -1/(2*lam2) = 1/4
        plant = Plant(np.diag([-1.0, -2.0]), 3.0, 3.0)
        e1 = np.array([1.0, 0.0])
        gains = gain_pair(plant, Placement(e1, e1))
        expected = np.diag([1.0 / 3.0, 0.25])
        assert np.allclose(gains.K, expected, atol=1e-11)
        assert np.allclose(gains.Sigma, expected, atol=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_gain_closed_form(self, seed):
        rng = np.random.default_rng(300 + seed)
        A = random_symmetric_hurwitz(rng, 3)
        plant = Plant(A, 0.0, 0.0)
        gains = gain_pair(plant, random_placement_for(rng, 3))
        expected = -0.5 * np.linalg.inv(A)
        assert np.allclose(gains.K, expected, atol=1e-11)
        assert np.allclose(gains.Sigma, expected, atol=1e-11)

    def test_scalar_zero_gain(self):
        plant = Plant(np.array([[-1.0]]), 0.0, 0.0)
        gains = gain_pair(plant, Placement(np.array([1.0]), np.array([1.0])))
        assert abs(gains.K[0, 0] - 0.5) < 1e-13
        assert abs(gains.Sigma[0, 0] - 0.5) < 1e-13

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(17)
        A = random_symmetric_hurwitz(rng, 3)
        plant = Plant(A, 0.7, 0.2)
        placement = random_placement_for(rng, 3)
        flipped = Placement(-placement.b_unit, -placement.c_unit)
        g1 = gain_pair(plant, placement)
        g2 = gain_pair(plant, flipped)
        assert np.allclose(g1.K, g2.K, atol=1e-13)
        assert np.allclose(g1.Sigma, g2.Sigma, atol=1e-13)

    def test_pbh_gate_raises(self):
        plant = Plant(np.diag([1.0, -1.0]), 1.0, 1.0)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        with pytest.raises(PBHViolation):
            gain_pair(plant, Placement(e2, e1))  # b misses the unstable mode

    @pytest.mark.parametrize("r_step", [1e-3])
    def test_gain_monotonicity(self, r_step):
        # dK/dr <= 0: K(r + h) <= K(r) + 1e-8 I in the PSD order
        rng = np.random.default_rng(23)
        for _ in range(5):
            A = random_symmetric_hurwitz(rng, 3)
            placement = random_placement_for(rng, 3)
            r = rng.uniform(0.05, 1.5)
            K_lo = gain_pair(Plant(A, r, 0.3), placement).K
            K_hi = gain_pair(Plant(A, r + r_step, 0.3), placement).K
            assert np.max(np.linalg.eigvalsh(K_hi - K_lo)) <= 1e-8


def _symmetric_plant(rng, n, spread, eps, delta) -> Plant:
    """Exactly symmetric A with eigenvalues uniform on ``spread``, random basis."""
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = basis @ np.diag(rng.uniform(*spread, size=n)) @ basis.T
    return Plant(0.5 * (A + A.T), eps, delta)


def _hamiltonian_values(plant: Plant, placement: Placement) -> dict:
    """Oracle: K, Sigma, M, N, phi and phi_bar by the Hamiltonian path and
    the Schur forms of its closed loops."""
    eye = np.eye(plant.n)
    K, _, loop_K = riccati._solve_care(plant.A, plant.epsilon * placement.B, eye)
    S, _, loop_S = riccati._solve_care(plant.A.T, plant.delta * placement.C, eye)
    M = loop_K.solve(S @ placement.C @ S)[0]
    N = loop_S.solve(K @ placement.B @ K)[0]
    A = plant.A
    phi = np.trace(A.T @ K @ S + S @ K @ A + K + S)
    return {"K": K, "Sigma": S, "M": M, "N": N, "phi": phi,
            "phi_bar": np.trace(A.T @ M @ N + N @ M @ A)}


def _modal_values(plant: Plant, placement: Placement) -> dict:
    report = cost_report(plant, placement)
    assert report.gains.fallback is None
    assert isinstance(report.gains.loop_K, riccati.ModalLoop)
    assert isinstance(report.gains.loop_Sigma, riccati.ModalLoop)
    return {"K": report.gains.K, "Sigma": report.gains.Sigma,
            "M": report.adjoints.M, "N": report.adjoints.N,
            "phi": report.phi, "phi_bar": report.phi_bar}


def _longdouble_care_residual(A, gain: float, v, P) -> float:
    """|A^T P + P A - gain P v v^T P + I|_F / |P|_F in extended precision."""
    A, v, P = (np.asarray(x, dtype=np.longdouble) for x in (A, v, P))
    Pv = P @ v
    R = A.T @ P + P @ A - np.longdouble(gain) * np.outer(Pv, Pv) + np.eye(len(v))
    return float(np.sqrt(np.sum(R**2) / np.sum(P**2)))


def _off_mode(rng: np.random.Generator, vecs: np.ndarray, margin: float) -> np.ndarray:
    """A unit vector orthogonal to the columns of ``vecs``, tilted out of that
    complement by ``margin`` in a random direction."""
    basis = np.linalg.qr(vecs)[0]
    v = rng.standard_normal(vecs.shape[0])
    v -= basis @ (basis.T @ v)
    return v / np.linalg.norm(v) + margin * random_unit(rng, vecs.shape[0])


def _near_pbh_boundary(rng: np.random.Generator, n: int, margin: float, symmetric: bool):
    """A plant with one unstable mode (a complex pair when non-symmetric) and
    a placement whose b and c miss that mode's left and right eigenvectors
    by about ``margin``."""
    if symmetric:
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = basis @ np.diag(np.r_[np.linspace(-3.0, -0.3, n - 1), 0.5]) @ basis.T
        A = 0.5 * (A + A.T)
        left = right = basis[:, -1:]
    else:
        A = _shifted_with_pair(rng, n, 0.5)
        lam, Y = np.linalg.eig(A.T)
        lam_r, X = np.linalg.eig(A)
        y, x = Y[:, np.argmax(lam.real)], X[:, np.argmax(lam_r.real)]
        left, right = np.c_[y.real, y.imag], np.c_[x.real, x.imag]
    placement = Placement.normalized(_off_mode(rng, left, margin), _off_mode(rng, right, margin))
    return Plant(A, 0.5, 0.5), placement


class TestCertificates:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_nan_care_residual_is_non_convergence(self, monkeypatch, symmetric):
        # A residual that is not finite fails the certificate on both paths:
        # the modal solve falls back and the Hamiltonian solve raises.
        rng = np.random.default_rng(1850)
        A = random_symmetric_hurwitz(rng, 4) if symmetric else _hurwitz(rng, 4)
        plant = Plant(A, 0.5, 0.5)
        placement = random_placement_for(rng, 4)
        assert (plant.eigenvectors is not None) == symmetric
        monkeypatch.setattr(riccati, "care_residual", lambda *args: float("nan"))
        with pytest.raises(NonConvergence, match="CARE residual nan exceeds"):
            cost_report(plant, placement)
        if symmetric:
            with pytest.raises(riccati._ModalFallback, match="CARE residual nan exceeds"):
                riccati._modal_care(
                    plant.A, plant.eigenvalues, plant.eigenvectors, 0.5, placement.b_unit
                )

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_fails_its_certificate(self, bad, transpose):
        # The certificates take NaN-safe norms: a NaN in P gives a NaN
        # residual, which fails like a large one. An inf in P makes the
        # tolerance inf as well, and an inf residual is not below it.
        F, P, text = np.array([[-1.0]]), np.array([[bad]]), f"{bad:.3e}"
        with pytest.raises(NonConvergence, match=f"CARE residual {text} .* {text}"):
            riccati._certified_care(F, np.eye(1), np.eye(1), P)
        with pytest.raises(NonConvergence, match=f"Lyapunov residual {text} .* {text}"):
            riccati._certified(F, np.eye(1), P, transpose)

    def test_inf_entry_fails_its_certificate_without_a_warning(self):
        # One inf among finite entries puts inf * 0 = NaN into the residual's
        # products. That must end in the typed error, not in numpy's
        # "invalid value encountered in matmul" RuntimeWarning.
        F, P = -np.eye(3), np.eye(3)
        P[0, 1] = P[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="CARE residual"):
                riccati._certified_care(F, np.eye(3), np.eye(3), P)
            for transpose in (False, True):
                with pytest.raises(NonConvergence, match="Lyapunov residual"):
                    riccati._certified(F, np.eye(3), P, transpose)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_modal_care_solution_falls_back(self, monkeypatch, bad, n):
        # The first modal solve of a gain pair is the regulator's P. A NaN or
        # inf there fails the CARE certificate (at n = 1 an inf P gives an
        # inf residual, not a NaN), and that side is solved on the
        # Hamiltonian path, to the bits of a plant without the modal path.
        original = riccati._modal_lyapunov
        calls = []

        def bad_first_call(*args, **kwargs):
            calls.append(None)
            P = original(*args, **kwargs)
            return np.full_like(P, bad) if len(calls) == 1 else P

        monkeypatch.setattr(riccati, "_modal_lyapunov", bad_first_call)
        plant = Plant(np.diag([-1.0, -2.0, -3.0][:n]), 0.5, 0.5)
        placement = Placement.normalized(np.ones(n), [1.0, 0.5, 0.25][:n])
        gains = riccati.gain_pair(plant, placement)
        assert gains.fallback.startswith("regulator: CARE residual")
        assert isinstance(gains.loop_K, riccati.ClosedLoop)
        W = plant.epsilon * np.outer(placement.b_unit, placement.b_unit)
        assert np.array_equal(gains.K, solve_care(plant.A, W, np.eye(n)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_modal_adjoint_solve_is_solved_on_the_schur_form(
        self, monkeypatch, bad
    ):
        # The third modal solve of a cost report is the first adjoint, M on
        # the regulator loop. A NaN or inf there fails its certificate, and
        # the Schur form of the same loop solves it.
        calls = []
        original = riccati._modal_lyapunov

        def bad_third_call(*args, **kwargs):
            calls.append(None)
            P = original(*args, **kwargs)
            return np.full_like(P, bad) if len(calls) == 3 else P

        monkeypatch.setattr(riccati, "_modal_lyapunov", bad_third_call)
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.5, 0.5)
        placement = Placement.normalized([1.0, 1.0, 1.0], [1.0, 0.5, 0.25])
        report = cost_report(plant, placement)
        g = report.gains
        assert len(calls) == 4 and g.fallback is None
        assert "_schur" in vars(g.loop_K) and "_schur" not in vars(g.loop_Sigma)
        M, res_M = closed_loop(g.loop_K.F).solve(g.Sigma @ placement.C @ g.Sigma)
        assert np.array_equal(report.adjoints.M, M)
        assert report.adjoints.residual_M == res_M

    def test_near_pbh_boundary_returns_certified_or_raises(self):
        # Each cost report either carries residuals and Hurwitz margins
        # inside their certificates, checked here from the returned matrices,
        # or raises a typed error; the sweep sees both.
        outcomes = set()
        for n in (3, 6, 10):
            rng = np.random.default_rng(1860 + n)
            for margin in 10.0 ** -np.arange(2, 9):
                for symmetric in (False, True):
                    plant, placement = _near_pbh_boundary(rng, n, margin, symmetric)
                    try:
                        report = cost_report(plant, placement)
                    except CodesignError:
                        outcomes.add("raised")
                        continue
                    outcomes.add("returned")
                    A, eye = plant.A, np.eye(n)
                    g, adj = report.gains, report.adjoints
                    for coeff, W, P, res, loop in (
                        (A, 0.5 * placement.B, g.K, g.residual_K, g.loop_K),
                        (A.T, 0.5 * placement.C, g.Sigma, g.residual_Sigma, g.loop_Sigma),
                    ):
                        assert res == care_residual(coeff, W, eye, P)
                        assert res <= riccati.CARE_RTOL * (1.0 + la.norm(P) ** 2)
                        assert np.array_equal(loop.F, coeff - W @ P)
                        assert loop.margin > riccati.HURWITZ_MARGIN
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                    for P, res in ((adj.M, adj.residual_M), (adj.N, adj.residual_N)):
                        assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))
        assert outcomes == {"returned", "raised"}

    def test_failed_modal_lyapunov_certificate_is_solved_on_the_schur_form(self):
        # The sweep above, replayed. On these symmetric placements an adjoint
        # solve in the modal basis fails its certificate; the same closed
        # loop's Schur form then solves it, and the report is certified.
        rescued = {(3, 2), (3, 3), (3, 4), (6, 3), (10, 3), (10, 4)}
        seen = set()
        for n in (3, 6, 10):
            rng = np.random.default_rng(1860 + n)
            for k, margin in zip(range(2, 9), 10.0 ** -np.arange(2, 9)):
                for symmetric in (False, True):
                    plant, placement = _near_pbh_boundary(rng, n, margin, symmetric)
                    if not symmetric or (n, k) not in rescued:
                        continue
                    seen.add((n, k))
                    report = cost_report(plant, placement)
                    g, adj = report.gains, report.adjoints
                    assert g.fallback is None
                    assert isinstance(g.loop_K, riccati.ModalLoop)
                    assert isinstance(g.loop_Sigma, riccati.ModalLoop)
                    assert "_schur" in vars(g.loop_K) or "_schur" in vars(g.loop_Sigma)
                    A, eye = plant.A, np.eye(n)
                    for coeff, W, P, res, loop in (
                        (A, 0.5 * placement.B, g.K, g.residual_K, g.loop_K),
                        (A.T, 0.5 * placement.C, g.Sigma, g.residual_Sigma, g.loop_Sigma),
                    ):
                        assert res == care_residual(coeff, W, eye, P)
                        assert res <= riccati.CARE_RTOL * (1.0 + la.norm(P) ** 2)
                        assert np.array_equal(loop.F, coeff - W @ P)
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                    for P, Q, res, loop in (
                        (adj.M, g.Sigma @ placement.C @ g.Sigma, adj.residual_M, g.loop_K),
                        (adj.N, g.K @ placement.B @ g.K, adj.residual_N, g.loop_Sigma),
                    ):
                        assert res == lyapunov_residual(loop.F, Q, P)
                        assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))
        assert seen == rescued


class TestModalPath:
    def test_symmetric_helper_takes_the_modal_path(self):
        for n in (1, 3, 5):
            rng = np.random.default_rng(1870 + n)
            plant = Plant(random_symmetric_hurwitz(rng, n), 0.5, 0.5)
            assert plant.eigenvectors is not None
            assert gain_pair(plant, random_placement_for(rng, n)).fallback is None

    @pytest.mark.parametrize(
        "n, spread", [(3, (-3.0, -0.3)), (16, (-3.0, -0.3)), (50, (-3.0, -0.3)), (6, (-2.0, 1.5))]
    )
    def test_matches_hamiltonian_on_random_symmetric_plants(self, n, spread):
        # The last case is open-loop unstable: lambda_i - p_k is read off
        # dlasd4's WORK there instead of its DELTA.
        rng = np.random.default_rng(1700 + n)
        plant = _symmetric_plant(rng, n, spread, 0.5, 0.7)
        for _ in range(3):
            placement = random_placement_for(rng, n)
            modal = _modal_values(plant, placement)
            oracle = _hamiltonian_values(plant, placement)
            for name, value in modal.items():
                err = la.norm(np.atleast_1d(value - oracle[name]))
                assert err <= 1e-10 * la.norm(np.atleast_1d(oracle[name])), name

    def test_laplacian_agrees_with_smaller_backward_error(self):
        # The zero mode's conditioning separates the two paths by up to about
        # 1e-11 in K, so the modal K is also judged by its own residual,
        # which stays below the Hamiltonian path's (up to 1e-13 here).
        rng = np.random.default_rng(1800)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        for _ in range(20):
            placement = random_placement_for(rng, 16)
            modal = _modal_values(plant, placement)
            oracle = _hamiltonian_values(plant, placement)
            assert abs(modal["phi"] - oracle["phi"]) <= 1e-9 * oracle["phi"]
            res = _longdouble_care_residual(plant.A, 0.5, placement.b_unit, modal["K"])
            assert res <= 1e-14

    @pytest.mark.parametrize("size", [0.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_deflation_near_the_ones_vector(self, size):
        # At b = c = 1/sqrt(n) every mode but the zero mode decouples, and
        # dlasd4 runs on one mode; nearby placements couple every mode
        # weakly. Both stay modal and agree with the oracle.
        rng = np.random.default_rng(1801)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        ones = np.ones(16) / 4.0
        placement = Placement.normalized(
            ones + size * rng.standard_normal(16), ones + size * rng.standard_normal(16)
        )
        modal = _modal_values(plant, placement)
        oracle = _hamiltonian_values(plant, placement)
        for name in ("K", "Sigma", "M", "N", "phi"):
            err = la.norm(np.atleast_1d(modal[name] - oracle[name]))
            assert err <= 1e-12 * la.norm(np.atleast_1d(oracle[name])), name
        # phi_bar vanishes at the optimum: compare it on the scale of its terms.
        scale = la.norm(plant.A) * la.norm(oracle["M"]) * la.norm(oracle["N"])
        assert abs(modal["phi_bar"] - oracle["phi_bar"]) <= 1e-12 * scale
        if size == 0.0:
            loop = gain_pair(plant, placement).loop_K
            assert np.count_nonzero(~np.isin(loop.p, plant.eigenvalues)) == 1

    @pytest.mark.parametrize("lam1", [-1.0, 1.0])
    def test_one_coupled_mode(self, lam1):
        # b = c = e1 couples one mode, where dlasd4 returns DELTA = WORK = 1,
        # eigenvector entries rather than differences; lam1 <= 0 reads DELTA.
        plant = Plant(np.diag([lam1, -2.0, -3.0]), 0.5, 0.5)
        e1 = np.array([1.0, 0.0, 0.0])
        gains = gain_pair(plant, Placement(e1, e1))
        assert gains.fallback is None
        top = (lam1 + np.sqrt(lam1**2 + 0.5)) / 0.5  # 2 lam k - k^2 / 2 + 1 = 0
        expected = np.diag([top, 0.25, 1.0 / 6.0])
        assert np.allclose(gains.K, expected, rtol=0.0, atol=1e-15)
        assert np.allclose(gains.Sigma, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("gap", [0.0, 1e-12])
    def test_near_repeated_eigenvalues_fall_back(self, gap):
        rng = np.random.default_rng(1802)
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        A = basis @ np.diag([-1.0, -1.0 - gap, -2.0, -3.0]) @ basis.T
        plant = Plant(0.5 * (A + A.T), 0.5, 0.5)
        placement = random_placement_for(rng, 4)
        gains = gain_pair(plant, placement)
        assert gains.fallback.startswith("regulator: |lambda| not separated")
        assert "; filter: |lambda| not separated" in gains.fallback
        assert isinstance(gains.loop_K, riccati.ClosedLoop)
        K = riccati._solve_care(plant.A, 0.5 * placement.B, np.eye(4))[0]
        assert np.array_equal(gains.K, K)

    def test_zero_gain_side_falls_back(self):
        # eps = 0 < delta: the regulator's W = 0 takes the Hamiltonian
        # path's Lyapunov branch, and the filter side stays modal.
        rng = np.random.default_rng(1803)
        plant = Plant(spaced_in_random_basis(rng, 5), 0.0, 0.8)
        gains = gain_pair(plant, random_placement_for(rng, 5))
        assert gains.fallback == "regulator: W = 0"
        assert isinstance(gains.loop_K, riccati.ClosedLoop)
        assert isinstance(gains.loop_Sigma, riccati.ModalLoop)
        # Unstable A at eps = 0 still has no stabilizing solution.
        unstable = Plant(np.diag([0.5, -1.0]), 0.0, 0.8)
        with pytest.raises(NoStabilizingSolution):
            gain_pair(unstable, Placement.normalized([1.0, 1.0], [1.0, 1.0]))

    def test_decoupled_unstable_mode_falls_back(self):
        lam = np.array([-2.0, 0.5])
        with pytest.raises(riccati._ModalFallback, match="decoupled"):
            riccati._modal_care(np.diag(lam), lam, np.eye(2), 1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_modal_loop_solve_matches_kronecker_oracle(self, transpose):
        rng = np.random.default_rng(1804)
        plant = _symmetric_plant(rng, 6, (-3.0, -0.3), 0.5, 0.7)
        loop = gain_pair(plant, random_placement_for(rng, 6)).loop_K
        G = rng.standard_normal((6, 6))
        Q = G @ G.T
        P, res = loop.solve(Q, transpose=transpose)
        F = loop.F.T if transpose else loop.F
        expected = kron_lyapunov_solve(F, Q)
        assert la.norm(P - expected) <= 1e-12 * la.norm(expected)
        assert res == lyapunov_residual(F, Q, P)
        assert loop.margin == pytest.approx(-np.max(np.linalg.eigvals(loop.F).real))


class TestAdjointPair:
    def test_scalar_paper_value(self):
        plant = Plant(np.array([[-1.0]]), 3.0, 3.0)
        placement = Placement(np.array([1.0]), np.array([1.0]))
        gains = gain_pair(plant, placement)
        adj = adjoint_pair(plant, placement, gains)
        # M11 = 1/(2*sqrt(lam^2+eps)*(sqrt(lam^2+del) - lam)^2) = 1/36
        assert abs(adj.M[0, 0] - 1.0 / 36.0) < 1e-12
        assert abs(adj.N[0, 0] - 1.0 / 36.0) < 1e-12

    def test_scalar_zero_gain(self):
        plant = Plant(np.array([[-1.0]]), 0.0, 0.0)
        placement = Placement(np.array([1.0]), np.array([1.0]))
        adj = adjoint_pair(plant, placement, gain_pair(plant, placement))
        # Sigma C Sigma = 1/4 and F = -1: M = 1/8
        assert abs(adj.M[0, 0] - 0.125) < 1e-13
        assert abs(adj.N[0, 0] - 0.125) < 1e-13

    def test_rank_one_forcing_gives_nonzero_solution(self):
        rng = np.random.default_rng(5)
        A = random_symmetric_hurwitz(rng, 4)
        plant = Plant(A, 0.4, 0.9)
        placement = random_placement_for(rng, 4)
        adj = adjoint_pair(plant, placement, gain_pair(plant, placement))
        assert la.norm(adj.M) > 1e-8  # rank >= 1
        assert la.norm(adj.N) > 1e-8
        assert np.min(np.linalg.eigvalsh(adj.M)) >= -1e-12
        assert np.min(np.linalg.eigvalsh(adj.N)) >= -1e-12

    def test_adjoints_match_integral_representation(self):
        rng = np.random.default_rng(6)
        A = random_symmetric_hurwitz(rng, 3)
        plant = Plant(A, 0.6, 0.8)
        placement = random_placement_for(rng, 3)
        gains = gain_pair(plant, placement)
        adj = adjoint_pair(plant, placement, gains)
        F_reg = A - plant.epsilon * placement.B @ gains.K
        F_fil = A - plant.delta * gains.Sigma @ placement.C
        M_int = integral_lyapunov_solve(
            F_reg, gains.Sigma @ placement.C @ gains.Sigma
        )
        N_int = integral_lyapunov_solve(F_fil.T, gains.K @ placement.B @ gains.K)
        assert la.norm(adj.M - M_int) <= 1e-6 * (1 + la.norm(M_int))
        assert la.norm(adj.N - N_int) <= 1e-6 * (1 + la.norm(N_int))


class TestPBHCheck:
    def test_hurwitz_always_passes(self):
        report = pbh_check(np.diag([-1.0, -2.0]), np.array([1.0, 0.0]), "stabilizability")
        assert report.ok
        assert report.tested == ()
        assert report.min_margin == float("inf")

    def test_unreachable_unstable_mode_fails(self):
        report = pbh_check(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), "stabilizability")
        assert not report.ok
        lam, margin = min(report.tested, key=lambda t: t[1])
        assert abs(lam - 1.0) < 1e-12
        assert margin < 1e-9

    def test_laplacian_zero_mode_with_ones_vector(self):
        # path graph on 4 nodes
        W = np.zeros((4, 4))
        for i, j, w in [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]:
            W[i, j] = W[j, i] = w
        L = np.diag(W.sum(axis=1)) - W
        A = -L
        ones = np.ones(4) / 2.0
        report = pbh_check(A, ones, "stabilizability")
        assert report.ok
        # independent oracle: the augmented pencil at lambda = 0 has full rank
        assert np.linalg.matrix_rank(np.hstack([A, ones[:, None]])) == 4
        # a vector orthogonal to the zero mode fails
        v_bad = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
        assert not pbh_check(A, v_bad, "stabilizability").ok

    def test_detectability_uses_transpose(self):
        A = np.array([[1.0, 1.0], [0.0, -1.0]])  # unstable mode observable via e1 only
        assert pbh_check(A, np.array([1.0, 0.0]), "detectability").ok

    def test_rejects_zero_vector_and_bad_mode(self):
        with pytest.raises(ValueError):
            pbh_check(np.eye(2), np.zeros(2), "stabilizability")
        with pytest.raises(ValueError):
            pbh_check(np.eye(2), np.ones(2), "observability")
