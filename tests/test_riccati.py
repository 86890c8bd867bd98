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
    GainPair,
    NoStabilizingSolution,
    NonConvergence,
    NotHurwitz,
    PBHViolation,
    Placement,
    Plant,
    adjoint_pair,
    cost_report,
    gain_pair,
    gradient,
    pbh_check,
    solve_care,
    solve_lyapunov,
)
from lqg_codesign import riccati
from lqg_codesign.cli import main
from lqg_codesign.equilibria import hessian_matrix
from lqg_codesign.plant import modal_basis, pbh_setup
from lqg_codesign.riccati import (
    ClosedLoop,
    care_residual,
    closed_loop,
    lyapunov_residual,
)


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

    def test_a_nonzero_w_is_never_taken_for_zero(self):
        # |W|_F underflows to 0 for entries below about 1e-162 and overflows
        # above about 1e154; neither may send W down the W = 0 path.
        v = np.array([0.6, 0.8])
        unstable = np.array([[0.1, 1.0], [0.0, -1.0]])  # (A, v) passes PBH
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-170, 1e200):
                with pytest.raises(NoStabilizingSolution) as excinfo:
                    solve_care(unstable, scale * np.outer(v, v), np.eye(2))
                assert "W = 0" not in str(excinfo.value)
            # For a Hurwitz A a tiny W is solved as W, on the Schur path,
            # and the solution is the W = 0 one to rounding.
            A = np.array([[-1.0, 1.0], [0.0, -2.0]])
            P0 = solve_care(A, np.zeros((2, 2)), np.eye(2))
            P = solve_care(A, 1e-170 * np.outer(v, v), np.eye(2))
        assert la.norm(P - P0) <= 4 * np.finfo(float).eps * la.norm(P0)

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

    @pytest.mark.parametrize(
        "Q, match",
        [(np.array([[1.0, np.nan], [np.nan, 1.0]]), "infs or NaNs"), (np.eye(3), "same shape")],
    )
    def test_bad_forcing_is_refused_before_trsyl(self, Q, match):
        with pytest.raises(ValueError, match=match):
            solve_lyapunov(np.diag([-1.0, -2.0]), Q)


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
            hessian_matrix(report)
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


def _unstable_side(rng: np.random.Generator, n: int):
    """(A, W, v): a dense non-symmetric A = G / sqrt(n) - 0.8 I with an
    eigenvalue in the right half plane, W = w v v^T for a random v."""
    while True:
        A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.8 * np.eye(n)
        if np.max(np.linalg.eigvals(A).real) > 0.0:
            break
    v = rng.standard_normal(n)
    return A, np.outer(v, v) * rng.uniform(0.1, 2.0), v


def _schur_shapes(monkeypatch) -> list:
    """Record the shape of every matrix ``la.schur`` factors from here on."""
    shapes, schur = [], la.schur

    def recorded(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return schur(M, *args, **kwargs)

    monkeypatch.setattr(la, "schur", recorded)
    return shapes


class TestDoubling:
    @pytest.mark.parametrize("n", [16, 24, 50])
    def test_matches_scipy_without_a_hamiltonian_schur_form(self, monkeypatch, n):
        # From DOUBLING_MIN_N on, an open-loop-unstable non-symmetric CARE is
        # solved by doubling: the one Schur form taken is the n x n loop's.
        assert n >= riccati.DOUBLING_MIN_N
        rng = np.random.default_rng(3400 + n)
        A, W, v = _unstable_side(rng, n)
        Q = np.eye(n)
        shapes = _schur_shapes(monkeypatch)
        P, res, loop = riccati._solve_care(A, W, Q)
        assert shapes == [(n, n)]
        assert la.norm(P - P.T) == 0.0
        assert res == care_residual(A, W, Q, P) <= 1e-10 * (1 + la.norm(P) ** 2)
        assert np.array_equal(loop.F, A - W @ P)
        assert loop.margin == pytest.approx(-np.max(np.linalg.eigvals(loop.F).real), rel=1e-8)
        P_ref = la.solve_continuous_are(
            A, v[:, None], Q, np.array([[1.0 / _outer_weight(W, v)]])
        )
        assert la.norm(P - P_ref) <= 1e-8 * (1 + la.norm(P_ref))

    def test_a_refused_doubling_solve_is_the_schur_paths(self, monkeypatch):
        rng = np.random.default_rng(3412)
        A, W, _ = _unstable_side(rng, riccati.DOUBLING_MIN_N)
        Q = np.eye(A.shape[0])
        refused = []

        def refusing(*args):
            refused.append(args)
            raise riccati._Refused("refused")

        monkeypatch.setattr(riccati, "_doubling_care", refusing)
        P, res, loop = riccati._solve_care(A, W, Q)
        P_ref, res_ref, loop_ref = riccati._schur_care(A, W, Q)
        assert len(refused) == 1
        assert np.array_equal(P, P_ref) and res == res_ref
        assert np.array_equal(loop.F, loop_ref.F)
        assert np.array_equal(loop._schur[0], loop_ref._schur[0])

    def test_non_stabilizable_sides_are_refused_and_raise(self):
        # The unactuated skew block of test_non_stabilizable_probe_never_returns
        # at n = 12-16: no doubling solve is certified, and the Schur path
        # raises.
        rng = np.random.default_rng(3416)
        for _ in range(10):
            n = int(rng.integers(riccati.DOUBLING_MIN_N, 17))
            m = int(rng.integers(1, n))
            G = rng.standard_normal((m, m))
            A = np.zeros((n, n))
            A[:m, :m] = G - G.T
            A[m:, m:] = -rng.uniform(0.5, 2.0) * np.eye(n - m)
            W = np.diag([0.0] * m + [1.0] * (n - m))
            with pytest.raises(riccati._Refused):
                riccati._doubling_care(A, W, np.eye(n))
            with pytest.raises(NoStabilizingSolution):
                solve_care(A, W, np.eye(n))

    def test_cold_cost_report_takes_two_loop_schur_forms(self, monkeypatch):
        # test_no_matrix_is_factored_twice at n = 16: the two Hamiltonian
        # Schur forms are gone, each loop's n x n one stays, and nothing is
        # factored twice.
        n = 16
        rng = np.random.default_rng(3417)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        assert np.max(np.linalg.eigvals(A).real) > 0.0
        plant, placement = Plant(A, 0.7, 1.3), random_placement_for(rng, n)
        shapes = _schur_shapes(monkeypatch)
        eigvals = []
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: eigvals.append(args))
        report = cost_report(plant, placement)
        assert shapes == [(n, n), (n, n)] and eigvals == []
        assert report.gains.loop_K.F.tobytes() != report.gains.loop_Sigma.F.tobytes()

    def test_near_pbh_sides_the_schur_path_certifies_stay_certified(self):
        # Every CARE side of these n = 16 near-PBH draws that the Schur path
        # certifies, _solve_care certifies too: by doubling, or, where the
        # doubling solve's loop is not Hurwitz (|P| near 1e12), by the Schur
        # path it hands over to.
        n, taken = 16, {"doubling": 0, "schur": 0}
        for seed in (1864, 1876):
            rng = np.random.default_rng(seed)
            for margin in 10.0 ** -np.arange(2, 9):
                for symmetric in (False, True):
                    plant, placement = _near_pbh_boundary(rng, n, margin, symmetric)
                    for A, W in ((plant.A, 0.5 * placement.B), (plant.A.T, 0.5 * placement.C)):
                        try:
                            P_ref = riccati._schur_care(A, W, np.eye(n))[0]
                        except CodesignError:
                            continue
                        P, res, loop = riccati._solve_care(A, W, np.eye(n))
                        assert res <= riccati.CARE_RTOL * (1.0 + np.vdot(P, P))
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                        path = "schur" if np.array_equal(P, P_ref) else "doubling"
                        if path == "doubling":
                            assert np.array_equal(P, riccati._doubling_care(A, W, np.eye(n))[0])
                        taken[path] += 1
        assert taken["doubling"] > 0 and taken["schur"] > 0, taken


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
    """Oracle: K, Sigma, M, N, phi and phi_bar by the ordered Schur form of
    the Hamiltonian (``riccati._schur_care``, whatever n is) and the Schur
    forms of its closed loops."""
    eye = np.eye(plant.n)
    K, _, loop_K = riccati._schur_care(plant.A, plant.epsilon * placement.B, eye)
    S, _, loop_S = riccati._schur_care(plant.A.T, plant.delta * placement.C, eye)
    M = loop_K.solve(S @ placement.C @ S)[0]
    N = loop_S.solve(K @ placement.B @ K)[0]
    A = plant.A
    phi = np.trace(A.T @ K @ S + S @ K @ A + K + S)
    return {"K": K, "Sigma": S, "M": M, "N": N, "phi": phi,
            "phi_bar": np.trace(A.T @ M @ N + N @ M @ A)}


def _modal_values(plant: Plant, placement: Placement) -> dict:
    report = cost_report(plant, placement)
    assert report.gains.fallback is None
    assert report.gains.loop_K.modes is not None
    assert report.gains.loop_Sigma.modes is not None
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


def _check_care_and_loop(gains, coeff, W, P, res, loop) -> None:
    """A side of a gain pair against the A-basis certificates: P (in the
    plant's coordinates) has a CARE residual within 1e-10 * (1 + |P|_F^2),
    which ``res`` certifies too, and the loop is coeff - W P. Without a
    basis the residual and the loop are those of the A-basis products to
    the bit; in the eigenbasis Theta, Theta F Theta^T matches them within
    1e-15 * (|A|_F + |W|_F |P|_F)."""
    eye = np.eye(P.shape[0])
    tol = riccati.CARE_RTOL * (1.0 + la.norm(P) ** 2)
    assert res <= tol and care_residual(coeff, W, eye, P) <= tol
    if gains.basis is None:
        assert res == care_residual(coeff, W, eye, P)
        assert np.array_equal(loop.F, coeff - W @ P)
    else:
        F = gains.basis @ loop.F @ gains.basis.T
        scale = la.norm(coeff) + la.norm(W) * la.norm(P)
        assert la.norm(F - (coeff - W @ P)) <= 1e-15 * scale


def _check_hamiltonian_pair(plant: Plant, placement: Placement, gains, fallback: str) -> None:
    """A symmetric plant's pair with a failed modal side: both sides are, in
    A's coordinates and to the bit, those of ``riccati._solve_care``, the
    A-basis path ``gain_pair`` falls back to (ordered Schur form below
    ``DOUBLING_MIN_N``, doubling from there on)."""
    assert gains.fallback == fallback and gains.basis is None
    assert gains.loop_K.modes is None and gains.loop_Sigma.modes is None
    eye = np.eye(plant.n)
    K = riccati._solve_care(plant.A, plant.epsilon * placement.B, eye)[0]
    Sigma = riccati._solve_care(plant.A.T, plant.delta * placement.C, eye)[0]
    assert np.array_equal(gains.K, K) and np.array_equal(gains.Sigma, Sigma)


def _plus_minus_pair(seed: int):
    """A symmetric n = 4 plant whose top eigenvalues are +-lambda, so |lambda|
    is not separated and neither side can stay modal, with a random placement."""
    rng = np.random.default_rng(seed)
    lam = -np.sort(rng.uniform(0.2, 3.0, 4))
    lam[0] = -lam[1]
    basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    A = basis @ np.diag(lam) @ basis.T
    placement = Placement.normalized(rng.standard_normal(4), rng.standard_normal(4))
    return Plant(0.5 * (A + A.T), 0.5, 0.5), placement


class TestCertificates:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_nan_care_residual_is_non_convergence(self, monkeypatch, symmetric):
        # A residual that is not finite fails the certificate on both paths:
        # the modal solve (whose residual is ``update_residual`` in the
        # eigenbasis) falls back and the Hamiltonian solve raises.
        rng = np.random.default_rng(1850)
        A = random_symmetric_hurwitz(rng, 4) if symmetric else _hurwitz(rng, 4)
        plant = Plant(A, 0.5, 0.5)
        placement = random_placement_for(rng, 4)
        assert (plant.eigenvectors is not None) == symmetric
        monkeypatch.setattr(riccati, "care_residual", lambda *args: float("nan"))
        monkeypatch.setattr(riccati, "update_residual", lambda *args: float("nan"))
        with pytest.raises(NonConvergence, match="CARE residual nan exceeds"):
            cost_report(plant, placement)
        if symmetric:
            beta = plant.modal.basis.T @ placement.b_unit
            with pytest.raises(riccati._Refused, match="CARE residual nan exceeds"):
                riccati._modal_care(plant.modal, 0.5, beta)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_solution_fails_its_certificate(self, bad, transpose):
        # The certificates take NaN-safe norms: a NaN in P gives a NaN
        # residual, which fails like a large one. An inf in P makes the
        # tolerance inf as well, and an inf residual is not below it.
        F, P, text = np.array([[-1.0]]), np.array([[bad]]), f"{bad:.3e}"
        with pytest.raises(NonConvergence, match=f"CARE residual {text} .* {text}"):
            riccati._certified_care(care_residual(F, np.eye(1), np.eye(1), P), P)
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
                riccati._certified_care(care_residual(F, np.eye(3), np.eye(3), P), P)
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
        assert gains.loop_K.modes is None
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
        S_forcing = riccati.adjoint_forcings(g, placement)[0]
        schur_only = ClosedLoop(g.loop_K.F, update=g.loop_K.update)
        M, res_M = schur_only.solve(S_forcing)
        assert np.array_equal(report.adjoints.M_tilde, M)
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
                        _check_care_and_loop(g, coeff, W, P, res, loop)
                        assert loop.margin > riccati.HURWITZ_MARGIN
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                    for P, res in ((adj.M, adj.residual_M), (adj.N, adj.residual_N)):
                        assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))
        assert outcomes == {"returned", "raised"}

    def test_trsyl_perturbation_ends_in_a_typed_error(self):
        # The 7th near-PBH draw of default_rng(1872) at n = 3 (margin 1e-5,
        # non-symmetric) has a loop on which trsyl perturbs a near-singular
        # Lyapunov equation. No warning escapes: the solve fails its
        # certificate instead.
        rng = np.random.default_rng(1872)
        draws = [
            _near_pbh_boundary(rng, 3, margin, symmetric)
            for margin in 10.0 ** -np.arange(2, 6)
            for symmetric in (False, True)
        ]
        plant, placement = draws[6]
        assert plant.modal is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match="Lyapunov residual"):
                cost_report(plant, placement)

    def test_modal_loops_near_pbh_boundary_are_hurwitz(self):
        # The sweep above, through gain_pair alone, which ``simulate`` calls:
        # stable poles p do not make the formed F Hurwitz when its
        # eigenvector matrix is ill-conditioned, so every loop handed on is
        # Hurwitz by eigvals, or gain_pair raises. A loop whose Schur form
        # decided reads its margin off that form. In the eigenbasis the
        # Bauer-Fike bound accepts every modal loop of the sweep above; the
        # n = 6 sweep of default_rng(1901) has one (margin 1e-4) it cannot.
        modal = schur_decided = 0
        for seed, n in ((1863, 3), (1866, 6), (1870, 10), (1901, 6)):
            rng = np.random.default_rng(seed)
            for margin in 10.0 ** -np.arange(2, 9):
                for symmetric in (False, True):
                    plant, placement = _near_pbh_boundary(rng, n, margin, symmetric)
                    if not symmetric:
                        continue
                    try:
                        g = gain_pair(plant, placement)
                    except CodesignError:
                        continue
                    for loop in (g.loop_K, g.loop_Sigma):
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                        modal += loop.modes is not None
                        if loop.modes is not None and "_schur" in vars(loop):
                            schur_decided += 1
                            top = np.max(np.diag(loop._schur[0]))
                            assert loop.margin == -top > riccati.HURWITZ_MARGIN
        assert modal > 0 and schur_decided > 0

    def test_failed_modal_lyapunov_certificate_is_solved_on_the_schur_form(self):
        # The sweep above, replayed. On this symmetric placement an adjoint
        # solve in the modal basis fails its certificate; the same closed
        # loop's Schur form then solves it, and the report is certified.
        rescued = {(3, 3)}
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
                    assert g.loop_K.modes is not None
                    assert g.loop_Sigma.modes is not None
                    assert "_schur" in vars(g.loop_K) or "_schur" in vars(g.loop_Sigma)
                    A = plant.A
                    for coeff, W, P, res, loop in (
                        (A, 0.5 * placement.B, g.K, g.residual_K, g.loop_K),
                        (A.T, 0.5 * placement.C, g.Sigma, g.residual_Sigma, g.loop_Sigma),
                    ):
                        _check_care_and_loop(g, coeff, W, P, res, loop)
                        assert np.max(np.linalg.eigvals(loop.F).real) < 0.0
                    S_forcing, K_forcing = riccati.adjoint_forcings(g, placement)
                    for P, Q, res, loop in (
                        (adj.M_tilde, S_forcing, adj.residual_M, g.loop_K),
                        (adj.N_tilde, K_forcing, adj.residual_N, g.loop_Sigma),
                    ):
                        assert res == riccati.update_residual(*loop.update, Q, P)
                        assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))
                        assert lyapunov_residual(loop.F, Q, P) <= riccati.LYAP_RTOL * (
                            1.0 + la.norm(P)
                        )
        assert seen == rescued


def _refused(solve, *args) -> str:
    with pytest.raises(riccati._Refused) as refusal:
        solve(*args)
    return str(refusal.value)


def _halved(solve):
    return lambda *args, **kwargs: 0.5 * solve(*args, **kwargs)


_PLANT2 = Plant(np.diag([-1.0, -2.0]), 0.5, 0.5)
_PLACEMENT2 = Placement.normalized([0.6, 0.8], [0.8, 0.6])
_ZERO, _ONE = np.zeros((1, 1)), np.eye(1)
_NOT_SEPARATED = "|lambda| not separated by 1e-8 * max |lambda|"
_RESIDUAL_NAN = "CARE residual nan exceeds tolerance 1.111e-10"


def _zero_mode(beta0: float):
    """The eigenbasis of diag(0, -1) and beta = (beta0, 1): at gain 1 the
    slowest pole is about -beta0 / sqrt(2)."""
    return modal_basis(np.array([0.0, -1.0]), np.eye(2)), 1.0, np.array([beta0, 1.0])


#: Every reason a modal or doubling CARE solve hands its side over, by the
#: smallest plant (or monkeypatch) that gives it: (patches, reason, text).
#: A modal reason that shows through ``GainPair.fallback`` is read there.
_REFUSALS = {
    "modal_zero_gain": (
        {},
        lambda: gain_pair(Plant(np.diag([-1.0, -2.0]), 0.0, 0.5), _PLACEMENT2).fallback,
        "regulator: W = 0",
    ),
    "modal_decoupled_unstable_mode": (
        {},
        lambda: _refused(
            riccati._modal_care, modal_basis(np.array([0.5, -2.0]), np.eye(2)), 1.0,
            np.array([0.0, 1.0]),
        ),
        "a decoupled mode has lambda >= 0",
    ),
    "modal_not_separated": (
        {},
        lambda: gain_pair(*_plus_minus_pair(151)).fallback,
        f"regulator: {_NOT_SEPARATED}; filter: {_NOT_SEPARATED}",
    ),
    "modal_dlasd4_info": (
        {"_dlasd4": lambda k, d, z, rho: (np.zeros(d.size), 0.0, 0.0, 2)},
        lambda: gain_pair(_PLANT2, _PLACEMENT2).fallback,
        "regulator: dlasd4 info = 2; filter: dlasd4 info = 2",
    ),
    "modal_poles_not_hurwitz": (
        {},
        lambda: _refused(riccati._modal_care, *_zero_mode(1e-12)),
        "closed loop not Hurwitz: max pole -7.071e-13",
    ),
    "modal_care_residual": (
        {"update_residual": lambda *args: float("nan")},
        lambda: gain_pair(Plant([[-1.0]], 3.0, 3.0), Placement([1.0], [1.0])).fallback,
        f"regulator: {_RESIDUAL_NAN}; filter: {_RESIDUAL_NAN}",
    ),
    # Half the modal solve still passes the CARE certificate at |P~| ~ 7e11,
    # but its formed loop puts the slow pole right of -1e-12.
    "modal_formed_loop": (
        {"_modal_lyapunov": _halved(riccati._modal_lyapunov)},
        lambda: _refused(riccati._modal_care, *_zero_mode(2e-12)),
        "formed loop: matrix is not Hurwitz: max Re(eig) = -8.284e-13",
    ),
    "doubling_non_finite_iterate": (
        {},
        lambda: _refused(riccati._doubling_care, _ONE, _ZERO, _ONE),
        "non-finite iterate",
    ),
    "doubling_no_convergence": (
        {},
        lambda: _refused(riccati._doubling_care, _ZERO, _ZERO, _ONE),
        "no convergence in 50 steps",
    ),
    "doubling_singular_solve": (
        {},
        lambda: _refused(riccati._doubling_care, _ZERO, -_ONE, _ONE),
        "Singular matrix",
    ),
    "doubling_loop_not_hurwitz": (
        {},
        lambda: _refused(riccati._doubling_care, _ZERO, _ONE, _ZERO),
        "matrix is not Hurwitz: max Re(eig) = 0.000e+00",
    ),
    "doubling_care_residual": (
        {"care_residual": lambda *args: float("nan")},
        lambda: _refused(riccati._doubling_care, -_ONE, 3.0 * _ONE, _ONE),
        _RESIDUAL_NAN,
    ),
}


@pytest.mark.parametrize("patches, reason, text", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_every_refusal_keeps_its_reason(monkeypatch, patches, reason, text):
    for name, value in patches.items():
        monkeypatch.setattr(riccati, name, value)
    assert reason() == text


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
            assert np.count_nonzero(~np.isin(loop.modes[2], plant.eigenvalues)) == 1

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
        assert gains.loop_K.modes is None
        # A side that fell back reads the Hamiltonian solution itself.
        K = riccati._solve_care(plant.A, 0.5 * placement.B, np.eye(4))[0]
        assert np.array_equal(gains.K, K)
        Sigma = riccati._solve_care(plant.A.T, 0.5 * placement.C, np.eye(4))[0]
        assert np.array_equal(gains.Sigma, Sigma)

    def test_zero_gain_side_falls_back(self):
        # eps = 0 < delta: the regulator's W = 0 cannot stay modal, so the
        # whole pair takes the Hamiltonian path (the regulator its Lyapunov
        # branch), although the filter's modal solve succeeds.
        rng = np.random.default_rng(1803)
        plant = Plant(spaced_in_random_basis(rng, 5), 0.0, 0.8)
        placement = random_placement_for(rng, 5)
        _check_hamiltonian_pair(plant, placement, gain_pair(plant, placement), "regulator: W = 0")
        # Unstable A at eps = 0 still has no stabilizing solution.
        unstable = Plant(np.diag([0.5, -1.0]), 0.0, 0.8)
        with pytest.raises(NoStabilizingSolution):
            gain_pair(unstable, Placement.normalized([1.0, 1.0], [1.0, 1.0]))

    def test_plus_minus_lambda_pair_is_solved_whole(self):
        # Both sides fall back (|lambda| not separated), and the pair is
        # solved whole on the Hamiltonian path in A's coordinates, where this
        # placement certifies.
        plant, placement = _plus_minus_pair(151)
        report = cost_report(plant, placement)
        reason = "|lambda| not separated by 1e-8 * max |lambda|"
        _check_hamiltonian_pair(
            plant, placement, report.gains, f"regulator: {reason}; filter: {reason}"
        )
        adj = report.adjoints
        for P, res in ((adj.M, adj.residual_M), (adj.N, adj.residual_N)):
            assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))

    def test_decoupled_unstable_mode_falls_back(self):
        modal = modal_basis(np.array([-2.0, 0.5]), np.eye(2))
        beta = modal.basis.T @ np.array([1.0, 0.0])
        with pytest.raises(riccati._Refused, match="decoupled"):
            riccati._modal_care(modal, 1.0, beta)

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
        # The returned residual is the rank-one form's, to the bit; the dense
        # residual of F is within the same tolerance.
        S, u, w = loop.update
        assert res == riccati.update_residual(S, *((w, u) if transpose else (u, w)), Q, P)
        tol = riccati.LYAP_RTOL * (1.0 + la.norm(P))
        assert res <= tol and lyapunov_residual(F, Q, P) <= tol
        assert loop.margin == pytest.approx(-np.max(np.linalg.eigvals(loop.F).real))


def _hamiltonian_report(plant: Plant, placement: Placement) -> dict:
    """Oracle: ``_hamiltonian_values`` plus the tangent residuals r_b, r_c of
    the A-basis drive matrices K M K and Sigma N Sigma."""
    values = _hamiltonian_values(plant, placement)
    K, S, M, N = (values[key] for key in ("K", "Sigma", "M", "N"))
    for name, X, Y, v in (("r_b", K, M, placement.b_unit), ("r_c", S, N, placement.c_unit)):
        D = X @ Y @ X
        D = 0.5 * (D + D.T)
        values[name] = D @ v - (v @ D @ v) * v
    return values


class TestEigenbasisEvaluation:
    """A symmetric plant is evaluated in its eigenbasis: phi, phi_bar, the
    gradient residuals and the A-basis K, Sigma, M and N formed on demand
    agree with the Hamiltonian path (``_schur_care`` and the Schur forms of
    its closed loops) to 1e-9 relative."""

    @staticmethod
    def _agree(plant: Plant, placement: Placement) -> GainPair:
        report = cost_report(plant, placement)
        grad = gradient(report)
        oracle = _hamiltonian_report(plant, placement)
        got = {
            "K": report.gains.K, "Sigma": report.gains.Sigma,
            "M": report.adjoints.M, "N": report.adjoints.N,
            "phi": report.phi, "r_b": grad.r_b, "r_c": grad.r_c,
        }
        for name, value in got.items():
            err = la.norm(np.atleast_1d(value - oracle[name]))
            assert err <= 1e-9 * la.norm(np.atleast_1d(oracle[name])), name
        # phi_bar is a difference of terms of size |A| |M| |N|.
        scale = la.norm(plant.A) * la.norm(oracle["M"]) * la.norm(oracle["N"])
        assert abs(report.phi_bar - oracle["phi_bar"]) <= 1e-9 * scale
        held = None if report.gains.fallback else plant.modal.basis
        assert report.gains.basis is held
        return report.gains

    @pytest.mark.parametrize("case", ["laplacian16", "random3", "random10", "random30"])
    def test_matches_the_hamiltonian_path(self, case):
        rng = np.random.default_rng(2600)
        if case == "laplacian16":
            plant = ring_laplacian_plant(rng, 16, 0.5)
        else:
            n = int(case[len("random"):])
            plant = _symmetric_plant(rng, n, (-3.0, -0.3), 0.5, 0.7)
        for _ in range(5):
            gains = self._agree(plant, random_placement_for(rng, plant.n))
            assert gains.fallback is None

    def test_exactly_decoupled_mode(self):
        # b is orthogonal to one eigenvector to the rounding: |beta_i| <= 8u,
        # so that mode keeps its pole and the side stays modal.
        rng = np.random.default_rng(2601)
        plant = _symmetric_plant(rng, 10, (-3.0, -0.3), 0.5, 0.7)
        theta = plant.eigenvectors[:, 4]
        b = random_unit(rng, 10)
        b -= (theta @ b) * theta
        placement = Placement.normalized(b, random_unit(rng, 10))
        beta = plant.modal.basis.T @ placement.b_unit
        assert np.count_nonzero(np.abs(beta) <= riccati._DEFLATE_TOL) == 1
        gains = self._agree(plant, placement)
        assert gains.fallback is None
        assert np.count_nonzero(np.isin(gains.loop_K.modes[2], plant.eigenvalues)) == 1

    def test_one_side_falls_back(self):
        # eps = 0 < delta: the regulator cannot stay modal (W = 0), so both
        # sides take the Hamiltonian path and the pair is held in A's
        # coordinates, where phi, phi_bar and the gradient are evaluated.
        rng = np.random.default_rng(2602)
        plant = _symmetric_plant(rng, 10, (-3.0, -0.3), 0.0, 0.7)
        placement = random_placement_for(rng, 10)
        gains = self._agree(plant, placement)
        _check_hamiltonian_pair(plant, placement, gains, "regulator: W = 0")

    def test_takes_no_schur_form_and_no_svd(self, monkeypatch):
        # A cost report and its gradient on a separated symmetric plant away
        # from the PBH boundary: secular PBH margins, modal solves certified
        # in O(n^2), and no factorization at all.
        rng = np.random.default_rng(2603)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        placement = random_placement_for(rng, 16)
        counts = {"schur": 0, "svdvals": 0}
        for name in counts:
            original = getattr(la, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(la, name, counted)
        report = cost_report(plant, placement)
        gradient(report)
        assert counts == {"schur": 0, "svdvals": 0}
        assert report.gains.fallback is None
        assert min(r.min_margin for r in report.gains.pbh) > 1e-3

    @pytest.mark.parametrize("skew", [1e-16, 1e-12])
    def test_eigenbasis_must_reproduce_the_plant(self, monkeypatch, skew):
        # The eigenbasis certificates stand for A's only when eigh's
        # A = Theta diag(lam) Theta^T holds to rounding (32 n u). A Theta
        # skewed by 1e-12 misses that: the plant then takes no modal basis
        # and no secular margins, and is evaluated in A's coordinates.
        rng = np.random.default_rng(2604)
        A = _symmetric_plant(rng, 6, (-3.0, -0.3), 0.5, 0.7).A
        placement = random_placement_for(rng, 6)
        eigh = np.linalg.eigh
        with monkeypatch.context() as patch:
            patch.setattr(
                np.linalg, "eigh", lambda M: (eigh(M)[0], eigh(M)[1] + skew * np.eye(6))
            )
            plant = Plant(A, 0.5, 0.7)
        assert plant.eigenvectors is not None
        if skew < 1e-13:
            assert plant.modal is not None
            assert plant.pbh.eigenvectors is plant.eigenvectors
            return
        assert plant.modal is None and plant.pbh.eigenvectors is None
        report = cost_report(plant, placement)
        assert report.gains.basis is None and report.gains.fallback is None
        exact = cost_report(Plant(A, 0.5, 0.7), placement)
        assert exact.gains.basis is not None
        assert abs(report.phi - exact.phi) <= 1e-12 * abs(exact.phi)


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

    def test_ring_laplacian_forcings_certify(self):
        # 200 PBH-passing placements of A = -L, a 12-node ring with chords.
        # On the 29th, |Sigma|_F ~ 3e4, and Sigma @ C @ Sigma cancelled to O(1)
        # entries with an antisymmetric part no symmetric M can match: its
        # Lyapunov certificate failed (residual 2.3e-9 against 5.7e-11). The
        # forcings are outer products, symmetric to the bit, and every draw's
        # adjoints certify.
        rng = np.random.default_rng(3)
        plant = ring_laplacian_plant(rng, 12, 0.5)
        placements = [random_placement_for(rng, 12) for _ in range(200)]
        reports = [cost_report(plant, placement) for placement in placements]
        placement, report = placements[28], reports[28]
        g, adj = report.gains, report.adjoints
        assert la.norm(g.Sigma) > 1e4
        S_forcing, K_forcing = riccati.adjoint_forcings(g, placement)
        for P, Q, res, loop in (
            (adj.M_tilde, S_forcing, adj.residual_M, g.loop_K),
            (adj.N_tilde, K_forcing, adj.residual_N, g.loop_Sigma),
        ):
            assert np.array_equal(Q, Q.T)
            assert res == riccati.update_residual(*loop.update, Q, P)
            assert res <= riccati.LYAP_RTOL * (1.0 + la.norm(P))
            assert lyapunov_residual(loop.F, Q, P) <= riccati.LYAP_RTOL * (1.0 + la.norm(P))


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

    def test_conjugate_pair_shares_one_svd(self, monkeypatch):
        # Dense open-loop-unstable plants with complex unstable pairs: the
        # pencil at conj(lambda) is the entrywise conjugate of the one at
        # lambda, so a pair takes one SVD, and the margin it shares is each
        # pencil's own smallest singular value to the CI step's tolerance.
        svdvals, calls = la.svdvals, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svdvals(*args, **kwargs)

        monkeypatch.setattr(la, "svdvals", counted)
        rng = np.random.default_rng(2905)
        pairs = 0
        for _ in range(12):
            n = 20
            A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.7 * np.eye(n)
            tol = 1e-14 * (1.0 + np.linalg.norm(A))
            for mode in ("stabilizability", "detectability"):
                M = A if mode == "stabilizability" else A.T
                v = random_unit(rng, n)
                calls.clear()
                report = pbh_check(A, v, mode)
                complex_pairs = sum(lam.imag > 0 for lam, _ in report.tested)
                assert len(calls) == len(report.tested) - complex_pairs
                pairs += complex_pairs
                for lam, margin in report.tested:
                    pencil = np.hstack([M - lam * np.eye(n), v[:, None]])
                    assert abs(margin - svdvals(pencil)[-1]) <= tol
        assert pairs > 0

    def test_rejects_zero_vector_and_bad_mode(self):
        with pytest.raises(ValueError):
            pbh_check(np.eye(2), np.zeros(2), "stabilizability")
        with pytest.raises(ValueError):
            pbh_check(np.eye(2), np.ones(2), "observability")


def _dlasd4_calls(monkeypatch) -> list:
    """Record every ``dlasd4`` call ``riccati`` makes from here on."""
    calls, original = [], riccati._dlasd4

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(riccati, "_dlasd4", recorded)
    return calls


def _top_mode_tilts(rng, plant: Plant, tilt: float) -> list:
    """Two unit vectors per tilt: the top eigenvector tilted by ``tilt`` in a
    random direction (a large margin at the top mode), and a random vector
    orthogonal to it tilted back towards it by ``tilt`` (a margin of about
    ``tilt``, near the PBH boundary)."""
    top = plant.eigenvectors[:, np.argmax(plant.eigenvalues)]
    w = rng.standard_normal(plant.n)
    w -= (top @ w) * top
    w /= np.linalg.norm(w)
    return [v / np.linalg.norm(v) for v in (top + tilt * w, w + tilt * top)]


class TestSecularPBH:
    """On a symmetric plant ``pbh_check`` takes its margins from the secular
    equation in the plant's eigenbasis; the SVD of the pencil is the oracle."""

    @pytest.mark.parametrize("n", [4, 9, 16, 31, 50])
    def test_margins_match_the_svd(self, monkeypatch, n):
        rng = np.random.default_rng(2500 + n)
        calls = _dlasd4_calls(monkeypatch)
        plants = [
            ring_laplacian_plant(rng, n, 0.5),
            _symmetric_plant(rng, n, (-2.0, 1.5), 0.5, 0.5),  # several tested modes
        ]
        secular_roots = 0
        for plant in plants:
            svd_setup = pbh_setup(plant.A, plant.eigenvalues)
            tol = 1e-14 * (1.0 + la.norm(plant.A))
            for tilt in (1.0, 1e-3, 1e-6, 1e-9, 1e-12):
                for v in _top_mode_tilts(rng, plant, tilt):
                    for mode in ("stabilizability", "detectability"):
                        secular = pbh_check(plant.A, v, mode, setup=plant.pbh)
                        svd = pbh_check(plant.A, v, mode, setup=svd_setup)
                        assert secular.ok == svd.ok
                        assert [t[0] for t in secular.tested] == [t[0] for t in svd.tested]
                        for (_, got), (_, want) in zip(secular.tested, svd.tested):
                            assert abs(got - want) <= tol
                        # Every margin is a secular root unless some |beta_j| <= 8u.
                        beta = plant.eigenvectors.T @ v
                        if np.all(np.abs(beta) > riccati._DEFLATE_TOL):
                            secular_roots += len(svd.tested)
        assert len(calls) == secular_roots > 0

    def test_margin_near_the_boundary_fails(self):
        # The zero mode of a Laplacian reached only by a tilt of 1e-12: the
        # margin is about the tilt, and both verdicts fail.
        rng = np.random.default_rng(2551)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        v = _top_mode_tilts(rng, plant, 1e-12)[1]
        report = pbh_check(plant.A, v, "stabilizability", setup=plant.pbh)
        assert not report.ok and 0.0 < report.min_margin < 1e-11
        with pytest.raises(PBHViolation):
            gain_pair(plant, Placement(v, v))

    def test_decoupled_tested_mode_fails(self, monkeypatch):
        # beta_i = 0 at the tested mode: [A - lambda_i I, v] is rank deficient.
        # dlasd4 needs every z_j nonzero (at n = 2 it returns a NaN root with
        # info 0 for z_1 = 0), so the SVD decides whenever some |beta_j| <= 8u.
        path3 = -np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        cases = [
            (path3, np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)),  # |beta_0| ~ 1e-16
            (np.diag([0.0, -1.0]), np.array([0.0, 1.0])),  # beta_0 = 0 exactly
        ]
        calls = _dlasd4_calls(monkeypatch)
        for A, v in cases:
            plant = Plant(A, 0.5, 0.5)
            for mode in ("stabilizability", "detectability"):
                report = pbh_check(A, v, mode, setup=plant.pbh)
                assert not report.ok and report.min_margin < 1e-15
                assert report == pbh_check(A, v, mode, setup=pbh_setup(A, plant.eigenvalues))
            with pytest.raises(PBHViolation):
                gain_pair(plant, Placement(v, v))
        assert calls == []

    def test_ties_keep_the_svd(self, monkeypatch):
        # The 4-ring's eigenvalues 0, -2, -2, -4 repeat a distance from the
        # tested zero mode, and diag(1, 0, -1) has lambda_i +- 1 at lambda_i = 0:
        # there d is not strictly increasing and the SVD gives the margin.
        ring = np.zeros((4, 4))
        for i in range(4):
            ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
        rng = np.random.default_rng(2552)
        calls = _dlasd4_calls(monkeypatch)
        ring_plant = Plant(ring - np.diag(ring.sum(axis=1)), 0.5, 0.5)
        v = random_unit(rng, 4)
        for mode in ("stabilizability", "detectability"):
            report = pbh_check(ring_plant.A, v, mode, setup=ring_plant.pbh)
            svd_setup = pbh_setup(ring_plant.A, ring_plant.eigenvalues)
            assert report == pbh_check(ring_plant.A, v, mode, setup=svd_setup)
        assert calls == []
        plant = Plant(np.diag([1.0, 0.0, -1.0]), 0.5, 0.5)
        v = random_unit(rng, 3)
        report = pbh_check(plant.A, v, "stabilizability", setup=plant.pbh)
        svd_setup = pbh_setup(plant.A, plant.eigenvalues)
        svd = pbh_check(plant.A, v, "stabilizability", setup=svd_setup)
        assert [t[0] for t in report.tested] == [0.0, 1.0]
        assert report.tested[0] == svd.tested[0]  # the tie at 0
        assert abs(report.tested[1][1] - svd.tested[1][1]) <= 1e-14 * (1.0 + la.norm(plant.A))
        assert len(calls) == 1  # the secular root at 1

    def test_eigenvectors_without_eigenvalues_take_the_svd(self, monkeypatch):
        rng = np.random.default_rng(2553)
        plant = ring_laplacian_plant(rng, 8, 0.5)
        v = random_unit(rng, 8)
        calls = _dlasd4_calls(monkeypatch)
        setup = pbh_setup(plant.A, eigenvectors=plant.eigenvectors)
        assert setup.eigenvectors is None
        report = pbh_check(plant.A, v, "stabilizability", setup=setup)
        assert report == pbh_check(plant.A, v, "stabilizability")
        assert calls == []

    @pytest.mark.parametrize("size", [0.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_plant_constants_keep_the_bits(self, size):
        # test_deflation_near_the_ones_vector's placements. At size 0 every
        # mode but the zero mode decouples and the coupled modes' constants
        # are sliced from ``Plant.modal``; otherwise it serves whole. Either
        # way the gains are, to the bit, those of ``_modal_care`` on
        # constants taken afresh from the plant's spectrum.
        rng = np.random.default_rng(1801)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        ones = np.ones(16) / 4.0
        placement = Placement.normalized(
            ones + size * rng.standard_normal(16), ones + size * rng.standard_normal(16)
        )
        decoupled = np.abs(plant.eigenvectors.T @ placement.b_unit) <= riccati._DEFLATE_TOL
        assert np.count_nonzero(decoupled) == (15 if size == 0.0 else 0)
        gains = gain_pair(plant, placement)
        assert gains.fallback is None
        fresh = modal_basis(plant.eigenvalues, plant.eigenvectors)
        for v, P, res, loop in (
            (placement.b_unit, gains.K_tilde, gains.residual_K, gains.loop_K),
            (placement.c_unit, gains.Sigma_tilde, gains.residual_Sigma, gains.loop_Sigma),
        ):
            P_call, res_call, loop_call = riccati._modal_care(fresh, 0.5, fresh.basis.T @ v)
            assert np.array_equal(P, P_call) and res == res_call
            assert np.array_equal(loop.F, loop_call.F)
            for kept, taken in zip(loop.modes + loop.update, loop_call.modes + loop_call.update):
                assert np.array_equal(kept, taken)

    def test_plant_keeps_its_modal_constants(self):
        rng = np.random.default_rng(2554)
        plant = ring_laplacian_plant(rng, 6, 0.5)
        basis, lam, d, sums, gaps, separated, eye = plant.modal
        idx = np.argsort(np.abs(plant.eigenvalues))
        assert np.array_equal(np.abs(plant.eigenvalues[idx]), d) and np.all(np.diff(d) > 0.0)
        assert np.array_equal(lam, plant.eigenvalues[idx])
        assert np.array_equal(basis, plant.eigenvectors[:, idx])
        assert np.array_equal(np.diag(gaps), np.ones(6)) and separated
        assert np.array_equal(gaps - np.eye(6), lam[:, None] - lam)
        assert np.array_equal(sums, lam[:, None] + lam)
        assert np.array_equal(eye, np.eye(6))
        assert Plant(np.array([[0.0, 1.0], [0.0, -1.0]]), 0.5, 0.5).modal is None

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_plant_pbh_setup_keeps_the_report(self, monkeypatch, symmetric):
        # ``Plant.pbh`` is what each PBH test of the plant read of A alone:
        # with it a test takes only beta = Theta^T v and one dlasd4 root (or
        # SVD) per tested mode, and its report is the one taken without it,
        # to the bit.
        rng = np.random.default_rng(2555)
        if symmetric:
            plant = _symmetric_plant(rng, 12, (-2.0, 1.5), 0.5, 0.5)
        else:
            plant = Plant(_shifted_with_pair(rng, 12, 0.5), 0.5, 0.5)
        threshold, tested, eigenvectors = plant.pbh
        assert threshold == 1e-9 * (1.0 + la.norm(plant.A))
        assert [t[0] for t in tested] == [x for x in plant.eigenvalues if x.real >= -1e-9]
        assert eigenvectors is plant.eigenvectors
        calls = []
        monkeypatch.setattr(riccati, "pbh_setup", lambda *a: calls.append(a) or pbh_setup(*a))
        for v in (random_unit(rng, 12) for _ in range(5)):
            for mode in ("stabilizability", "detectability"):
                kept = pbh_check(plant.A, v, mode, setup=plant.pbh)
                setup = pbh_setup(plant.A, plant.eigenvalues, plant.eigenvectors)
                fresh = pbh_check(plant.A, v, mode, setup=setup)
                assert kept == fresh and len(tested) > 0
        assert calls == []
        pbh_check(plant.A, v, "stabilizability")  # without a setup it takes one
        assert len(calls) == 1
