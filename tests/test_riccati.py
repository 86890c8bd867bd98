import json

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    integral_lyapunov_solve,
    kron_lyapunov_solve,
    random_placement_for,
    random_symmetric_hurwitz,
)

from lqg_codesign import (
    CodesignError,
    NoStabilizingSolution,
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
from lqg_codesign.riccati import care_residual, is_hurwitz, lyapunov_residual


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
        assert is_hurwitz(A - W @ P)
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
            with pytest.raises(CodesignError):
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

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
    @pytest.mark.parametrize("offset", [-1e-11, 1e-11])
    def test_is_hurwitz_matches_eigenvalues(self, n, offset):
        threshold = -riccati.HURWITZ_MARGIN
        F = _shifted_with_pair(np.random.default_rng(400 + n), n, threshold + offset)
        expected = offset < 0.0
        assert (np.max(np.linalg.eigvals(F).real) < threshold) == expected
        assert is_hurwitz(F) == expected


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
