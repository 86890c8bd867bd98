import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    orbit_pairing,
    random_placement_for,
    random_skew,
    random_symmetric_hurwitz,
    rotate_placement,
    scalar_plant,
    scipy_phi_oracle,
)

from lqg_codesign import (
    CodesignError,
    Placement,
    Plant,
    cost_report,
    phi,
    phi_bar,
    phi_gain_sensitivity,
    pbh_check,
)
from lqg_codesign import riccati
from lqg_codesign.verify import richardson_derivative


class TestPhi:
    def test_scalar_closed_form(self):
        plant, placement = scalar_plant(3.0, 3.0)
        assert abs(phi(plant, placement) - 4.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_gain_placement_independent(self, seed):
        # K = Sigma = diag(1/2, 1/4): phi = 2 tr(A K Sigma) + tr K + tr Sigma = 3/4
        rng = np.random.default_rng(seed)
        plant = Plant(np.diag([-1.0, -2.0]), 0.0, 0.0)
        assert abs(phi(plant, random_placement_for(rng, 2)) - 0.75) < 1e-12

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(42)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 1.2)
        placement = random_placement_for(rng, 3)
        base = phi(plant, placement)
        assert phi(plant, Placement(-placement.b_unit, placement.c_unit)) == pytest.approx(base, abs=1e-13)
        assert phi(plant, Placement(placement.b_unit, -placement.c_unit)) == pytest.approx(base, abs=1e-13)

    def test_positive_on_random_plants(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            plant = Plant(random_symmetric_hurwitz(rng, n), rng.uniform(0, 1), rng.uniform(0, 1))
            assert phi(plant, random_placement_for(rng, n)) > 0.0


class TestPhiBar:
    def test_scalar_zero_gain_value(self):
        # M = N = 1/8: phi_bar = 2 * (-1) * (1/64) = -1/32
        plant, placement = scalar_plant(0.0, 0.0)
        assert abs(phi_bar(plant, placement) + 1.0 / 32.0) < 1e-14

    def test_disjoint_supports_give_zero(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.0, 0.0)
        placement = Placement(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(phi_bar(plant, placement)) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_nonpositive_everywhere_sampled(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 5))
        plant = Plant(
            random_symmetric_hurwitz(rng, n), rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)
        )
        assert phi_bar(plant, random_placement_for(rng, n)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_three_formulas_agree_at_zero_gain(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(2, 5))
        plant = Plant(random_symmetric_hurwitz(rng, n), 0.0, 0.0)
        placement = random_placement_for(rng, n)
        report = cost_report(plant, placement)
        K, S = report.gains.K, report.gains.Sigma
        M, N = report.adjoints.M, report.adjoints.N
        via_kbkm = -float(np.trace(K @ placement.B @ K @ M))
        via_scsn = -float(np.trace(S @ placement.C @ S @ N))
        scale = max(abs(report.phi_bar), 1e-12)
        assert abs(report.phi_bar - via_kbkm) / scale < 1e-9
        assert abs(report.phi_bar - via_scsn) / scale < 1e-9


class TestGainSensitivity:
    def test_scalar_closed_form_derivative(self):
        # phi(r, s) = (u + v)/((u + 1)(v + 1)) with u = sqrt(1 + r), v = sqrt(1 + s);
        # dphi/dr = (1 - v) / ((u + 1)^2 (v + 1)) / (2u) = -1/108 at r = s = 3.
        plant, placement = scalar_plant(3.0, 3.0)
        dr, ds = phi_gain_sensitivity(plant, placement)
        assert abs(dr + 1.0 / 108.0) < 1e-12
        assert abs(ds + 1.0 / 108.0) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_nonpositive_and_match_fd(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 4))
        A = random_symmetric_hurwitz(rng, n)
        placement = random_placement_for(rng, n)
        r, s = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        dr, ds = phi_gain_sensitivity(Plant(A, r, s), placement)
        assert dr <= 1e-10 and ds <= 1e-10
        h_r, h_s = min(1e-2 * (1 + r), 0.4 * r), min(1e-2 * (1 + s), 0.4 * s)
        fd_r = richardson_derivative(lambda h: phi(Plant(A, r + h, s), placement), h_r)
        fd_s = richardson_derivative(lambda h: phi(Plant(A, r, s + h), placement), h_s)
        scale = max(abs(dr), abs(ds), 1e-10)
        assert abs(dr - fd_r) / scale < 1e-6
        assert abs(ds - fd_s) / scale < 1e-6

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_one_pairing_matches_the_dense_traces(self, symmetric):
        # phi, phi_bar and both sensitivities are one pairing 2 tr(A^T X Y),
        # taken in the pair's coordinates: A's on a non-symmetric plant (here
        # open-loop unstable), the eigenbasis on a symmetric one. Each must
        # match its dense trace formula on the A-basis matrices, with K' and
        # Sigma' from the loops the pair kept. phi_bar and the sensitivities
        # are differences of terms, so they are judged on those terms' size.
        rng = np.random.default_rng(2)
        n = 8
        if symmetric:
            A = random_symmetric_hurwitz(rng, n)
        else:
            A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.8 * np.eye(n)
            assert np.max(np.linalg.eigvals(A).real) > 0.0
        plant, placement = Plant(A, 0.6, 0.9), random_placement_for(rng, n)
        report = cost_report(plant, placement)
        g, adj, eye = report.gains, report.adjoints, np.eye(n)
        assert (g.basis is None) != symmetric and g.fallback is None
        K, S, M, N = g.K, g.Sigma, adj.M, adj.N
        S_forcing, K_forcing = riccati.adjoint_forcings(g, placement)
        K_prime = riccati._to_plant(g.basis, -g.loop_K.solve(K_forcing, transpose=True)[0])
        S_prime = riccati._to_plant(g.basis, -g.loop_Sigma.solve(S_forcing, transpose=True)[0])
        dr, ds = phi_gain_sensitivity(plant, placement)
        a = la.norm(A)
        for got, dense, scale in (
            (report.phi, np.trace(A.T @ K @ S + S @ K @ A + K + S), report.phi),
            (report.phi_bar, np.trace(A.T @ M @ N + N @ M @ A), 2 * a * la.norm(M) * la.norm(N)),
            (
                dr,
                np.trace((A @ S + S @ A.T + eye) @ K_prime),
                2 * a * la.norm(S) * la.norm(K_prime) + abs(np.trace(K_prime)),
            ),
            (
                ds,
                np.trace((A.T @ K + K @ A + eye) @ S_prime),
                2 * a * la.norm(K) * la.norm(S_prime) + abs(np.trace(S_prime)),
            ),
        ):
            assert abs(got - dense) <= 1e-13 * scale


class TestDirectionalDerivative:
    def test_zero_tangent(self):
        rng = np.random.default_rng(1)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        placement = random_placement_for(rng, 3)
        report = cost_report(plant, placement)
        value = orbit_pairing(report, np.zeros((3, 3)), np.zeros((3, 3)))
        assert value == 0.0

    def test_scalar_dimension_is_trivial(self):
        plant, placement = scalar_plant(3.0, 3.0)
        report = cost_report(plant, placement)
        assert orbit_pairing(report, np.zeros((1, 1)), np.zeros((1, 1))) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_orbit_finite_difference(self, seed):
        rng = np.random.default_rng(800 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), rng.uniform(0.1, 1), rng.uniform(0.1, 1))
        placement = random_placement_for(rng, 3)
        omega_b, omega_c = random_skew(rng, 3), random_skew(rng, 3)
        analytic = orbit_pairing(cost_report(plant, placement), omega_b, omega_c)
        fd = richardson_derivative(
            lambda t: phi(plant, rotate_placement(placement, omega_b, omega_c, t)), 1e-2
        )
        assert abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-10) < 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_gain_is_the_first_variation_of_phi_bar(self, seed):
        # At eps = delta = 0 phi ignores the placement and the descent acts on
        # phi_bar; the pairing, read off one cost report, is its derivative.
        rng = np.random.default_rng(820 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.0, 0.0)
        placement = random_placement_for(rng, 3)
        omega_b, omega_c = random_skew(rng, 3), random_skew(rng, 3)
        report = cost_report(plant, placement)
        analytic = orbit_pairing(report, omega_b, omega_c)
        assert analytic == orbit_pairing(cost_report(plant, placement), omega_b, omega_c)
        fd = richardson_derivative(
            lambda t: phi_bar(plant, rotate_placement(placement, omega_b, omega_c, t)),
            1e-2,
        )
        assert abs(fd) > 1e-6
        assert abs(analytic - fd) / max(abs(analytic), abs(fd)) < 1e-7


class TestCovariance:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (0.4, 0.9)])
    def test_orthogonal_change_of_basis(self, eps, delta):
        rng = np.random.default_rng(9)
        A = random_symmetric_hurwitz(rng, 3)
        placement = random_placement_for(rng, 3)
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = phi(Plant(A, eps, delta), placement)
        moved = phi(
            Plant(U @ A @ U.T, eps, delta),
            Placement(U @ placement.b_unit, U @ placement.c_unit),
        )
        assert abs(base - moved) / abs(base) < 1e-9


def _near_pbh_direction(rng, M, lo, hi):
    """Unit v with PBH margin of (M, v) in [lo, hi]: v leaves the boundary
    direction orthogonal to a left eigenvector of the rightmost eigenvalue
    along its real part, and bisection picks how far. None if it saturates."""
    eigs, left = la.eig(M, left=True, right=False)
    w = left[:, np.argmax(eigs.real)]
    basis = la.orth(np.column_stack([w.real, w.imag]))
    v0 = rng.standard_normal(M.shape[0])
    boundary = v0 - basis @ (basis.T @ v0)
    away = basis[:, 0]

    def margin(t):
        v = boundary / la.norm(boundary) + t * away
        v = v / la.norm(v)
        return pbh_check(M, v, "stabilizability").min_margin, v

    low, high = 0.0, 1.0
    if margin(high)[0] < lo:
        return None
    for _ in range(60):
        mid = 0.5 * (low + high)
        m, v = margin(mid)
        if lo <= m <= hi:
            return v
        low, high = (mid, high) if m < lo else (low, mid)
    return None


class TestNearPBHEnvelope:
    def test_certified_or_typed_error_at_n50(self):
        # Open-loop-unstable n = 50 plants, b and c each at PBH margin
        # 0.005-0.02: the cost either matches scipy's solvers or raises a
        # typed error.
        rng = np.random.default_rng(5050)
        n, eps, delta = 50, 2.0, 2.0
        certified = 0
        draws = 0
        while draws < 40:
            A = rng.standard_normal((n, n)) / np.sqrt(n) - 0.8 * np.eye(n)
            if np.max(np.linalg.eigvals(A).real) <= 0.0:
                continue
            lo, hi = 0.005, 0.02
            b = _near_pbh_direction(rng, A, lo, hi)
            c = _near_pbh_direction(rng, A.T, lo, hi)
            if b is None or c is None:
                continue
            draws += 1
            try:
                report = cost_report(Plant(A, eps, delta), Placement(b, c))
            except CodesignError:
                continue
            phi_ref, phi_bar_ref = scipy_phi_oracle(A, eps, delta, b, c)
            assert abs(report.phi - phi_ref) <= 1e-8 * abs(phi_ref)
            assert abs(report.phi_bar - phi_bar_ref) <= 1e-8 * abs(phi_bar_ref)
            certified += 1
        assert certified >= 30, certified
