from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    assert_unique_stable_top_pair,
    random_placement_for,
    random_symmetric_hurwitz,
    richardson_hessian,
    spaced_in_random_basis,
)

from lqg_codesign import (
    DimensionTooLarge,
    FlowOptions,
    NonNegativeEigenvalue,
    NotAnEquilibrium,
    Placement,
    Plant,
    SingularBlock,
    Spectrum,
    analytic_gains_at_v1,
    analytic_minimum,
    adjoint_pair,
    beta_gamma_coords,
    candidate_match_distance,
    cauchy_matrix,
    classify_candidates,
    classify_stability,
    cost_report,
    enumerate_equilibria_zero,
    gain_pair,
    gradient,
    hessian_matrix,
    is_equilibrium,
    phi,
    phi_bar,
    run_flow,
    xi_vector,
)
from lqg_codesign.equilibria import (
    DEGENERATE,
    KIND_COMMON,
    KIND_DISJOINT,
    STABILITY_MARGIN,
    STABLE,
    UNSTABLE,
    ZERO_EIGENVALUE_TOL,
    EquilibriumCandidate,
    _verdict,
    eq19_residual,
    zero_gain_field,
)


def spectrum_of(lams) -> Spectrum:
    return Spectrum.from_matrix(np.diag(np.asarray(lams, dtype=float)))


def exact_xi(lams, signs) -> list[Fraction]:
    """xi of diag(s) Psi diag(s) xi = lambda^2 by rational Gaussian elimination.

    The block is a sign congruence of a positive-definite Cauchy matrix, so
    elimination needs no pivoting.
    """
    lam = [Fraction(float(x)) for x in lams]
    s = [int(x) for x in signs]
    m = len(lam)
    rows = [
        [-s[i] * s[j] / (lam[i] + lam[j]) for j in range(m)] + [lam[i] ** 2]
        for i in range(m)
    ]
    for k in range(m):
        for r in range(k + 1, m):
            f = rows[r][k] / rows[k][k]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    xi = [Fraction(0)] * m
    for i in reversed(range(m)):
        tail = sum(rows[i][j] * xi[j] for j in range(i + 1, m))
        xi[i] = (rows[i][m] - tail) / rows[i][i]
    return xi


class TestSpectrum:
    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(0)
        A = random_symmetric_hurwitz(rng, 4)
        spec = Spectrum.from_matrix(A)
        assert np.all(np.diff(spec.Lambda) < 0)
        assert la.norm(spec.Theta.T @ spec.Theta - np.eye(4)) < 1e-12
        assert la.norm(spec.A - A) < 1e-10
        for j in range(4):
            col = spec.Theta[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Spectrum.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestIsEquilibrium:
    def test_top_pair_is_equilibrium_at_small_gains(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        e1 = np.array([1.0, 0.0])
        flag, residuals = is_equilibrium(plant, Placement(e1, e1), 1e-8)
        assert flag and np.all(residuals < 1e-12)

    def test_random_placement_is_not(self):
        rng = np.random.default_rng(3)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        flag, residuals = is_equilibrium(plant, random_placement_for(rng, 3), 1e-8)
        assert not flag and np.max(residuals) > 1e-8

    def test_scalar_always(self):
        plant = Plant(np.array([[-1.0]]), 2.0, 1.0)
        flag, residuals = is_equilibrium(
            plant, Placement(np.array([1.0]), np.array([-1.0])), 1e-12
        )
        assert flag and np.all(residuals == 0.0)


class TestCauchyMatrix:
    def test_two_by_two(self):
        psi = cauchy_matrix([-1.0, -2.0])
        assert np.allclose(psi, [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])

    def test_scalar(self):
        assert np.allclose(cauchy_matrix([-1.0]), [[0.5]])

    def test_positive_definite_for_random_negative_spectra(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            lam = -np.sort(rng.uniform(0.2, 5.0, size=5))
            assert np.min(np.linalg.eigvalsh(cauchy_matrix(lam))) > 0

    def test_rejects_nonnegative(self):
        with pytest.raises(NonNegativeEigenvalue):
            cauchy_matrix([-1.0, 0.0])


class TestBetaGamma:
    def test_top_eigenvector_coordinates(self):
        spec = spectrum_of([-1.0, -2.0])
        v1 = spec.eigenvector(0)
        coords = beta_gamma_coords(Placement(v1, v1), spec)
        assert np.allclose(coords.beta, [-1.0, 0.0], atol=1e-14)
        assert np.allclose(coords.gamma, [-1.0, 0.0], atol=1e-14)
        assert coords.support_beta == (0,)

    def test_disjoint_supports(self):
        spec = spectrum_of([-1.0, -2.0])
        coords = beta_gamma_coords(
            Placement(spec.eigenvector(0), spec.eigenvector(1)), spec
        )
        assert coords.support_beta == (0,)
        assert coords.support_gamma == (1,)

    def test_normalization_and_roundtrip(self):
        rng = np.random.default_rng(5)
        spec = Spectrum.from_matrix(random_symmetric_hurwitz(rng, 4))
        placement = random_placement_for(rng, 4)
        coords = beta_gamma_coords(placement, spec)
        lam2 = spec.Lambda**2
        assert abs(coords.beta @ (lam2 * coords.beta) - 1.0) < 1e-10
        assert abs(coords.gamma @ (lam2 * coords.gamma) - 1.0) < 1e-10
        recovered = spec.Theta @ (spec.Lambda * coords.beta)
        assert min(
            np.linalg.norm(recovered - placement.b_unit),
            np.linalg.norm(recovered + placement.b_unit),
        ) < 1e-12


class TestXiVector:
    def test_same_sign_pattern_is_infeasible(self):
        xi, exists = xi_vector([-1.0, -2.0], (0, 1), (1, 1))
        assert np.allclose(xi, [-78.0, 120.0], atol=1e-9)
        assert not exists

    def test_mixed_sign_pattern_exists(self):
        xi, exists = xi_vector([-1.0, -2.0], (0, 1), (1, -1))
        assert np.allclose(xi, [114.0, 168.0], atol=1e-9)
        assert exists

    def test_singleton_support(self):
        # Psi_11 xi = lambda_1^2 with Psi_11 = -1/(2 lambda_1): xi = -2 lambda_1^3
        xi, exists = xi_vector([-1.0, -2.0], (0,), (1,))
        assert np.allclose(xi, [2.0]) and exists
        xi, exists = xi_vector([-1.0, -2.0], (1,), (-1,))
        assert np.allclose(xi, [16.0]) and exists

    def test_input_validation(self):
        with pytest.raises(ValueError):
            xi_vector([-1.0, -2.0], (), ())
        with pytest.raises(ValueError):
            xi_vector([-1.0, -2.0], (0, 1), (1, 2))

    @pytest.mark.parametrize("n", [6, 8])
    def test_matches_exact_rational_elimination(self, n):
        lam = np.linspace(-0.5, -3.0, n)
        rng = np.random.default_rng(1800 + n)
        for _ in range(40):
            signs = rng.choice([-1.0, 1.0], size=n)
            exact = exact_xi(lam, signs)
            xi, exists = xi_vector(lam, range(n), signs)
            scale = max(abs(e) for e in exact)
            err = max(abs(Fraction(float(x)) - e) for x, e in zip(xi, exact)) / scale
            assert err <= 1e-10
            assert exists == all(e > 0 for e in exact)

    def test_batch_columns_equal_single_pattern_calls(self):
        A = spaced_in_random_basis(np.random.default_rng(1801), 9)
        lam = Spectrum.from_matrix(A).Lambda
        support = (0, 2, 3, 5, 8)
        patterns = np.array([[1.0, s1, s2, s3, s4] for s1 in (1, -1) for s2 in (1, -1)
                             for s3 in (1, -1) for s4 in (1, -1)]).T
        xis, exists = xi_vector(lam, support, patterns)
        assert xis.shape == patterns.shape and exists.shape == (patterns.shape[1],)
        assert 0 < exists.sum() < exists.size
        for k in range(patterns.shape[1]):
            xi, flag = xi_vector(lam, support, patterns[:, k])
            assert np.array_equal(xi, xis[:, k]) and flag == exists[k]

    def test_entry_within_its_bound_does_not_block_an_absent_pattern(self):
        # xi_3 is exactly 0 on this support, so no rounding bound decides its
        # sign, but xi_0 = -8126.25 rules the pattern out.
        lam = np.linspace(-0.5, -3.0, 11)
        support, signs = (0, 1, 2, 6, 7, 10), (1, 1, -1, -1, -1, -1)
        exact = exact_xi(lam[list(support)], signs)
        assert exact[3] == 0 and exact[0] == Fraction(-32505, 4)
        _, exists = xi_vector(lam, support, signs)
        assert not exists

    @pytest.mark.parametrize("entry,lo,hi", [(1, -1.44, -1.448), (2, -1.448, -1.4734)])
    def test_sign_change_between_adjacent_floats_never_gives_a_wrong_flag(
        self, entry, lo, hi
    ):
        # On Lambda = (v, -2, -3) with s = (1, -1, -1), entry 1 of xi turns
        # positive inside the first bracket and entry 2 negative inside the
        # second, so the existence flag flips in both.
        signs = (1.0, -1.0, -1.0)

        def exact_sign(v):
            return exact_xi([v, -2.0, -3.0], signs)[entry] > 0

        assert exact_sign(lo) != exact_sign(hi)
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exact_sign(mid) == exact_sign(lo) else (lo, mid)
        # Within a few ulps of the sign change the entry is far inside its
        # rounding bound, so both bracketing floats are undecided.
        for v in (lo, hi):
            with pytest.raises(SingularBlock, match="rounding bound"):
                xi_vector([v, -2.0, -3.0], (0, 1, 2), signs)
        decided = 0
        for k in range(1, 41):
            for v in (lo + k * (lo - hi), hi + k * (hi - lo)):
                lams = [v, -2.0, -3.0]
                try:
                    _, exists = xi_vector(lams, (0, 1, 2), signs)
                except SingularBlock:
                    continue
                assert exists == all(e > 0 for e in exact_xi(lams, signs)), v
                decided += 1
        assert decided > 0


class TestEnumeration:
    def test_two_dim_candidate_set(self):
        spec = spectrum_of([-1.0, -2.0])
        candidates = enumerate_equilibria_zero(spec)
        common = [c for c in candidates if c.kind == KIND_COMMON]
        disjoint = [c for c in candidates if c.kind == KIND_DISJOINT]
        assert [c.support for c in common] == [(0,), (1,), (0, 1)]
        assert common[2].sign_s == (1, -1)  # the (1, 1) pattern is infeasible
        assert len(disjoint) == 2

    def test_all_candidates_are_equilibria_of_the_rescaled_field(self):
        spec = spectrum_of([-1.0, -2.0, -4.0])
        plant = Plant(spec.A, 0.0, 0.0)
        for cand in enumerate_equilibria_zero(spec):
            flag, residuals = is_equilibrium(plant, cand.placement, 1e-8)
            assert flag, (cand.kind, cand.support, residuals)

    def test_singleton_candidate_is_top_eigenvector_pair(self):
        spec = spectrum_of([-1.0, -2.0])
        cand = enumerate_equilibria_zero(spec)[0]
        v1 = spec.eigenvector(0)
        assert min(
            np.linalg.norm(cand.placement.b_unit - v1),
            np.linalg.norm(cand.placement.b_unit + v1),
        ) < 1e-12

    def test_dimension_cap(self):
        lams = -np.linspace(1.0, 13.0, 13)
        with pytest.raises(DimensionTooLarge):
            enumerate_equilibria_zero(spectrum_of(lams))

    def test_requires_negative_spectrum(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = -(np.diag(W.sum(axis=1)) - W)  # has a zero eigenvalue
        with pytest.raises(NonNegativeEigenvalue):
            enumerate_equilibria_zero(Spectrum.from_matrix(A))


class TestEnvelope:
    def test_n12_spaced_spectrum(self):
        A = spaced_in_random_basis(np.random.default_rng(1900), 12)
        spec = Spectrum.from_matrix(A)
        candidates = classify_candidates(spec, enumerate_equilibria_zero(spec))
        assert sum(c.kind == KIND_COMMON for c in candidates) == 4148
        assert sum(c.kind == KIND_DISJOINT for c in candidates) == 132
        assert_unique_stable_top_pair(
            spec, [c.placement for c in candidates], [c.stability for c in candidates]
        )


class TestCommonSupportStructure:
    @pytest.mark.parametrize("seed", range(3))
    def test_solution_structure_on_random_spectra(self, seed):
        rng = np.random.default_rng(1400 + seed)
        lam = -np.sort(rng.uniform(0.3, 4.0, size=3))  # descending negatives
        if np.min(-np.diff(lam)) < 0.2:
            lam = np.array([-0.5, -1.5, -3.0])
        spec = spectrum_of(lam)
        for cand in enumerate_equilibria_zero(spec):
            if cand.kind != KIND_COMMON:
                continue
            coords = beta_gamma_coords(cand.placement, spec)
            beta, gamma = coords.beta, coords.gamma
            s = np.array(cand.sign_s, dtype=float)
            # beta = s * gamma and equal multipliers
            assert np.linalg.norm(beta - s * gamma) < 1e-8
            assert abs(coords.mu_beta - coords.mu_gamma) < 1e-8
            # beta*beta proportional to xi on the support
            idx = np.array(cand.support)
            xi = np.array(cand.xi)
            ratio = (beta[idx] ** 2) / xi
            assert np.max(np.abs(ratio - ratio[0])) < 1e-8 * ratio[0]
            # the sign-group orbit solves the same equations with equal potential
            base_residual = eq19_residual(beta, gamma, spec)
            base_phibar = phi_bar(Plant(spec.A, 0.0, 0.0), cand.placement)
            flip = np.ones(spec.n)
            flip[idx[0]] = -1.0
            flipped_beta, flipped_gamma = flip * beta, flip * gamma
            assert eq19_residual(flipped_beta, flipped_gamma, spec) < 1e-8
            moved = Placement.normalized(
                spec.Theta @ (spec.Lambda * flipped_beta),
                spec.Theta @ (spec.Lambda * flipped_gamma),
            )
            assert abs(phi_bar(Plant(spec.A, 0.0, 0.0), moved) - base_phibar) < 1e-10
            assert base_residual < 1e-8


class TestClassifyStability:
    def test_top_pair_stable_at_small_gains(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        e1 = np.array([1.0, 0.0])
        eigs, verdict = classify_stability(plant, Placement(e1, e1))
        assert verdict == STABLE
        assert np.all(np.diff(eigs) <= 0)

    def test_disjoint_pair_is_not_stable_and_maximizes_phi_bar(self):
        spec = spectrum_of([-1.0, -2.0])
        plant = Plant(spec.A, 0.0, 0.0)
        placement = Placement(spec.eigenvector(0), spec.eigenvector(1))
        eigs, verdict = classify_stability(plant, placement)
        assert verdict in (UNSTABLE, DEGENERATE)
        assert abs(phi_bar(plant, placement)) < 1e-10

    def test_scalar_dimension_is_stable(self):
        plant = Plant(np.array([[-1.0]]), 0.5, 0.5)
        placement = Placement(np.array([1.0]), np.array([1.0]))
        eigs, verdict = classify_stability(plant, placement)
        assert verdict == STABLE and eigs.size == 0
        assert hessian_matrix(plant, placement).shape == (0, 0)

    def test_raw_hessian_is_nearly_symmetric(self):
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.0, 0.0)
        e1 = np.array([1.0, 0.0, 0.0])
        H = hessian_matrix(plant, Placement(e1, e1))
        assert la.norm(H - H.T, "fro") / la.norm(H, "fro") < 1e-4

    def test_rejects_non_equilibrium(self):
        rng = np.random.default_rng(11)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        with pytest.raises(NotAnEquilibrium):
            classify_stability(plant, random_placement_for(rng, 3))

    @pytest.mark.parametrize("lams", [(-0.6, -1.7), (-0.4, -1.2, -2.5), (-0.5, -1.1, -2.0, -3.2)])
    def test_unique_stable_candidate_is_top_pair(self, lams):
        spec = spectrum_of(lams)
        candidates = classify_candidates(spec, enumerate_equilibria_zero(spec))
        stable = [c for c in candidates if c.stability == STABLE]
        assert len(stable) == 1
        assert stable[0].kind == KIND_COMMON
        assert stable[0].support == (0,)
        for cand in candidates:
            if cand.kind == KIND_DISJOINT:
                assert cand.stability != STABLE


def ring_laplacian_plant(rng: np.random.Generator, n: int, gain: float) -> Plant:
    """A = -L for a weighted ring with n/2 random chords (weights 0.5-1.5)."""
    weights = np.zeros((n, n))
    for i in range(n):
        weights[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
    for _ in range(n // 2):
        i, j = rng.choice(n, 2, replace=False)
        weights[i, j] = rng.uniform(0.5, 1.5)
    weights = weights + weights.T
    return Plant(weights - np.diag(weights.sum(axis=1)), gain, gain)


class TestExactHessian:
    @pytest.mark.parametrize("case", ["laplacian16", "nonsymmetric3", "filter_only"])
    def test_matches_richardson_off_critical(self, case):
        rng = np.random.default_rng(1800)
        if case == "laplacian16":
            plant = ring_laplacian_plant(rng, 16, 0.5)
        elif case == "nonsymmetric3":
            A = [[-1.0, 0.2, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]]
            plant = Plant(np.array(A), 0.5, 0.5)
        else:  # eps = 0 < delta: the regulator loop is A itself
            plant = Plant(spaced_in_random_basis(rng, 5), 0.0, 0.8)
        placement = random_placement_for(rng, plant.n)
        H = hessian_matrix(plant, placement)
        H_fd = richardson_hessian(plant, placement)
        # Off critical: there the Jacobian of the projected field is not
        # symmetric, so every term of it is checked.
        assert gradient(plant, placement).norm > 0.05 * la.norm(H_fd)
        assert la.norm(H - H_fd) <= 1e-8 * la.norm(H_fd)

    def test_zero_gain_matches_closed_form_on_every_candidate(self):
        spec = Spectrum.from_matrix(spaced_in_random_basis(np.random.default_rng(6), 6))
        plant = Plant(spec.A, 0.0, 0.0)
        field = zero_gain_field(spec)
        candidates = enumerate_equilibria_zero(spec)
        assert len(candidates) == 93
        for cand in candidates:
            b, c = cand.placement.b_unit, cand.placement.c_unit
            eigs, verdict = _verdict(hessian_matrix(plant, cand.placement))
            eigs_cf, verdict_cf = _verdict(field(b, c)[3])
            assert np.max(np.abs(eigs - eigs_cf)) <= 1e-12 * np.max(np.abs(eigs_cf))
            assert verdict == verdict_cf

    def test_symmetric_at_flow_optimum(self):
        rng = np.random.default_rng(1801)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        trace = run_flow(plant, random_placement_for(rng, 16), FlowOptions())
        assert trace.status == "converged"
        H = hessian_matrix(plant, trace.final)
        assert la.norm(H - H.T) <= 1e-12 * la.norm(H)
        assert _verdict(H)[1] == STABLE

    def test_report_is_reused(self):
        rng = np.random.default_rng(1802)
        plant = Plant(random_symmetric_hurwitz(rng, 4), 0.3, 0.6)
        placement = random_placement_for(rng, 4)
        report = cost_report(plant, placement)
        H = hessian_matrix(plant, placement, report=report)
        assert np.array_equal(H, hessian_matrix(plant, placement))


class TestZeroGainField:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_matches_general_gradient_and_phi_bar(self, n):
        rng = np.random.default_rng(1600 + n)
        A = spaced_in_random_basis(rng, n)
        plant = Plant(A, 0.0, 0.0)
        field = zero_gain_field(Spectrum.from_matrix(A))
        for _ in range(4):
            # Off the sphere: the field normalizes its arguments.
            b = rng.uniform(0.5, 2.0) * random_placement_for(rng, n).b_unit
            c = rng.uniform(0.5, 2.0) * random_placement_for(rng, n).c_unit
            placement = Placement.normalized(b, c)
            ref = gradient(plant, placement)
            ref_phi_bar = phi_bar(plant, placement)
            g_b, g_c, field_phi_bar, H = field(b, c)
            scale = max(la.norm(ref.g_b), la.norm(ref.g_c), abs(ref_phi_bar))
            assert la.norm(g_b - ref.g_b) <= 1e-10 * scale
            assert la.norm(g_c - ref.g_c) <= 1e-10 * scale
            assert abs(field_phi_bar - ref_phi_bar) <= 1e-10 * abs(ref_phi_bar)
            assert H.shape == (2 * (n - 1), 2 * (n - 1))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_hessian_is_symmetric(self, n):
        rng = np.random.default_rng(1650 + n)
        spec = Spectrum.from_matrix(spaced_in_random_basis(rng, n))
        field = zero_gain_field(spec)
        placements = [random_placement_for(rng, n) for _ in range(4)]
        candidates = enumerate_equilibria_zero(spec)
        placements += [c.placement for c in candidates[:: max(1, n)]]
        for placement in placements:
            H = field(placement.b_unit, placement.c_unit)[3]
            assert la.norm(H - H.T, "fro") <= 1e-14 * la.norm(H, "fro")

    def test_classification_matches_general_path(self):
        A = spaced_in_random_basis(np.random.default_rng(1700), 4)
        spec = Spectrum.from_matrix(A)
        plant = Plant(A, 0.0, 0.0)
        candidates = classify_candidates(spec, enumerate_equilibria_zero(spec))
        assert len(candidates) == 27
        for cand in candidates:
            _, verdict = classify_stability(plant, cand.placement)
            assert cand.stability == verdict
            H = richardson_hessian(plant, cand.placement)
            eigs = np.sort(la.eigvalsh(0.5 * (H + H.T)))[::-1]
            # Interior eigenvalues may be roundoff of an exact zero, so the
            # error is measured against each Hessian's largest eigenvalue.
            diff = np.max(np.abs(np.array(cand.hessian_eigs) - eigs))
            assert diff <= 1e-8 * np.max(np.abs(eigs))

    def test_rejects_non_equilibrium(self):
        rng = np.random.default_rng(1701)
        spec = Spectrum.from_matrix(spaced_in_random_basis(rng, 3))
        placement = random_placement_for(rng, 3)
        g_b, g_c, _, _ = zero_gain_field(spec)(placement.b_unit, placement.c_unit)
        assert max(la.norm(g_b), la.norm(g_c)) > 1e-8
        cand = EquilibriumCandidate(placement, KIND_COMMON, (0,), (1, 0, 0), None)
        with pytest.raises(NotAnEquilibrium):
            classify_candidates(spec, [cand])


class TestAnalyticFormulas:
    def test_minimum_scalar(self):
        spec = spectrum_of([-1.0])
        assert abs(analytic_minimum(spec, 3.0, 3.0) - 4.0 / 9.0) < 1e-14

    def test_minimum_zero_gain_two_dim(self):
        spec = spectrum_of([-1.0, -2.0])
        assert abs(analytic_minimum(spec, 0.0, 0.0) - 0.75) < 1e-14

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.0), (0.01, 0.01), (1.0, 0.3)])
    def test_minimum_matches_phi_at_top_pair(self, eps, delta):
        rng = np.random.default_rng(12)
        for _ in range(3):
            A = random_symmetric_hurwitz(rng, 3)
            spec = Spectrum.from_matrix(A)
            v1 = spec.eigenvector(0)
            value = phi(Plant(A, eps, delta), Placement(v1, v1))
            target = analytic_minimum(spec, eps, delta)
            assert abs(value - target) / abs(target) < 1e-9

    def test_gain_diagonals_scalar_values(self):
        spec = spectrum_of([-1.0])
        K_d, S_d, M_d, N_d = analytic_gains_at_v1(spec, 3.0, 3.0)
        assert abs(K_d[0] - 1.0 / 3.0) < 1e-14
        assert abs(M_d[0] - 1.0 / 36.0) < 1e-14

    def test_gain_diagonals_match_solvers(self):
        rng = np.random.default_rng(13)
        A = random_symmetric_hurwitz(rng, 4)
        spec = Spectrum.from_matrix(A)
        eps, delta = 0.7, 0.2
        plant = Plant(A, eps, delta)
        v1 = spec.eigenvector(0)
        placement = Placement(v1, v1)
        gains = gain_pair(plant, placement)
        adjoints = adjoint_pair(plant, placement, gains)
        K_d, S_d, M_d, N_d = analytic_gains_at_v1(spec, eps, delta)
        Theta = spec.Theta
        assert np.max(np.abs(Theta.T @ gains.K @ Theta - np.diag(K_d))) < 1e-9
        assert np.max(np.abs(Theta.T @ gains.Sigma @ Theta - np.diag(S_d))) < 1e-9
        assert np.max(np.abs(Theta.T @ adjoints.M @ Theta - np.diag(M_d))) < 1e-9
        assert np.max(np.abs(Theta.T @ adjoints.N @ Theta - np.diag(N_d))) < 1e-9

    def test_laplacian_zero_mode_requires_positive_gains(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = Spectrum.from_matrix(-(np.diag(W.sum(axis=1)) - W))
        with pytest.raises(ValueError):
            analytic_minimum(spec, 0.0, 0.5)
        value = analytic_minimum(spec, 0.04, 0.04)
        assert value == pytest.approx(2.0 / 0.2 + 1.0 / 4.0)

    def test_closed_forms_survive_positive_roundoff_zero_mode(self):
        # A = -L for a weighted 4-node graph; eigh returns its zero
        # eigenvalue as a tiny positive number instead of 0.
        edges = [
            (0, 2, 1.9), (0, 3, 1.9), (1, 2, 1.9), (0, 1, 1.3), (2, 3, 0.7), (1, 3, 2.3)
        ]
        W = np.zeros((4, 4))
        for i, j, w in edges:
            W[i, j] = W[j, i] = w
        A = -(np.diag(W.sum(axis=1)) - W)
        spec = Spectrum.from_matrix(A)
        assert 0.0 < spec.Lambda[0] <= ZERO_EIGENVALUE_TOL
        eps, delta = 0.04, 0.09
        plant = Plant(A, eps, delta)
        ones = np.full(4, 0.5)
        value = phi(plant, Placement(ones, ones))
        assert analytic_minimum(spec, eps, delta) == pytest.approx(value, rel=1e-9)
        gains = gain_pair(plant, Placement(ones, ones))
        K_d, S_d, _, _ = analytic_gains_at_v1(spec, eps, delta)
        Theta = spec.Theta
        assert np.max(np.abs(Theta.T @ gains.K @ Theta - np.diag(K_d))) < 1e-9
        assert np.max(np.abs(Theta.T @ gains.Sigma @ Theta - np.diag(S_d))) < 1e-9


class TestCandidateMatching:
    def test_candidate_matches_itself_after_random_orbit_action(self):
        spec = spectrum_of([-1.0, -2.0, -4.0])
        candidates = enumerate_equilibria_zero(spec)
        rng = np.random.default_rng(14)
        for cand in candidates:
            if cand.kind != KIND_COMMON:
                continue
            coords = beta_gamma_coords(cand.placement, spec)
            signs = np.where(rng.standard_normal(3) > 0, 1.0, -1.0)
            moved = Placement.normalized(
                spec.Theta @ (spec.Lambda * (signs * coords.beta)),
                -spec.Theta @ (spec.Lambda * (signs * coords.gamma)),
            )
            assert candidate_match_distance(moved, cand, spec) < 1e-12


class TestSupportDichotomy:
    @pytest.mark.parametrize("seed", range(4))
    def test_zero_gain_flow_limits_have_identical_or_disjoint_supports(self, seed):
        # Run to the numerical floor of the potential; support entries are
        # thresholded at 1e-8 after orbit canonicalization.
        from lqg_codesign import FlowOptions, run_flow
        from lqg_codesign.equilibria import orbit_canonical_coords
        from conftest import random_placement_for as rp

        rng = np.random.default_rng(1500 + seed)
        spec = spectrum_of([-0.7, -1.6, -3.1])
        plant = Plant(spec.A, 0.0, 0.0)
        opts = FlowOptions(grad_tol=1e-11, max_iters=800, rescaled=True)
        trace = run_flow(plant, rp(rng, 3), opts)
        assert trace.iterates[-1].grad_norm < 1e-7
        beta, gamma = orbit_canonical_coords(trace.final, spec)
        support_b = frozenset(np.flatnonzero(np.abs(beta) > 1e-8))
        support_c = frozenset(np.flatnonzero(np.abs(gamma) > 1e-8))
        assert support_b == support_c or not (support_b & support_c)
