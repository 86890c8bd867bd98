import itertools
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    assert_unique_stable_top_pair,
    random_placement_for,
    random_symmetric_hurwitz,
    random_unit,
    richardson_hessian,
    ring_laplacian_plant,
    spaced_in_random_basis,
)
from oracles import beta_gamma_coords, candidate_match_distance

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
from lqg_codesign import equilibria
from lqg_codesign.equilibria import (
    DEGENERATE,
    KIND_COMMON,
    KIND_DISJOINT,
    STABILITY_MARGIN,
    STABLE,
    UNSTABLE,
    ZERO_EIGENVALUE_TOL,
    EquilibriumCandidate,
    _tangent_basis,
    _verdict,
    eq19_residual,
    zero_gain_field,
)
from lqg_codesign.cost import drive_matrices
from lqg_codesign.riccati import ClosedLoop


def spectrum_of(lams) -> Spectrum:
    return Spectrum.from_matrix(np.diag(np.asarray(lams, dtype=float)))


def eigh_descending_signed(A) -> tuple[np.ndarray, np.ndarray]:
    """(Theta, Lambda) by the recipe ``Spectrum`` documents, written out:
    eigh of the symmetric part, columns reordered descending, each column's
    largest-magnitude entry made positive."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (A + A.T))
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    for j in range(eigvecs.shape[1]):
        col = eigvecs[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            eigvecs[:, j] = -col
    return eigvecs, eigvals


def assert_same_bits(spec: Spectrum, Theta: np.ndarray, Lambda: np.ndarray) -> None:
    """Same bits and the same memory layout (strides, C/F order) as the reference."""
    for got, want in ((spec.Theta, Theta), (spec.Lambda, Lambda)):
        assert got.strides == want.strides
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.tobytes(order="A") == want.tobytes(order="A")


def leading_plus_patterns(size: int) -> np.ndarray:
    """Every +/-1 pattern over a support of ``size`` with first entry +1, one
    per column, in the order ``enumerate_equilibria_zero`` takes them."""
    tails = itertools.product((1.0, -1.0), repeat=size - 1)
    return np.array([(1.0,) + tail for tail in tails]).T


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

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_of_plant_is_from_matrix_bitwise(self, n):
        A = spaced_in_random_basis(np.random.default_rng(40 + n), n)
        plant = Plant(A, 0.0, 0.0)
        assert plant.eigenvectors is not None
        reference = eigh_descending_signed(A)
        assert_same_bits(Spectrum.of(plant), *reference)
        assert_same_bits(Spectrum.from_matrix(plant.A), *reference)

    def test_of_plant_symmetric_only_to_rounding(self):
        rng = np.random.default_rng(41)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = basis @ np.diag(np.linspace(-0.5, -3.0, 6)) @ basis.T
        plant = Plant(A, 0.0, 0.0)
        assert not np.array_equal(A, A.T) and plant.eigenvectors is None
        reference = eigh_descending_signed(A)
        assert_same_bits(Spectrum.of(plant), *reference)
        assert_same_bits(Spectrum.from_matrix(A), *reference)

    def test_repeated_eigenvalues_are_a_spectrum_but_not_enumerable(self):
        spec = Spectrum.of(Plant(np.diag([-1.0, -2.0, -1.0]), 0.0, 0.0))
        assert spec.Lambda.tolist() == [-1.0, -1.0, -2.0]
        with pytest.raises(ValueError, match="distinct"):
            enumerate_equilibria_zero(spec)
        with pytest.raises(ValueError, match="descending"):
            Spectrum(np.eye(2), np.array([-2.0, -1.0]))


class TestIsEquilibrium:
    def test_top_pair_is_equilibrium_at_small_gains(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        e1 = np.array([1.0, 0.0])
        flag, residuals = is_equilibrium(cost_report(plant, Placement(e1, e1)), 1e-8)
        assert flag and np.all(residuals < 1e-12)

    def test_random_placement_is_not(self):
        rng = np.random.default_rng(3)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        report = cost_report(plant, random_placement_for(rng, 3))
        flag, residuals = is_equilibrium(report, 1e-8)
        assert not flag and np.max(residuals) > 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_residuals_are_eigenvector_defects(self, seed):
        # res_b = |K M K b - (b^T K M K b) b| and res_c likewise with
        # Sigma N Sigma, from the solves themselves.
        rng = np.random.default_rng(70 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 4), 0.4, 0.9)
        placement = random_placement_for(rng, 4)
        report = cost_report(plant, placement)
        K, Sigma = report.gains.K, report.gains.Sigma
        expected = []
        for S, v in (
            (K @ report.adjoints.M @ K, placement.b_unit),
            (Sigma @ report.adjoints.N @ Sigma, placement.c_unit),
        ):
            Sv = 0.5 * (S + S.T) @ v
            expected.append(np.linalg.norm(Sv - (v @ Sv) * v))
        residuals = is_equilibrium(report, 1e-8)[1]
        assert residuals == pytest.approx(expected, rel=1e-12)
        assert min(expected) > 1e-8

    def test_scalar_always(self):
        plant = Plant(np.array([[-1.0]]), 2.0, 1.0)
        placement = Placement(np.array([1.0]), np.array([-1.0]))
        flag, residuals = is_equilibrium(cost_report(plant, placement), 1e-12)
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

    def test_stacked_supports_equal_single_support_calls(self):
        # Every support of one size in one call: each support's xi and flags
        # keep the bits of its own call, for a stack of patterns and for one.
        A = spaced_in_random_basis(np.random.default_rng(2901), 9)
        lam = Spectrum.from_matrix(A).Lambda
        supports = np.array(list(itertools.combinations(range(9), 5)))
        patterns = leading_plus_patterns(5)
        xis, exists = xi_vector(lam, supports, patterns)
        assert xis.shape == (len(supports),) + patterns.shape
        assert exists.shape == (len(supports), patterns.shape[1])
        assert 0 < exists.sum() < exists.size
        one_xi, one_flag = xi_vector(lam, supports, patterns[:, 3])
        assert one_xi.shape == (len(supports), 5) and one_flag.shape == (len(supports),)
        for s, support in enumerate(supports):
            xi, flags = xi_vector(lam, tuple(support), patterns)
            assert np.array_equal(xi, xis[s]) and np.array_equal(flags, exists[s])
            assert np.array_equal(one_xi[s], xis[s, :, 3]) and one_flag[s] == exists[s, 3]

    def test_undecided_sign_in_a_stack_names_its_support_and_pattern(self):
        # Entry 1 of xi on (v, -2, -3), s = (1, -1, -1), changes sign between
        # two adjacent floats near v = -1.44; the triple sits at indices
        # (1, 2, 3) of a spectrum whose other triples decide every sign.
        signs = (1.0, -1.0, -1.0)
        lo, hi = -1.44, -1.448

        def exact_sign(v):
            return exact_xi([v, -2.0, -3.0], signs)[1] > 0

        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exact_sign(mid) == exact_sign(lo) else (lo, mid)
        lam = [-0.2, lo, -2.0, -3.0]
        supports = np.array(list(itertools.combinations(range(4), 3)))
        named = r"support \(1, 2, 3\), pattern \[ 1\. -1\. -1\.\]"
        with pytest.raises(SingularBlock, match=named):
            xi_vector(lam, supports, leading_plus_patterns(3))
        with pytest.raises(SingularBlock, match=named):
            enumerate_equilibria_zero(Spectrum(np.eye(4), np.array(lam)))

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
            flag, residuals = is_equilibrium(cost_report(plant, cand.placement), 1e-8)
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

    def test_candidate_failing_eq19_is_a_singular_block(self, monkeypatch):
        # A positive xi certificate whose candidate then misses the coupled
        # eigen-equations is refused, not emitted.
        monkeypatch.setattr(equilibria, "eq19_residual", lambda *args: 1.0)
        with pytest.raises(SingularBlock, match="failed verification"):
            enumerate_equilibria_zero(spectrum_of([-1.0, -2.0]))


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
        eigs, verdict = classify_stability(cost_report(plant, Placement(e1, e1)))
        assert verdict == STABLE
        assert np.all(np.diff(eigs) <= 0)

    def test_disjoint_pair_is_not_stable_and_maximizes_phi_bar(self):
        spec = spectrum_of([-1.0, -2.0])
        plant = Plant(spec.A, 0.0, 0.0)
        placement = Placement(spec.eigenvector(0), spec.eigenvector(1))
        eigs, verdict = classify_stability(cost_report(plant, placement))
        assert verdict in (UNSTABLE, DEGENERATE)
        assert abs(phi_bar(plant, placement)) < 1e-10

    def test_scalar_dimension_is_stable(self):
        plant = Plant(np.array([[-1.0]]), 0.5, 0.5)
        placement = Placement(np.array([1.0]), np.array([1.0]))
        eigs, verdict = classify_stability(cost_report(plant, placement))
        assert verdict == STABLE and eigs.size == 0
        assert hessian_matrix(cost_report(plant, placement)).shape == (0, 0)

    def test_raw_hessian_is_nearly_symmetric(self):
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.0, 0.0)
        e1 = np.array([1.0, 0.0, 0.0])
        H = hessian_matrix(cost_report(plant, Placement(e1, e1)))
        assert la.norm(H - H.T, "fro") / la.norm(H, "fro") < 1e-4

    @pytest.mark.parametrize(
        "low, verdict",
        [
            (2.0 * STABILITY_MARGIN, STABLE),
            (0.5 * STABILITY_MARGIN, DEGENERATE),
            (0.0, DEGENERATE),
            (-0.5 * STABILITY_MARGIN, DEGENERATE),
            (-2.0 * STABILITY_MARGIN, UNSTABLE),
        ],
    )
    def test_verdict_reads_the_smallest_eigenvalue(self, low, verdict):
        # Within +-1e-7 of zero the smallest Hessian eigenvalue decides nothing.
        Q = np.linalg.qr(np.random.default_rng(12).standard_normal((3, 3)))[0]
        H = Q @ np.diag([2.0, 1.0, low]) @ Q.T
        eigs, got = _verdict(H)
        assert got == verdict
        np.testing.assert_allclose(eigs, [2.0, 1.0, low], rtol=0.0, atol=1e-14)

    def test_rejects_non_equilibrium(self):
        rng = np.random.default_rng(11)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        with pytest.raises(NotAnEquilibrium):
            classify_stability(cost_report(plant, random_placement_for(rng, 3)))

    def test_top_pair_candidate_solves_one_report(self, monkeypatch):
        # The unit 4-ring Laplacian (eigenvalues 0, -2, -2, -4): no zero-gain
        # enumeration, so (v_1, v_1) is classified at the plant's gains.
        ring = np.roll(np.eye(4), 1, axis=1)
        plant = Plant(ring + ring.T - 2.0 * np.eye(4), 0.5, 0.5)
        spec = Spectrum.of(plant)
        solves = []

        def counted(*args):
            solves.append(args)
            return cost_report(*args)

        monkeypatch.setattr(equilibria, "cost_report", counted)
        cand = equilibria.top_pair_candidate(plant, spec)
        assert len(solves) == 1
        v1 = spec.eigenvector(0)
        eigs, verdict = classify_stability(cost_report(plant, Placement(v1, v1)))
        assert cand.hessian_eigs == tuple(eigs.tolist()) and cand.stability == verdict
        assert verdict == STABLE
        assert np.array_equal(cand.placement.b_unit, v1)
        assert np.array_equal(cand.placement.c_unit, v1)
        assert cand.support == (0,) and cand.sign_s == (1, 0, 0, 0)
        assert cand.xi is None and cand.kind == KIND_COMMON

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


def _four_solve_hessian(plant: Plant, placement: Placement, report) -> np.ndarray:
    """``hessian_matrix`` with all four solves per direction, the identically
    zero ones included: the formula that skipping them must keep bit for bit."""
    grad = gradient(report)
    S_b, S_c = drive_matrices(report.gains, report.adjoints)
    K, S = report.gains.K, report.gains.Sigma
    M, N = report.adjoints.M, report.adjoints.N
    loop_K, loop_S = report.gains.loop_K, report.gains.loop_Sigma
    eps, delta = plant.epsilon, plant.delta
    b, c, B, C = placement.b_unit, placement.c_unit, placement.B, placement.C
    U, W = _tangent_basis(b), _tangent_basis(c)
    zero = np.zeros(plant.n)
    columns = []
    for d_b, d_c in [(d, zero) for d in U.T] + [(zero, d) for d in W.T]:
        dB = np.outer(d_b, b) + np.outer(b, d_b)
        dC = np.outer(d_c, c) + np.outer(c, d_c)
        # The rank-two forcings as outer products, as the library forms them.
        XB, XC = np.outer(K @ d_b, K @ b), np.outer(S @ d_c, S @ c)
        KdBK, SdCS = XB + XB.T, XC + XC.T
        dK = loop_K.solve(-eps * KdBK, transpose=True)[0]
        dS = loop_S.solve(-delta * SdCS, transpose=True)[0]
        dF_K = -eps * (dB @ K + B @ dK)
        dF_S = -delta * (dC @ S + C @ dS)
        FM, SCS, FN, KBK = dF_K @ M, dS @ C @ S, dF_S @ N, dK @ B @ K
        dM = loop_K.solve((FM + FM.T) + (SCS + SCS.T) + SdCS)[0]
        dN = loop_S.solve((FN + FN.T) + (KBK + KBK.T) + KdBK)[0]
        X_b = dK @ M @ K + K @ dM @ K + K @ M @ dK
        X_c = dS @ N @ S + S @ dN @ S + S @ N @ dS
        dS_b, dS_c = 0.5 * (X_b + X_b.T), 0.5 * (X_c + X_c.T)
        dg_b = dS_b @ b + S_b @ d_b - (b @ S_b @ b) * d_b
        dg_c = dS_c @ c + S_c @ d_c - (c @ S_c @ c) * d_c
        columns.append(-grad.scale * np.concatenate([U.T @ dg_b, W.T @ dg_c]))
    dim = 2 * (plant.n - 1)
    return np.reshape(columns, (dim, dim)).T


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
        report = cost_report(plant, placement)
        H = hessian_matrix(report)
        H_fd = richardson_hessian(plant, placement)
        # Off critical: there the Jacobian of the projected field is not
        # symmetric, so every term of it is checked.
        assert gradient(report).norm > 0.05 * la.norm(H_fd)
        assert la.norm(H - H_fd) <= 1e-8 * la.norm(H_fd)

    def test_zero_gain_matches_closed_form_on_every_candidate(self):
        spec = Spectrum.from_matrix(spaced_in_random_basis(np.random.default_rng(6), 6))
        plant = Plant(spec.A, 0.0, 0.0)
        field = zero_gain_field(spec)
        candidates = enumerate_equilibria_zero(spec)
        assert len(candidates) == 93
        for cand in candidates:
            b, c = cand.placement.b_unit, cand.placement.c_unit
            eigs, verdict = _verdict(hessian_matrix(cost_report(plant, cand.placement)))
            eigs_cf, verdict_cf = _verdict(field(b, c)[3])
            assert np.max(np.abs(eigs - eigs_cf)) <= 1e-12 * np.max(np.abs(eigs_cf))
            assert verdict == verdict_cf

    def test_skips_identically_zero_forcings(self, monkeypatch):
        # A b-direction leaves Sigma unmoved and a c-direction K: three
        # solves per direction, and the Hessian keeps every bit.
        rng = np.random.default_rng(1805)
        A = np.array([[-1.0, 0.2, 0.0], [0.0, -2.0, 0.4], [0.3, 0.0, -3.0]])
        plant = Plant(A, 0.5, 0.8)
        placement = random_placement_for(rng, 3)
        report = cost_report(plant, placement)
        expected = _four_solve_hessian(plant, placement, report)
        calls = []
        original = ClosedLoop.solve

        def counted(self, Q, transpose=False):
            calls.append(transpose)
            return original(self, Q, transpose)

        monkeypatch.setattr(ClosedLoop, "solve", counted)
        H = hessian_matrix(report)
        assert len(calls) == 3 * 2 * (plant.n - 1)
        assert np.array_equal(H, expected)

    def test_symmetric_at_flow_optimum(self):
        rng = np.random.default_rng(1801)
        plant = ring_laplacian_plant(rng, 16, 0.5)
        trace = run_flow(plant, random_placement_for(rng, 16), FlowOptions())
        assert trace.status == "converged"
        H = hessian_matrix(trace.report)
        assert la.norm(H - H.T) <= 1e-12 * la.norm(H)
        assert _verdict(H)[1] == STABLE

    def test_report_is_reused(self):
        rng = np.random.default_rng(1802)
        plant = Plant(random_symmetric_hurwitz(rng, 4), 0.3, 0.6)
        placement = random_placement_for(rng, 4)
        report = cost_report(plant, placement)
        H = hessian_matrix(report)
        assert np.array_equal(H, hessian_matrix(cost_report(plant, placement)))


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
            ref = gradient(cost_report(plant, placement))
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
            _, verdict = classify_stability(cost_report(plant, cand.placement))
            assert cand.stability == verdict
            H = richardson_hessian(plant, cand.placement)
            eigs = np.sort(la.eigvalsh(0.5 * (H + H.T)))[::-1]
            # Interior eigenvalues may be roundoff of an exact zero, so the
            # error is measured against each Hessian's largest eigenvalue.
            diff = np.max(np.abs(np.array(cand.hessian_eigs) - eigs))
            assert diff <= 1e-8 * np.max(np.abs(eigs))

    def test_stacked_rows_equal_one_placement_calls(self):
        # Off the sphere and at candidates: each row of a stacked call keeps
        # the bits of its own call, in g_b, g_c, phi_bar and H.
        rng = np.random.default_rng(2902)
        spec = Spectrum.from_matrix(spaced_in_random_basis(rng, 7))
        field = zero_gain_field(spec)
        b = [rng.uniform(0.5, 2.0) * random_unit(rng, 7) for _ in range(6)]
        c = [rng.uniform(0.5, 2.0) * random_unit(rng, 7) for _ in range(6)]
        for cand in enumerate_equilibria_zero(spec)[::9]:
            b.append(cand.placement.b_unit)
            c.append(cand.placement.c_unit)
        g_b, g_c, phi_bars, H = field(np.array(b), np.array(c))
        assert g_b.shape == g_c.shape == (len(b), 7)
        assert phi_bars.shape == (len(b),) and H.shape == (len(b), 12, 12)
        for k in range(len(b)):
            one = field(b[k], c[k])
            assert np.array_equal(one[0], g_b[k]) and np.array_equal(one[1], g_c[k])
            assert one[2] == phi_bars[k] and np.array_equal(one[3], H[k])

    @pytest.mark.parametrize("block", [1, 7])
    def test_classification_does_not_depend_on_the_block(self, monkeypatch, block):
        spec = Spectrum.from_matrix(spaced_in_random_basis(np.random.default_rng(2903), 6))
        candidates = enumerate_equilibria_zero(spec)
        whole = classify_candidates(spec, candidates)
        assert len(whole) == 93 <= equilibria._CLASSIFY_BLOCK
        monkeypatch.setattr(equilibria, "_CLASSIFY_BLOCK", block)
        blocked = classify_candidates(spec, candidates)
        for got, want in zip(blocked, whole, strict=True):
            got_bits, want_bits = (np.array(c.hessian_eigs).tobytes() for c in (got, want))
            assert got_bits == want_bits
            assert got.stability == want.stability and got.placement is want.placement

    def test_scalar_spectrum_has_an_empty_stable_hessian(self):
        spec = spectrum_of([-1.5])
        (cand,) = classify_candidates(spec, enumerate_equilibria_zero(spec))
        assert cand.hessian_eigs == () and cand.stability == STABLE

    def test_first_failing_candidate_is_refused(self, monkeypatch):
        # Two placements off equilibrium in the second block of 7: the error
        # names the first one's residuals.
        rng = np.random.default_rng(2904)
        spec = Spectrum.from_matrix(spaced_in_random_basis(rng, 4))
        field = zero_gain_field(spec)
        candidates = enumerate_equilibria_zero(spec)
        bad = [random_placement_for(rng, 4) for _ in range(2)]
        for k, placement in zip((9, 11), bad):
            candidates[k] = replace(candidates[k], placement=placement)
        monkeypatch.setattr(equilibria, "_CLASSIFY_BLOCK", 7)
        with pytest.raises(NotAnEquilibrium) as excinfo:
            classify_candidates(spec, candidates)
        g_b = field(bad[0].b_unit, bad[0].c_unit)[0]
        reported = float(str(excinfo.value).split("[")[1].split()[0])
        assert reported == pytest.approx(la.norm(g_b), rel=1e-6)

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

    def test_repeated_zero_mode_is_refused_without_a_warning(self):
        # A = -L of two disjoint unit edges: the zero eigenvalue is double,
        # so (v_1, v_1) leaves the other zero mode unstabilized and the
        # closed forms would divide by lambda_2 = 0.
        A = -np.kron(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
        spec = Spectrum.of(Plant(A, 0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for closed_form in (analytic_minimum, analytic_gains_at_v1):
                with pytest.raises(NonNegativeEigenvalue, match="lambda_2 = .*PBH"):
                    closed_form(spec, 0.5, 0.5)

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
        from conftest import random_placement_for as rp
        from oracles import orbit_canonical_coords

        rng = np.random.default_rng(1500 + seed)
        spec = spectrum_of([-0.7, -1.6, -3.1])
        plant = Plant(spec.A, 0.0, 0.0)
        opts = FlowOptions(grad_tol=1e-11, max_iters=800)
        trace = run_flow(plant, rp(rng, 3), opts)
        assert trace.iterates[-1].grad_norm < 1e-7
        beta, gamma = orbit_canonical_coords(trace.final, spec)
        support_b = frozenset(np.flatnonzero(np.abs(beta) > 1e-8))
        support_c = frozenset(np.flatnonzero(np.abs(gamma) > 1e-8))
        assert support_b == support_c or not (support_b & support_c)
