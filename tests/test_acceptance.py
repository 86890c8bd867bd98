"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Finite-difference oracles are implemented locally and independently
of the library's analytic paths.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    angular_distance,
    orbit_pairing,
    random_placement_for,
    random_skew,
    random_symmetric_hurwitz,
    scalar_plant,
)
from oracles import candidate_match_distance

from lqg_codesign import (
    FlowOptions,
    Placement,
    Plant,
    SimConfig,
    Spectrum,
    analytic_minimum,
    classify_candidates,
    cost_report,
    enumerate_equilibria_zero,
    estimate_eta,
    multi_start,
    phi,
    phi_bar,
    phi_gain_sensitivity,
    xi_vector,
)
from lqg_codesign.equilibria import KIND_COMMON, KIND_DISJOINT, STABLE
from lqg_codesign.flow import STATUS_CONVERGED


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def _central(f, h):
    return (f(h) - f(-h)) / (2.0 * h)


def _fd_derivative(f, h):
    # two-level Richardson extrapolation of central differences, O(h^6)
    d1, d2, d3 = _central(f, h), _central(f, h / 2), _central(f, h / 4)
    r1, r2 = (4 * d2 - d1) / 3, (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15


def _rotate(placement, omega_b, omega_c, t):
    return Placement.normalized(
        la.expm(-t * omega_b) @ placement.b_unit,
        la.expm(-t * omega_c) @ placement.c_unit,
    )


def test_criterion_1_analytic_minimum_reproduction():
    started = time.monotonic()
    plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.01, 0.01)
    spectrum = Spectrum.from_matrix(plant.A)
    target = analytic_minimum(spectrum, 0.01, 0.01)
    v1 = spectrum.eigenvector(0)
    opts = FlowOptions(grad_tol=1e-12, max_iters=20_000)
    result = multi_start(plant, 10, seed=7, opts=opts)

    worst_angle = 0.0
    worst_phi_rel = 0.0
    for trace in result.all:
        assert trace.status == STATUS_CONVERGED
        worst_angle = max(
            worst_angle,
            angular_distance(trace.final.b_unit, v1),
            angular_distance(trace.final.c_unit, v1),
        )
        worst_phi_rel = max(
            worst_phi_rel, abs(trace.iterates[-1].phi - target) / abs(target)
        )
    elapsed = time.monotonic() - started
    _report(
        "criterion 1 (analytic-minimum reproduction)",
        worst_angle < 1e-6 and worst_phi_rel < 1e-8 and elapsed < 10.0,
        f"worst angle {worst_angle:.2e} (<1e-6), phi rel err {worst_phi_rel:.2e} "
        f"(<1e-8), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_scalar_closed_form_chain():
    started = time.monotonic()
    plant, placement = scalar_plant(3.0, 3.0)
    report = cost_report(plant, placement)
    errors = {
        "K": abs(report.gains.K[0, 0] - 1.0 / 3.0),
        "Sigma": abs(report.gains.Sigma[0, 0] - 1.0 / 3.0),
        "M": abs(report.adjoints.M[0, 0] - 1.0 / 36.0),
        "N": abs(report.adjoints.N[0, 0] - 1.0 / 36.0),
        "phi": abs(report.phi - 4.0 / 9.0),
    }
    elapsed = time.monotonic() - started
    worst = max(errors.values())
    _report(
        "criterion 2 (scalar closed-form chain)",
        worst < 1e-10 and elapsed < 1.0,
        f"max abs error {worst:.2e} (<1e-10), {elapsed:.2f}s (<1s)",
    )


def test_criterion_3_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(20):
        n = 3 if k < 10 else 4
        A = random_symmetric_hurwitz(rng, n)
        eps, delta = np.exp(rng.uniform(np.log(0.01), 0.0, size=2))
        plant = Plant(A, eps, delta)
        placement = random_placement_for(rng, n)
        for _ in range(10):
            omega_b, omega_c = random_skew(rng, n), random_skew(rng, n)
            analytic = orbit_pairing(cost_report(plant, placement), omega_b, omega_c)
            fd = _fd_derivative(
                lambda t: phi(plant, _rotate(placement, omega_b, omega_c, t)), 2e-2
            )
            worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-10))
    elapsed = time.monotonic() - started
    _report(
        "criterion 3 (gradient vs finite differences)",
        worst < 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e} (<1e-5) over 20 plants x 10 directions, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_4_gain_sensitivity_signs():
    rng = np.random.default_rng(404)
    worst_sign = -np.inf
    worst_rel = 0.0
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        A = random_symmetric_hurwitz(rng, n)
        placement = random_placement_for(rng, n)
        r, s = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=2))
        dr, ds = phi_gain_sensitivity(Plant(A, r, s), placement)
        worst_sign = max(worst_sign, dr, ds)
        h_r = min(1e-2 * (1.0 + r), 0.4 * r)
        h_s = min(1e-2 * (1.0 + s), 0.4 * s)
        fd_r = _fd_derivative(lambda h: phi(Plant(A, r + h, s), placement), h_r)
        fd_s = _fd_derivative(lambda h: phi(Plant(A, r, s + h), placement), h_s)
        scale = max(abs(dr), abs(ds), 1e-10)
        worst_rel = max(worst_rel, abs(dr - fd_r) / scale, abs(ds - fd_s) / scale)
    _report(
        "criterion 4 (gain-sensitivity signs and FD match)",
        worst_sign <= 1e-10 and worst_rel < 1e-6,
        f"max partial {worst_sign:.2e} (<=1e-10), max FD rel err {worst_rel:.2e} "
        f"(<1e-6) over 100 tuples",
    )


def test_criterion_5_enumeration_vs_flow():
    # hand-derived xi certificates for Lambda = diag(-1, -2)
    xi_same, exists_same = xi_vector([-1.0, -2.0], (0, 1), (1, 1))
    xi_mixed, exists_mixed = xi_vector([-1.0, -2.0], (0, 1), (1, -1))
    certificates_ok = (
        np.allclose(xi_same, [-78.0, 120.0], atol=1e-9)
        and not exists_same
        and np.allclose(xi_mixed, [114.0, 168.0], atol=1e-9)
        and exists_mixed
    )

    worst = 0.0
    all_converged = True
    for lams in ([-1.0, -2.0], [-1.0, -2.0, -4.0]):
        plant = Plant(np.diag(lams), 0.0, 0.0)
        spectrum = Spectrum.from_matrix(plant.A)
        candidates = enumerate_equilibria_zero(spectrum)
        opts = FlowOptions(grad_tol=1e-9, max_iters=5_000)
        result = multi_start(plant, 50, seed=123, opts=opts)
        for trace in result.all:
            all_converged &= trace.status == STATUS_CONVERGED
            worst = max(
                worst,
                min(
                    candidate_match_distance(trace.final, cand, spectrum)
                    for cand in candidates
                ),
            )
    _report(
        "criterion 5 (enumeration vs flow at zero gain)",
        certificates_ok and all_converged and worst < 1e-6,
        f"xi certificates ok: {certificates_ok}, all converged: {all_converged}, "
        f"worst orbit-canonical mismatch {worst:.2e} (<1e-6) over 2x50 seeds",
    )


def test_criterion_6_potential_properties():
    rng = np.random.default_rng(606)
    worst_value = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        plant = Plant(random_symmetric_hurwitz(rng, n), 0.0, 0.0)
        worst_value = max(worst_value, phi_bar(plant, random_placement_for(rng, n)))

    worst_disjoint = 0.0
    worst_identity = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A = random_symmetric_hurwitz(rng, n)
        plant = Plant(A, 0.0, 0.0)
        spectrum = Spectrum.from_matrix(A)
        i, j = rng.choice(n, size=2, replace=False)
        disjoint = Placement(spectrum.eigenvector(i), spectrum.eigenvector(j))
        worst_disjoint = max(worst_disjoint, abs(phi_bar(plant, disjoint)))

        placement = random_placement_for(rng, n)
        report = cost_report(plant, placement)
        K, S = report.gains.K, report.gains.Sigma
        M, N = report.adjoints.M, report.adjoints.N
        via_kbkm = -float(np.trace(K @ placement.B @ K @ M))
        via_scsn = -float(np.trace(S @ placement.C @ S @ N))
        scale = max(abs(report.phi_bar), 1e-12)
        worst_identity = max(
            worst_identity,
            abs(report.phi_bar - via_kbkm) / scale,
            abs(report.phi_bar - via_scsn) / scale,
        )
    _report(
        "criterion 6 (potential sign and identities)",
        worst_value <= 1e-10 and worst_disjoint <= 1e-10 and worst_identity < 1e-9,
        f"max value {worst_value:.2e} (<=1e-10) over 200 placements, "
        f"disjoint |value| {worst_disjoint:.2e} (<=1e-10), "
        f"three-formula rel spread {worst_identity:.2e} (<1e-9)",
    )


def test_criterion_7_unique_stable_equilibrium():
    rng = np.random.default_rng(707)
    cases = 0
    ok = True
    details = []
    for n in (2, 3):
        for _ in range(3):
            lams = -np.sort(np.exp(rng.uniform(np.log(0.4), np.log(4.0), size=n)))
            if n > 1 and np.min(-np.diff(lams)) < 0.25:
                lams = -np.linspace(0.5, 0.5 + 1.1 * (n - 1), n)
            spectrum = Spectrum.from_matrix(np.diag(lams))
            candidates = classify_candidates(
                spectrum, enumerate_equilibria_zero(spectrum)
            )
            stable = [c for c in candidates if c.stability == STABLE]
            top_pair_stable = (
                len(stable) == 1
                and stable[0].kind == KIND_COMMON
                and stable[0].support == (0,)
            )
            disjoint_ok = all(
                c.stability != STABLE for c in candidates if c.kind == KIND_DISJOINT
            )
            ok &= top_pair_stable and disjoint_ok
            cases += 1
            details.append(f"n={n}: {len(stable)} stable")
    _report(
        "criterion 7 (unique stable equilibrium)",
        ok,
        f"{cases} random spectra, exactly one stable candidate each and it is "
        f"the top-eigenvector pair ({'; '.join(details)})",
    )


def test_criterion_8_monte_carlo_agreement():
    started = time.monotonic()
    plant, placement = scalar_plant(3.0, 3.0)
    cfg = SimConfig(dt=1e-3, horizon_T=200.0, n_paths=64, burn_in=20.0, seed=8)
    result = estimate_eta(plant, placement, cfg)
    error = abs(result.eta_hat - 4.0 / 9.0)
    budget = 3.0 * result.stderr + 0.01
    elapsed = time.monotonic() - started
    _report(
        "criterion 8 (Monte Carlo agreement)",
        error < budget and elapsed < 60.0,
        f"|eta_hat - 4/9| = {error:.4f} < {budget:.4f} "
        f"(eta_hat {result.eta_hat:.5f} +/- {result.stderr:.5f}), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_9_laplacian_placement():
    rng = np.random.default_rng(909)
    n = 5
    W = np.zeros((n, n))
    order = rng.permutation(n)  # random spanning tree keeps the graph connected
    for k in range(1, n):
        i, j = order[k], order[int(rng.integers(0, k))]
        W[i, j] = W[j, i] = rng.uniform(0.5, 1.5)
    for _ in range(3):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w = rng.uniform(0.5, 1.5)
            W[i, j] += w
            W[j, i] += w
    A = -(np.diag(W.sum(axis=1)) - W)
    plant = Plant(A, 0.01, 0.01)
    ones = np.ones(n) / np.sqrt(n)

    opts = FlowOptions(grad_tol=1e-6, max_iters=30_000)
    result = multi_start(plant, 3, seed=5, opts=opts)
    worst_angle = 0.0
    all_converged = True
    for trace in result.all:
        all_converged &= trace.status == STATUS_CONVERGED
        worst_angle = max(
            worst_angle,
            angular_distance(trace.final.b_unit, ones),
            angular_distance(trace.final.c_unit, ones),
        )
    _report(
        "criterion 9 (Laplacian optimal placement)",
        all_converged and worst_angle < 1e-4,
        f"worst angular distance to ones/sqrt(n): {worst_angle:.2e} (<1e-4), "
        f"all converged: {all_converged}",
    )
