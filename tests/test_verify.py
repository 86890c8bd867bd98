import numpy as np
import pytest
from conftest import random_symmetric_hurwitz

from lqg_codesign import NonConvergence, Plant, Spectrum, pbh_passing_placement, verify
from lqg_codesign.equilibria import ZERO_EIGENVALUE_TOL, analytic_gains_at_v1
from lqg_codesign.verify import (
    NO_PLACEMENT,
    check_analytic_gains,
    check_gradient_vs_fd,
    check_phi_bar_sign,
    run_checks,
)


@pytest.mark.parametrize("gain", [0.5, 0.0], ids=["phi", "phi_bar"])
def test_gradient_vs_fd_checks_the_slope_and_catches_a_flipped_sign(gain):
    # At zero gain the pairing is the first variation of phi_bar.
    plant = Plant(random_symmetric_hurwitz(np.random.default_rng(36), 3), gain, gain)
    check = check_gradient_vs_fd(plant, seed=11)
    assert check["passed"] and check["skipped_draws"] == 0
    assert check["max_relative_error"] < 1e-5
    flipped = check_gradient_vs_fd(plant, seed=11, flip_sign=True)
    assert not flipped["passed"] and flipped["max_relative_error"] > 1.0


def test_no_pbh_passing_placement_skips_instead_of_passing_vacuously():
    # The unstable eigenvalue 0.5 has two independent eigenvectors, so no
    # single b stabilizes A and every draw fails the PBH tests.
    A = np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
    plant = Plant(A, 0.1, 0.1)
    assert pbh_passing_placement(plant, np.random.default_rng(0)) is None
    checks = {c["name"]: c for c in run_checks(plant, seed=3)["checks"]}
    for name in ("gradient_vs_fd", "gain_monotonicity", "phi_bar_nonpositive"):
        assert checks[name] == {"name": name, "passed": True, "skipped": NO_PLACEMENT}
    assert checks["analytic_gains_match"]["skipped"] == "A not symmetric"


def test_analytic_gains_run_on_positive_roundoff_zero_mode():
    # A = -L for a weighted 4-node graph whose zero eigenvalue eigh returns
    # as a tiny positive number.
    edges = [(0, 2, 1.9), (0, 3, 1.9), (1, 2, 1.9), (0, 1, 1.3), (2, 3, 0.7), (1, 3, 2.3)]
    W = np.zeros((4, 4))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    A = -(np.diag(W.sum(axis=1)) - W)
    assert 0.0 < Spectrum.from_matrix(A).Lambda[0] <= ZERO_EIGENVALUE_TOL
    check = check_analytic_gains(Plant(A, 0.04, 0.09))
    assert "skipped" not in check
    assert check["passed"]
    assert check["max_abs_error"] < 1e-9


def test_analytic_gains_skip_zero_mode_at_zero_gain():
    A = -np.array([[1.0, -1.0], [-1.0, 1.0]])
    check = check_analytic_gains(Plant(A, 0.0, 0.0))
    assert check["skipped"] == "zero mode at zero gain"


def ring_laplacian_plant(n: int, epsilon: float, delta: float) -> Plant:
    """A = -L of the unit-weight n-ring: a zero mode above repeated eigenvalues."""
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = W[(i + 1) % n, i] = 1.0
    return Plant(-(np.diag(W.sum(axis=1)) - W), epsilon, delta)


def test_analytic_gains_run_on_repeated_eigenvalues_below_the_zero_mode():
    plant = ring_laplacian_plant(4, 0.5, 0.5)
    lam = Spectrum.of(plant).Lambda
    assert abs(lam[0]) <= ZERO_EIGENVALUE_TOL and lam[1] == lam[2]
    check = check_analytic_gains(plant)
    assert "skipped" not in check
    assert check["passed"]
    assert check["max_abs_error"] < 1e-9


def test_analytic_gains_skip_a_repeated_zero_mode_on_pbh():
    # Two disconnected edges: the zero mode is double, so (v_1, v_1) leaves
    # the other zero mode unstabilized.
    A = -np.kron(np.eye(2), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    check = check_analytic_gains(Plant(A, 0.5, 0.5))
    assert check["passed"]
    assert "PBH" in check["skipped"]


def test_analytic_gains_skip_a_positive_top_eigenvalue():
    check = check_analytic_gains(Plant(np.diag([0.5, -1.0, -2.0]), 1.0, 1.0))
    assert check["skipped"] == "lambda_1 = 0.5 must be <= 0"


def test_analytic_gains_skip_a_placement_failing_pbh():
    # lambda_2 = -5e-10 is not a repeated zero mode (|lambda_2| > 1e-10), but
    # PBH tests it as marginal (Re >= -1e-9), and (v_1, v_1) misses it.
    check = check_analytic_gains(Plant(np.diag([0.0, -5e-10, -1.0]), 0.5, 0.5))
    assert check["passed"]
    assert check["skipped"].startswith("(A, b) fails the PBH stabilizability test")


def _raise_on_calls(monkeypatch, calls: set):
    """Patch ``verify.phi_bar`` to raise NonConvergence on the given calls."""
    count = {"n": 0}
    original = verify.phi_bar

    def flaky(plant, placement):
        count["n"] += 1
        if count["n"] in calls:
            raise NonConvergence(f"call {count['n']} not certified")
        return original(plant, placement)

    monkeypatch.setattr(verify, "phi_bar", flaky)


def test_a_failed_solve_skips_one_draw_not_the_command(monkeypatch):
    plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.5, 0.5)
    clean = {c["name"]: c for c in run_checks(plant, seed=5)["checks"]}
    _raise_on_calls(monkeypatch, {3})
    report = run_checks(plant, seed=5)
    checks = {c["name"]: c for c in report["checks"]}
    sign = checks["phi_bar_nonpositive"]
    assert sign["skipped_draws"] == 1
    assert sign["last_skip_reason"] == "call 3 not certified"
    assert sign["passed"]
    assert sign["max_phi_bar"] <= clean["phi_bar_nonpositive"]["max_phi_bar"]
    for name in ("gradient_vs_fd", "gain_monotonicity"):
        assert checks[name] == clean[name]
        assert checks[name]["skipped_draws"] == 0
        assert checks[name]["last_skip_reason"] is None
    assert report["all_passed"]


def test_a_check_with_every_draw_failed_is_skipped_with_the_reason(monkeypatch):
    _raise_on_calls(monkeypatch, set(range(1, 21)))
    check = check_phi_bar_sign(Plant(np.diag([-1.0, -2.0, -3.0]), 0.5, 0.5), seed=5)
    assert check == {
        "name": "phi_bar_nonpositive",
        "passed": True,
        "skipped": "call 20 not certified",
    }


@pytest.mark.parametrize(
    "plant",
    [ring_laplacian_plant(4, 1e-4, 1e-4), Plant(np.diag([-1e-3, -2.0, -3.0]), 1e-8, 1e-8)],
    ids=["ring4_1e-4", "diag_1e-8"],
)
def test_analytic_gains_bound_scales_with_the_closed_form(plant):
    # Closed-form entries of 5e5 and 1.24e8: one ulp of the larger is 1.5e-8,
    # so an absolute 1e-9 bound failed both correct solves.
    closed = analytic_gains_at_v1(Spectrum.of(plant), plant.epsilon, plant.delta)
    assert max(np.max(np.abs(d)) for d in closed) > 1e5
    check = check_analytic_gains(plant)
    assert check["passed"]
    assert check["max_scaled_error"] < 1e-12
    assert check["max_scaled_error"] <= check["max_abs_error"]


def test_analytic_gains_fail_a_relative_error_above_the_bound(monkeypatch):
    # A closed form off by 1e-8 of its own size still fails the scaled bound.
    plant = ring_laplacian_plant(4, 1e-4, 1e-4)

    def skewed(spectrum, epsilon, delta):
        K, Sigma, M, N = analytic_gains_at_v1(spectrum, epsilon, delta)
        return K, Sigma, M * (1.0 + 1e-8), N

    monkeypatch.setattr(verify, "analytic_gains_at_v1", skewed)
    check = check_analytic_gains(plant)
    assert not check["passed"]
    assert check["max_scaled_error"] > 1e-9
