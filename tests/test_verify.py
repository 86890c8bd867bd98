import numpy as np

from lqg_codesign import Plant, Spectrum, pbh_passing_placement
from lqg_codesign.equilibria import ZERO_EIGENVALUE_TOL
from lqg_codesign.verify import NO_PLACEMENT, check_analytic_gains, run_checks


def test_no_pbh_passing_placement_skips_instead_of_passing_vacuously():
    # The unstable eigenvalue 0.5 has two independent eigenvectors, so no
    # single b stabilizes A and every draw fails the PBH tests.
    A = np.array([[0.5, 0.0, 1.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
    plant = Plant(A, 0.1, 0.1)
    assert pbh_passing_placement(plant, np.random.default_rng(0), max_tries=16) is None
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
