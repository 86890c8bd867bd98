"""The input guards of the library's value types and entry points: each
refuses its bad input with its own error type and message."""

import re
import warnings

import numpy as np
import pytest

from lqg_codesign import (
    Direction,
    FlowOptions,
    NonNegativeEigenvalue,
    Placement,
    Plant,
    SimConfig,
    Spectrum,
    flow_step,
    random_placement,
    xi_vector,
)
from lqg_codesign.flow import default_workers

PLANT3 = Plant(np.diag([-1.0, -2.0, -3.0]), 1.0, 1.0)
UNIT2 = np.array([1.0, 0.0])


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Spectrum(np.eye(3), [-1.0, -2.0]), ValueError,
         "Theta and Lambda dimensions disagree"),
        (lambda: Spectrum([[1.0, 1.0], [0.0, 1.0]], [-1.0, -2.0]), ValueError,
         "Theta is not orthogonal"),
        (lambda: xi_vector([-1.0, 0.5], (0, 1), [1, 1]), NonNegativeEigenvalue,
         "the Cauchy block needs negative eigenvalues"),
        (lambda: FlowOptions(max_iters=0), ValueError, "max_iters must be at least 1"),
        (lambda: flow_step(PLANT3, Placement(UNIT2, UNIT2), Direction(UNIT2, UNIT2), 0.1),
         ValueError, "placement dimension does not match plant"),
        (lambda: random_placement(0, np.random.default_rng(0)), ValueError,
         "dimension must be at least 1"),
        (lambda: Plant(np.ones((2, 3)), 1.0, 1.0), ValueError,
         "system matrix must be square, got shape (2, 3)"),
        (lambda: Placement(np.array([]), np.array([])), ValueError,
         "b_unit must have at least one entry"),
        (lambda: Placement(np.array([2.0]), np.array([1.0])), ValueError,
         "b_unit must be a unit vector (|b_unit| = 2.0)"),
        (lambda: Placement(np.array([1.0]), UNIT2), ValueError,
         "b_unit and c_unit must have the same dimension"),
        (lambda: SimConfig(dt=1.0, horizon_T=1.0, n_paths=1), ValueError,
         "horizon_T must exceed dt"),
    ],
    ids=[
        "spectrum_dimensions", "spectrum_orthogonal", "xi_nonnegative", "max_iters",
        "flow_step_dimension", "random_placement_dimension", "plant_square",
        "placement_empty", "placement_unit", "placement_lengths", "sim_horizon",
    ],
)
def test_guard_refuses(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "b, unit",
    [
        ([1e308, 1e308], [0.5**0.5] * 2),  # |b|^2 overflows
        ([1e-200, 1e-200], [0.5**0.5] * 2),  # |b|^2 underflows to 0
        ([1e-160, 1e-160], [0.5**0.5] * 2),  # |b|^2 is subnormal
        ([3e-162, 4e-162], [0.6, 0.8]),
    ],
)
def test_placement_normalizes_across_the_float_range(b, unit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b_unit = Placement.normalized(b, UNIT2).b_unit
    assert np.all(np.abs(b_unit - unit) <= 4.0 * np.finfo(float).eps * np.abs(unit))


@pytest.mark.parametrize("b", [[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e-320, np.inf]])
def test_placement_refuses_a_zero_or_non_finite_vector(b):
    for args in ((b, UNIT2), (UNIT2, b)):
        with pytest.raises(ValueError, match="^cannot normalize a zero or non-finite vector$"):
            Placement.normalized(*args)


def test_placement_in_the_normal_range_keeps_the_bits_of_v_over_its_norm():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-100.0, 100.0, n)
        assert Placement.normalized(v, v).b_unit.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_default_workers_reads_a_non_integer_as_one(monkeypatch):
    monkeypatch.setenv("CODESIGN_THREADS", "two")
    assert default_workers() == 1
