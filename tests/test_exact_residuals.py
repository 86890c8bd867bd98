"""Every certificate's reported residual against the exact residual of the
solution it returns (``exact.py``).

Summed in floats, each entry of F P + P F^T + Q is a sum of 2n products and
one entry of Q, within about (2n + 1) u (2 |F||P| + |Q|) of its exact value
(u the float eps; Higham, Accuracy and Stability of Numerical Algorithms,
2002, ch. 3). The Frobenius norm of the computed matrix is then within

    C n u (2 || |F| |P| ||_F + |Q|_F),    C = 4,

of the exact norm for n >= 2, the bound every test here checks; a deviation
above it is a fault of the certificate, not of the bound. A CARE
A^T P + P A - P W P + Q is the form with F = A - W P / 2, so |F| is taken as
|A| + |W| |P| / 2; the modal forms evaluate the same sums from the rank-one
term, which the exact residual reads as it is held.
"""

import numpy as np
import pytest
from conftest import random_placement_for, random_symmetric_hurwitz

import exact
from lqg_codesign import Plant, adjoint_pair, gain_pair
from lqg_codesign import riccati
from lqg_codesign.riccati import adjoint_forcings

C = 4.0
_U = np.finfo(float).eps


def _assert_within_bound(reported: float, exact_value: float, F_abs, P, Q) -> None:
    n = P.shape[0]
    bound = C * n * _U * (2.0 * np.linalg.norm(F_abs @ np.abs(P)) + np.linalg.norm(Q))
    assert abs(reported - exact_value) <= bound, (reported, exact_value, bound)


def _check_care(reported: float, A, W, W_abs, P) -> None:
    """A CARE residual with Q = I; ``W`` as ``exact`` reads it and ``W_abs``
    its entrywise magnitude."""
    eye = np.eye(P.shape[0])
    F_abs = np.abs(A) + 0.5 * W_abs @ np.abs(P)
    _assert_within_bound(reported, exact.care_residual(A, W, eye, P), F_abs, P, eye)


def _check_loop(rng, loop, F, F_abs) -> None:
    """Solves on ``loop`` with a random PSD forcing, both ways round; ``F``
    as ``exact`` reads it and ``F_abs`` its entrywise magnitude."""
    n = F_abs.shape[0]
    G = rng.standard_normal((n, n))
    Q = G @ G.T
    for transpose in (False, True):
        P, res = loop.solve(Q, transpose=transpose)
        exact_res = exact.lyapunov_residual(F, Q, P, transpose)
        _assert_within_bound(res, exact_res, F_abs.T if transpose else F_abs, P, Q)


def _sides(plant, placement, gains):
    return (
        (plant.epsilon, placement.b_unit, gains.K_tilde, gains.residual_K, gains.loop_K),
        (plant.delta, placement.c_unit, gains.Sigma_tilde, gains.residual_Sigma, gains.loop_Sigma),
    )


@pytest.mark.parametrize("n", [3, 6])
def test_modal_rank_one_forms(n):
    # The CARE residual in the eigenbasis, A = diag(lam) and W = g beta beta^T,
    # and the Lyapunov residuals on each loop's rank-one form
    # F = diag(lam) - u w^T: the adjoint solves, then a random forcing.
    for seed in range(5):
        rng = np.random.default_rng(5100 + 10 * n + seed)
        plant = Plant(random_symmetric_hurwitz(rng, n), 0.5, 0.7)
        placement = random_placement_for(rng, n)
        gains = gain_pair(plant, placement)
        assert gains.basis is not None
        modal, A = plant.modal, np.diag(plant.modal.lam)
        adjoints = adjoint_pair(plant, placement, gains)
        forcings = adjoint_forcings(gains, placement)
        solved = ((adjoints.M_tilde, adjoints.residual_M), (adjoints.N_tilde, adjoints.residual_N))
        for (gain, v, P, res, loop), Q, (X, res_X) in zip(
            _sides(plant, placement, gains), forcings, solved
        ):
            beta = modal.basis.T @ v
            _check_care(res, A, exact.outer(gain, beta), gain * np.abs(np.outer(beta, beta)), P)
            _, u, w = loop.update
            F, F_abs = exact.rank_one(modal.lam, u, w), np.abs(A) + np.abs(np.outer(u, w))
            _assert_within_bound(res_X, exact.lyapunov_residual(F, Q, X), F_abs, X, Q)
            _check_loop(rng, loop, F, F_abs)


@pytest.mark.parametrize("n", [3, 6])
def test_dense_forms_on_the_schur_path(n):
    # A non-symmetric plant below DOUBLING_MIN_N: both CARE sides on the
    # ordered Schur form, then the Lyapunov solves on their dense loops.
    for seed in range(5):
        rng = np.random.default_rng(5200 + 10 * n + seed)
        plant = Plant(rng.standard_normal((n, n)) / np.sqrt(n) - 0.2 * np.eye(n), 0.7, 1.3)
        placement = random_placement_for(rng, n)
        gains = gain_pair(plant, placement)
        assert gains.basis is None and n < riccati.DOUBLING_MIN_N
        adjoints = adjoint_pair(plant, placement, gains)
        forcings = adjoint_forcings(gains, placement)
        solved = ((adjoints.M, adjoints.residual_M), (adjoints.N, adjoints.residual_N))
        for A, (gain, v, P, res, loop), Q, (X, res_X) in zip(
            (plant.A, plant.A.T), _sides(plant, placement, gains), forcings, solved
        ):
            W = gain * np.outer(v, v)
            _check_care(res, A, W, np.abs(W), P)
            F_abs = np.abs(loop.F)
            _assert_within_bound(res_X, exact.lyapunov_residual(loop.F, Q, X), F_abs, X, Q)
            _check_loop(rng, loop, loop.F, F_abs)


@pytest.mark.parametrize("n", [3, 6])
def test_doubling_care(n):
    for seed in range(5):
        rng = np.random.default_rng(5300 + 10 * n + seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        v = rng.standard_normal(n)
        W = rng.uniform(0.2, 2.0) * np.outer(v, v) / (v @ v)
        P, res, loop = riccati._doubling_care(A, W, np.eye(n))
        _check_care(res, A, W, np.abs(W), P)
        _check_loop(rng, loop, loop.F, np.abs(loop.F))
