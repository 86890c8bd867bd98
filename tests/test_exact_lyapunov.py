"""``ClosedLoop.solve`` against the exact solution of its Lyapunov equation
(``exact.lyapunov_solve``).

With L(X) = F X + X F^T, the exact X solves L(X) = -Q and the returned X^
leaves the exact residual R^ = L(X^) + Q, so X^ - X = L^-1(R^) and

    |X^ - X|_F <= |L^-1|_2 |R^|_F,

|L^-1|_2 = 1 / sigma_min of the Kronecker matrix I (x) F + F (x) I. That
bound holds exactly; only sigma_min is computed in floats, to within about
m u sigma_max (m = n^2, u the float eps), which the slack 1 + 4 m u kappa
covers, kappa = kappa_2(L). The relative forward error is also held to

    |X^ - X|_F / |X|_F <= c n u kappa,    c = 1,

the first-order size of the error of a backward-stable solve; the largest
ratio measured on these plants was a third of it.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import random_placement_for, random_symmetric_hurwitz

import exact
from lqg_codesign import Plant, gain_pair

C = 1.0
_U = np.finfo(float).eps


def _loop_and_F(kind: str, n: int, rng):
    """A closed loop K of a benign plant, with F as its solve reads it: the
    stored matrix on the Schur path, diag(lam) - u w^T on the modal one."""
    if kind == "modal":
        plant = Plant(random_symmetric_hurwitz(rng, n), 0.5, 0.7)
    else:
        plant = Plant(rng.standard_normal((n, n)) / np.sqrt(n) - 0.2 * np.eye(n), 0.7, 1.3)
    loop = gain_pair(plant, random_placement_for(rng, n)).loop_K
    assert (loop.modes is not None) == (kind == "modal")
    if kind == "modal":
        _, u, w = loop.update
        return loop, exact.rank_one(plant.modal.lam, u, w)
    return loop, exact.exact(loop.F)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("kind", ["schur", "modal"])
def test_closed_loop_solve_against_the_exact_solution(kind, n):
    rng = np.random.default_rng(7000 + n)
    loop, F = _loop_and_F(kind, n, rng)
    G = rng.standard_normal((n, n))
    Q, eye = G @ G.T, np.eye(n)
    for transpose in (False, True):
        X_hat, _ = loop.solve(Q, transpose=transpose)
        F_solved = exact.transpose(F) if transpose else F
        X = exact.lyapunov_solve(F_solved, Q)
        F_float = np.array([[float(x) for x in row] for row in F_solved])
        sigma = np.linalg.svd(np.kron(eye, F_float) + np.kron(F_float, eye), compute_uv=False)
        kappa = sigma[0] / sigma[-1]
        difference = [[Fraction(a) - b for a, b in zip(r, s)] for r, s in zip(X_hat.tolist(), X)]
        error = exact.frobenius(difference)
        residual = exact.lyapunov_residual(F_solved, Q, X_hat)
        assert error <= (1.0 + 4 * n * n * _U * kappa) * residual / sigma[-1]
        assert error <= C * n * _U * kappa * exact.frobenius(X), (transpose, error, kappa)
