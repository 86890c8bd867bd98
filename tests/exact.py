"""Exact residuals of stored float solutions, to check the solvers' own.

Every float is a dyadic rational, so ``fractions.Fraction`` arithmetic on the
entries evaluates a residual matrix of float data without rounding. Only its
Frobenius norm is rounded: the exact sum of squares to the nearest float,
then its square root. Matrices are float arrays or, where a coefficient is
not itself a float matrix (an exact rank-one term), nested lists of
Fractions from ``rank_one`` and ``outer``. Needs only the standard library
and numpy.
"""

import math
from fractions import Fraction

import numpy as np


def exact(M) -> list:
    """A float matrix as rows of Fractions; rows of Fractions as they are."""
    if isinstance(M, list):
        return M
    return [[Fraction(x) for x in row] for row in np.atleast_2d(np.asarray(M, float)).tolist()]


def _entries(v) -> list:
    return [Fraction(x) for x in np.asarray(v, float).reshape(-1).tolist()]


def outer(g: float, beta) -> list:
    """g beta beta^T, exactly."""
    g, beta = Fraction(g), _entries(beta)
    return [[g * bi * bj for bj in beta] for bi in beta]


def rank_one(lam, u, w) -> list:
    """diag(lam) - u w^T, exactly."""
    lam, u, w = _entries(lam), _entries(u), _entries(w)
    n = len(lam)
    return [[(lam[i] if i == j else 0) - u[i] * w[j] for j in range(n)] for i in range(n)]


def _mul(X: list, Y: list) -> list:
    cols = list(zip(*Y))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in X]


def transpose(X: list) -> list:
    return [list(col) for col in zip(*X)]


def _sum(*terms: list) -> list:
    return [[sum(entries) for entries in zip(*rows)] for rows in zip(*terms)]


def _negate(X: list) -> list:
    return [[-x for x in row] for row in X]


def frobenius(R: list) -> float:
    """|R|_F: the exact sum of squares rounded to a float, then its root."""
    return math.sqrt(sum(x * x for row in R for x in row))


def lyapunov_residual(F, Q, P, transpose_F: bool = False) -> float:
    """|F P + P F^T + Q|_F of the stored F, Q and P (of F^T P + P F + Q with
    ``transpose_F``)."""
    F, Q, P = exact(F), exact(Q), exact(P)
    if transpose_F:
        F = transpose(F)
    return frobenius(_sum(_mul(F, P), _mul(P, transpose(F)), Q))


def care_residual(A, W, Q, P) -> float:
    """|A^T P + P A - P W P + Q|_F of the stored A, W, Q and P."""
    A, W, Q, P = exact(A), exact(W), exact(Q), exact(P)
    PWP = _mul(_mul(P, W), P)
    return frobenius(_sum(_mul(transpose(A), P), _mul(P, A), _negate(PWP), Q))
