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


def lyapunov_solve(F, Q) -> list:
    """The exact X of F X + X F^T + Q = 0 for the stored F and Q, n <= 6.

    Gaussian elimination over Fractions on the n^2 x n^2 Kronecker system
    (I (x) F + F (x) I) vec X = -vec Q, with X[i][j] the unknown i n + j.
    Raises ``ZeroDivisionError`` when that system is singular.
    """
    F, Q = exact(F), exact(Q)
    n = len(F)
    if n > 6:
        raise ValueError(f"an exact solve is for n <= 6, not n = {n}")
    m = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * m + [-Q[i][j]]
            for k in range(n):
                row[k * n + j] += F[i][k]
                row[i * n + k] += F[j][k]
            rows.append(row)
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("the Kronecker system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(col + 1, m):
            factor = rows[r][col] / top[col]
            if factor:
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], top[col:])]
    x = [Fraction(0)] * m
    for r in reversed(range(m)):
        x[r] = (rows[r][m] - sum(rows[r][k] * x[k] for k in range(r + 1, m))) / rows[r][r]
    return [x[i * n : (i + 1) * n] for i in range(n)]
