"""Shared golden fixtures: the three worked instances used across the suite.

GOLD_RAT: 4x4 over Q, minimal polynomial (x^2+1)^2.
GOLD_8: 8x8 over GF(2), minimal polynomial (x^2+x+1)^3.
GOLD_4: 4x4 over GF(2), minimal polynomial (x+1)^3.
"""

from invlat.fields import QQ, gf_build
from invlat.matrix import Matrix, inverse, poly_at_matrix

F2 = gf_build(2)
F3 = gf_build(3)


def newton_semisimple(A, p):
    """Reference semisimple part of A (p(A)^r = 0, p separable), independent
    of the polynomial iteration: the matrix Newton iteration
    S <- S - p(S) p'(S)^-1, started at A + p(A) rather than at A."""
    dp = p.derivative()
    S = A + poly_at_matrix(p, A)
    for _ in range(A.nrows.bit_length() + 1):
        P = poly_at_matrix(p, S)
        if P.is_zero:
            return S
        S = S - P @ inverse(poly_at_matrix(dp, S))
    raise AssertionError("matrix Newton iteration did not terminate")


def e_rows(n, idxs, field):
    """Rows of standard basis vectors e_i (1-indexed)."""
    one, zero = field.one(), field.zero()
    return [tuple(one if j == i - 1 else zero for j in range(n)) for i in idxs]


GOLD_RAT_A = Matrix(QQ, [
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [1, 0, 0, 1],
    [0, 1, -1, 0],
])

GOLD_RAT_S = Matrix(QQ, [
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
])

GOLD_RAT_N = Matrix(QQ, [
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
])

GOLD_8_A = Matrix(F2, [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

GOLD_8_S = Matrix(F2, [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

GOLD_8_N = Matrix(F2, [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
])

GOLD_4_A = Matrix(F2, [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
])

GOLD_4_S = Matrix.identity(F2, 4)

GOLD_4_N = Matrix(F2, [
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
])
