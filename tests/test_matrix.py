import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from invlat import matrix
from invlat.errors import InconsistentSystemError, InvariantError, SingularMatrixError
from invlat.fields import QQ, gf_build
from invlat.kernels import _ElementRows, _ZechRows, row_kernel
from invlat.matrix import (
    Matrix,
    block_diag,
    companion,
    inverse,
    mat_vec,
    minimal_polynomial,
    poly_at_matrix,
    rank,
    rref,
    solve,
)
from invlat.poly import Poly, parse_poly, poly_lcm
from invlat.subspace import kernel_basis, span

from fixtures import GOLD_4_N, GOLD_8_A, GOLD_RAT_A, F2, F3


def test_rref_identity_and_zero():
    I3 = Matrix.identity(QQ, 3)
    R, rk, piv = rref(I3)
    assert R == I3 and rk == 3 and piv == (0, 1, 2)
    Z = Matrix.zeros(F2, 2, 4)
    R, rk, piv = rref(Z)
    assert R == Z and rk == 0 and piv == ()


def test_rref_of_golden_nilpotent():
    # hand row-reduction: rows e1, e2 on top, rank 2, pivots in columns 1,2
    R, rk, piv = rref(GOLD_4_N)
    assert rk == 2
    assert piv == (0, 1)
    one, zero = F2.one(), F2.zero()
    assert R.rows[0] == (one, zero, zero, zero)
    assert R.rows[1] == (zero, one, zero, zero)


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        M = Matrix(F3, [[rng.randrange(3) for _ in range(4)] for _ in range(3)])
        R, _, _ = rref(M)
        R2, _, _ = rref(R)
        assert R == R2


def test_minimal_polynomial_goldens():
    assert minimal_polynomial(GOLD_RAT_A) == parse_poly("x^2+1", QQ) ** 2
    assert minimal_polynomial(GOLD_8_A) == parse_poly("x^2+x+1", F2) ** 3
    assert minimal_polynomial(Matrix.identity(QQ, 5)) == parse_poly("x-1", QQ)
    assert minimal_polynomial(Matrix.identity(F2, 3)) == parse_poly("x+1", F2)


def test_minimal_polynomial_divides_annihilators():
    m = minimal_polynomial(GOLD_RAT_A)
    f = m * parse_poly("x+1", QQ)
    assert poly_at_matrix(f, GOLD_RAT_A).is_zero
    assert (f % m).is_zero


def test_poly_at_matrix_examples():
    p = parse_poly("x^2+1", QQ)
    M = poly_at_matrix(p, GOLD_RAT_A)
    assert not M.is_zero
    assert (M @ M).is_zero
    assert poly_at_matrix(Poly.one(QQ), GOLD_RAT_A) == Matrix.identity(QQ, 4)
    assert poly_at_matrix(Poly.x(QQ), GOLD_RAT_A) == GOLD_RAT_A


def test_poly_at_matrix_is_ring_homomorphism():
    rng = random.Random(11)
    A = Matrix(F3, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
    for _ in range(10):
        f = Poly(F3, [rng.randrange(3) for _ in range(5)])
        g = Poly(F3, [rng.randrange(3) for _ in range(5)])
        assert poly_at_matrix(f * g, A) == poly_at_matrix(f, A) @ poly_at_matrix(g, A)
        assert poly_at_matrix(f + g, A) == poly_at_matrix(f, A) + poly_at_matrix(g, A)


def test_solve_examples():
    I = Matrix.identity(QQ, 3)
    b = (1, 2, 3)
    assert solve(I, b) == tuple(QQ.element(x) for x in b)
    with pytest.raises(InconsistentSystemError):
        solve(Matrix.zeros(QQ, 2, 2), (1, 0))


def test_companion_inverse_is_square():
    C = companion(parse_poly("x^2+x+1", F2))
    assert C @ C @ C == Matrix.identity(F2, 2)  # order 3 in GL(2,2)
    assert inverse(C) == C @ C


def test_inverse_errors_on_singular():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zeros(F2, 2, 2))


def test_rank_nullity():
    from invlat.subspace import kernel_basis

    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        M = Matrix(F2, [[rng.randrange(2) for _ in range(n)] for _ in range(m)])
        assert rank(M) + kernel_basis(M).dim == n


def test_block_diag_and_matvec():
    A = Matrix(F2, [[1, 1], [0, 1]])
    B = Matrix(F2, [[1]])
    D = block_diag(F2, [A, B])
    assert D.nrows == 3
    assert mat_vec(D, (F2.one(), F2.zero(), F2.one())) == (F2.one(), F2.zero(), F2.one())


# ----------------------------------------------------------------------
# Row kernels against the element loop they replaced.


def _reference_rref(M):
    """Gauss-Jordan on field elements, leftmost pivot: the loop every field
    used before the row kernels, kept as the reference."""
    field = M.field
    rows = [list(r) for r in M.rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one() / rows[r][c]
        if rows[r][c] != field.one():
            rows[r] = [a * inv for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return Matrix(field, tuple(tuple(row) for row in rows)), r, tuple(pivots)


KERNEL_FIELDS = [
    F2,
    F3,
    gf_build(7),
    gf_build(2**61 - 1),
    gf_build(2, 2),
    gf_build(2, 3),
    gf_build(3, 2),
    gf_build(5, 2),
    gf_build(2, 8),  # order 256, the largest on tables
    gf_build(2, 9),  # order 512: element loop
    gf_build(3, 11),
    QQ,
]


def test_table_limit_selects_kernel():
    assert isinstance(row_kernel(gf_build(2, 8)), _ZechRows)
    assert type(row_kernel(gf_build(2, 9))) is _ElementRows


def test_a_field_and_its_kernel_are_freed_without_the_collector():
    # the kernel holds its field weakly, so no field <-> kernel cycle is left
    makers = (lambda: gf_build(2), lambda: gf_build(5), lambda: gf_build(2, 9))
    gc.disable()
    try:
        for make in makers:
            field = make()
            rref(Matrix.identity(field, 2))
            assert row_kernel(field).field is field
            ref = weakref.ref(field)
            del field
            assert ref() is None, make()
    finally:
        gc.enable()


def _random_entry(field, rng, density):
    if rng.random() > density:
        return field.zero()
    if field == QQ:
        return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return field.element_from_index(rng.randrange(field.order))


def _random_matrix(field, m, n, rng, rank_cap=None, density=1.0):
    """Random m x n matrix; with ``rank_cap`` a product (m x r)(r x n)."""
    if rank_cap is None:
        return Matrix(field, [[_random_entry(field, rng, density) for _ in range(n)] for _ in range(m)])
    left = _random_matrix(field, m, rank_cap, rng, density=density)
    return left @ _random_matrix(field, rank_cap, n, rng, density=density)


def _kernel_cases(field, seed):
    rng = random.Random(seed)
    yield Matrix.zeros(field, 1, 1)
    yield Matrix.zeros(field, 5, 7)
    yield _random_matrix(field, 1, 1, rng)
    yield _random_matrix(field, 12, 16, rng)
    yield _random_matrix(field, 12, 16, rng, rank_cap=5)
    for _ in range(12):
        m, n = rng.randrange(1, 13), rng.randrange(1, 17)
        yield _random_matrix(
            field, m, n, rng, rank_cap=rng.choice((None, 1, 2, 4)), density=rng.choice((0.3, 1.0))
        )


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_row_kernel_matches_element_loop(field):
    for M in _kernel_cases(field, 41):
        R, rk, piv = rref(M)
        assert (R, rk, piv) == _reference_rref(M)
        assert rank(M) == rk
        # the kernel's null space is the reference's and has the right size
        K = kernel_basis(M)
        assert K.dim == M.ncols - rk
        for v in K.basis:
            assert not any(mat_vec(M, v))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_solve_and_inverse_through_the_kernel(field):
    rng = random.Random(43)
    for n in (1, 3, 6):
        while True:
            M = _random_matrix(field, n, n, rng)
            if rank(M) == n:
                break
        assert M @ inverse(M) == Matrix.identity(field, n)
        b = tuple(_random_entry(field, rng, 1.0) for _ in range(n))
        assert mat_vec(M, solve(M, b)) == b


def _reference_intersection(U, W):
    """U ∩ W by the Zassenhaus trick on the reference element loop."""
    field, n = U.field, U.n
    zero = field.zero()
    stacked = [row + row for row in U.basis] + [row + (zero,) * n for row in W.basis]
    if not stacked:
        return span([], field, n)
    R, rk, piv = _reference_rref(Matrix(field, tuple(stacked)))
    return span([R.rows[i][n:] for i, p in enumerate(piv) if p >= n], field, n)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_sum_intersect_modular_law_random_pairs(field):
    rng = random.Random(47)
    n = 6
    for _ in range(12):
        U = span(_random_matrix(field, rng.randrange(1, 5), n, rng, density=0.6).rows, field, n)
        W = span(_random_matrix(field, rng.randrange(1, 5), n, rng, density=0.6).rows, field, n)
        if rng.random() < 0.3:  # force a large overlap
            W = W.sum(span(U.basis[:1], field, n))
        S, I = U.sum(W), U.intersect(W)
        assert S.dim + I.dim == U.dim + W.dim
        assert S.contains(U) and S.contains(W) and U.contains(I) and W.contains(I)
        assert I == _reference_intersection(U, W)
        assert S == span(U.basis + W.basis, field, n)
        R, rk, _ = _reference_rref(Matrix(field, U.basis + W.basis))
        assert S.basis == R.rows[:rk]


def test_rref_canonical_property_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fields = [F2, F3, gf_build(5), gf_build(2, 2), gf_build(3, 2), QQ]

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        field = data.draw(st.sampled_from(fields))
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        if field == QQ:
            entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        else:
            entry = st.integers(0, field.order - 1).map(field.element_from_index)
        M = Matrix(field, data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                             min_size=m, max_size=m)))
        R, rk, piv = rref(M)
        assert (R, rk, piv) == _reference_rref(M)
        assert rref(R) == (R, rk, piv)
        # any invertible recombination of the rows has the same RREF
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        while True:
            P = _random_matrix(field, m, m, rng)
            if rank(P) == m:
                break
        assert rref(P @ M) == (R, rk, piv)

    check()


def test_rank_and_rref_against_sympy():
    pytest.importorskip("sympy")
    from sympy import GF as SGF, QQ as SQQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(53)
    for p in (2, 3, 7, 2**61 - 1):
        F, K = gf_build(p), SGF(p)
        for _ in range(15):
            m, n = rng.randrange(1, 10), rng.randrange(1, 10)
            M = _random_matrix(F, m, n, rng, rank_cap=rng.choice((None, 2, 3)), density=0.7)
            D = DomainMatrix([[K(e.c[0]) for e in row] for row in M.rows], (m, n), K)
            R, rk, piv = rref(M)
            SR, spiv = D.rref()
            assert rk == D.rank() and piv == tuple(spiv)
            assert [[e.c[0] for e in row] for row in R.rows] == [
                [int(x) % p for x in row] for row in SR.to_list()
            ]
    for _ in range(15):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        M = _random_matrix(QQ, m, n, rng, rank_cap=rng.choice((None, 2)), density=0.7)
        D = DomainMatrix([[SQQ(e.numerator, e.denominator) for e in row] for row in M.rows],
                         (m, n), SQQ)
        R, rk, piv = rref(M)
        SR, spiv = D.rref()
        assert rk == D.rank() and piv == tuple(spiv)
        assert [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in SR.to_list()] == [list(row) for row in R.rows]


def _big_fraction(rng, size=10**30):
    return Fraction(rng.randrange(-size, size + 1), rng.randrange(1, size + 1))


def _hard_rational_cases(rng):
    """Q matrices that stress the fraction-free echelon: entries near 10^30,
    negative pivots, zero and duplicate rows, thin shapes, rank deficiency."""
    big = _big_fraction
    yield Matrix(QQ, [[big(rng) for _ in range(7)] for _ in range(5)])
    yield Matrix(QQ, [[big(rng) for _ in range(4)] for _ in range(9)])
    yield Matrix(QQ, [[big(rng) for _ in range(9)]])  # 1 x n
    yield Matrix(QQ, [[big(rng)] for _ in range(6)])  # n x 1
    yield Matrix(QQ, [[Fraction(-7, 3)]])
    yield Matrix(QQ, [[-3, 1, 2], [-6, 2, 5], [9, -3, -6]])  # negative pivots
    yield Matrix(QQ, [[-(10**30) - 1, 10**29, 3], [-2, Fraction(-1, 10**30), 0]])
    row = [big(rng) for _ in range(6)]
    half = [x / 2 for x in row]
    zero = [0] * 6
    yield Matrix(QQ, [zero, row, zero, row, half, [-x for x in row]])  # rank 1
    yield Matrix(QQ, [zero, zero, zero])
    for r in (1, 2, 3):  # (m x r)(r x n) with big entries: rank-deficient stacks
        left = Matrix(QQ, [[big(rng, 10**15) for _ in range(r)] for _ in range(6)])
        right = Matrix(QQ, [[big(rng, 10**15) for _ in range(8)] for _ in range(r)])
        M = left @ right
        yield Matrix(QQ, M.rows + M.rows[:2] + ((0,) * 8,))


def test_rational_echelon_on_hard_inputs():
    rng = random.Random(59)
    for M in _hard_rational_cases(rng):
        R, rk, piv = rref(M)
        assert (R, rk, piv) == _reference_rref(M)
        assert all(type(x) is Fraction for row in R.rows for x in row)
        assert rank(M) == rk
        # the null space is the reference's: the kernel of the reference RREF
        ref, _, ref_piv = _reference_rref(M)
        free = [j for j in range(M.ncols) if j not in ref_piv]
        null = []
        for j in free:
            v = [Fraction(0)] * M.ncols
            v[j] = Fraction(1)
            for i, p in enumerate(ref_piv):
                v[p] = -ref.rows[i][j]
            null.append(v)
        K = kernel_basis(M)
        assert K == span(null, QQ, M.ncols)
        assert all(not any(mat_vec(M, v)) for v in K.basis)


def test_rational_intersection_on_hard_inputs():
    rng = random.Random(61)
    n = 6
    for _ in range(8):
        common = [[_big_fraction(rng) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        U = span(common + [[_big_fraction(rng) for _ in range(n)]
                           for _ in range(rng.randrange(0, 3))], QQ, n)
        W = span([[-x for x in r] for r in common] + [[_big_fraction(rng) for _ in range(n)]
                                                        for _ in range(rng.randrange(1, 4))], QQ, n)
        I = U.intersect(W)
        assert I == _reference_intersection(U, W)
        assert I.contains(span(common, QQ, n))  # the rows both stacks share, up to sign


# ----------------------------------------------------------------------
# Products and polynomial evaluation on the row kernels against the element
# loop they replaced.

PRODUCT_FIELDS = KERNEL_FIELDS + [gf_build(3, 6)]  # order 729: element loop


def _dot(r, c, zero):
    """The element loop every field used for dot products before the row kernels."""
    acc = zero
    for a, b in zip(r, c):
        if a and b:
            acc = acc + a * b
    return acc


def _reference_matmul(A, B):
    zero, cols = A.field.zero(), list(zip(*B.rows))
    return Matrix(A.field, [[_dot(r, c, zero) for c in cols] for r in A.rows])


def _reference_mat_vec(M, v):
    return tuple(_dot(row, v, M.field.zero()) for row in M.rows)


def _reference_poly_at(f, A):
    """sum_k c_k A^k, the powers by the reference product."""
    n = A.nrows
    acc, power = Matrix.zeros(A.field, n), Matrix.identity(A.field, n)
    for c in f.coeffs:
        acc = acc + power * c
        power = _reference_matmul(power, A)
    return acc


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
def test_products_match_element_loop(field):
    rng = random.Random(59)
    shapes = [(1, 1, 1), (1, 6, 1), (5, 1, 3), (4, 7, 2), (8, 8, 8)]
    shapes += [(rng.randrange(1, 10), rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(6)]
    for m, k, n in shapes:
        for density in (0.3, 1.0):
            A = _random_matrix(field, m, k, rng, density=density)
            B = _random_matrix(field, k, n, rng, density=density)
            assert A @ B == _reference_matmul(A, B), (m, k, n)
        assert Matrix.zeros(field, m, k) @ B == Matrix.zeros(field, m, n)
        assert A @ Matrix.zeros(field, k, n) == Matrix.zeros(field, m, n)
    if field == QQ:  # mixed and large denominators, cleared per operand
        A = Matrix(QQ, [[Fraction(rng.randrange(-99, 100), rng.randrange(1, 60)) for _ in range(5)]
                        for _ in range(3)])
        B = Matrix(QQ, [[Fraction(rng.randrange(-10**9, 10**9), rng.choice((1, 7, 10**12)))
                         for _ in range(4)] for _ in range(5)])
        assert A @ B == _reference_matmul(A, B)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
def test_poly_at_matrix_matches_element_loop(field):
    rng = random.Random(61)
    kern = row_kernel(field)
    for n in (1, 2, 4, 6):
        A = _random_matrix(field, n, n, rng, density=0.7)
        c = field.one() + field.one()  # nonzero unless the characteristic is 2
        polys = [Poly.zero(field), Poly.constant(field, c), Poly.x(field)]
        polys += [Poly(field, [_random_entry(field, rng, 0.8) for _ in range(rng.randrange(2, 2 * n + 2))])
                  for _ in range(4)]
        for f in polys:
            F = poly_at_matrix(f, A)
            assert F == _reference_poly_at(f, A), (n, f)
            if f.is_zero:
                continue
            # a single row of f(A), as minimal_polynomial asks for it
            i = rng.randrange(n)
            row = kern.polyval(f.enc, A.right, n, i, 1)[0]
            assert kern.decode(row, n) == F.rows[i]


# Matrices are keyed on encoded rows: sums, scalar multiples, powers,
# matrix-vector products and row reduction against the element loop, and the
# keys of a kernel result against the same matrix built from elements.

DIFFERENTIAL_FIELDS = [F2, F3, gf_build(2, 2), gf_build(3, 2), gf_build(2, 9), QQ,
                       gf_build(3, 6)]


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=repr)
def test_matrix_arithmetic_matches_element_loop(field):
    rng = random.Random(67)

    def entrywise(f, *Ms):
        return Matrix(field, [[f(*xs) for xs in zip(*rows)] for rows in zip(*(M.rows for M in Ms))])

    for m, n in [(1, 1), (3, 5), (5, 2), (6, 6)]:
        for density in (0.3, 1.0):
            A = _random_matrix(field, m, n, rng, density=density)
            B = _random_matrix(field, m, n, rng)
            c = _random_entry(field, rng, 0.8)
            assert A + B == entrywise(lambda a, b: a + b, A, B), (m, n)
            assert A - B == entrywise(lambda a, b: a - b, A, B), (m, n)
            assert -A == entrywise(lambda a: -a, A)
            assert A * c == entrywise(lambda a: a * c, A)
            assert (A - A).is_zero and (A * 0).is_zero and Matrix.zeros(field, m, n).is_zero
            assert A.is_zero == (not any(a for row in A.rows for a in row))
            v = tuple(_random_entry(field, rng, density) for _ in range(n))
            assert mat_vec(A, v) == _reference_mat_vec(A, v)
            R, rk, piv = _reference_rref(A)
            assert rref(A) == (R, rk, piv) and rank(A) == rk
            I = Matrix.identity(field, n)
            for K in (A + B, (A + B) - B, A @ I, A * c, rref(A)[0]):
                E = Matrix(field, K.rows)  # the same matrix, from its elements
                assert E == K and hash(E) == hash(K)
            assert (A + B) - B == A and hash((A + B) - B) == hash(A)
        S = _random_matrix(field, n, n, rng)
        while rank(S) < n:
            S = _random_matrix(field, n, n, rng)
        power = Matrix.identity(field, n)
        for e in range(5):
            assert S**e == power, (n, e)
            power = _reference_matmul(power, S)
        T, I = inverse(S), Matrix.identity(field, n)
        assert _reference_matmul(S, T) == I and _reference_matmul(T, S) == I
        assert S**-2 == _reference_matmul(T, T)


def _shift(field, n):
    return Matrix(field, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field", [QQ, F3], ids=repr)
def test_minimal_polynomial_evaluates_m_at_a_once(field, monkeypatch):
    calls = []

    def counting(f, A):
        calls.append(f)
        return poly_at_matrix(f, A)

    monkeypatch.setattr(matrix, "poly_at_matrix", counting)
    # every e_i raises the degree, so each step of the lcm is a new m
    assert minimal_polynomial(_shift(field, 12)) == Poly.x(field) ** 12
    assert calls == [Poly.x(field) ** 12]


@pytest.mark.parametrize("field", [QQ, F3], ids=repr)
def test_minimal_polynomial_keeps_its_certificate(field, monkeypatch):
    def dropping(f, g):  # an lcm that loses a factor x
        h = poly_lcm(f, g)
        return h // Poly.x(field) if h.degree > 0 else h

    monkeypatch.setattr(matrix, "poly_lcm", dropping)
    with pytest.raises(InvariantError, match="minimal polynomial self-check"):
        minimal_polynomial(_shift(field, 12))


def _reference_annihilator(A, v):
    """Monic least-degree g with g(A) v = 0: the Krylov matrix (v, Av, ...)
    re-solved from scratch at each step, as minimal_polynomial once did."""
    vecs = [v]
    while True:
        w = mat_vec(A, vecs[-1])
        try:
            x = solve(Matrix.from_cols(A.field, vecs), w)
        except InconsistentSystemError:
            vecs.append(w)
            continue
        return Poly(A.field, tuple(-c for c in x) + (A.field.one(),))


def _reference_minimal_polynomial(A):
    """(m_A, the annihilators lcm'd in turn), e_i skipped when m(A) e_i = 0."""
    field, n = A.field, A.nrows
    m, annihilators = Poly.one(field), []
    for i in range(n):
        if m.degree == n:
            break
        if not any(poly_at_matrix(m, A).col(i)):
            continue
        e = tuple(field.one() if j == i else field.zero() for j in range(n))
        annihilators.append(_reference_annihilator(A, e))
        m = poly_lcm(m, annihilators[-1])
    return m, annihilators


def _minimal_polynomial_cases(field, rng):
    one = field.one()
    if field.is_finite:  # distinct nonzero elements
        elements = [field.element_from_index(i) for i in range(1, min(field.order, 6))]
    else:
        elements = [field.element(i) for i in range(1, 6)]
    c = elements[-1]
    yield Matrix(field, [[c]])
    yield Matrix.zeros(field, 4)
    yield Matrix.identity(field, 5)
    yield Matrix.identity(field, 4) * c
    yield _shift(field, 6)
    yield Matrix(field, tuple(zip(*_shift(field, 6).rows)))
    diag = [field.zero()] + elements
    yield Matrix(field, [[x if i == j else field.zero() for j in range(len(diag))]
                         for i, x in enumerate(diag)])
    C = companion(Poly(field, (c, one, one)))
    J = Matrix(field, [[c if i == j else one if j == i + 1 else field.zero() for j in range(3)]
                       for i in range(3)])
    blocks = block_diag(field, [C, C, J])
    yield blocks
    for A in (blocks, block_diag(field, [C, Matrix.identity(field, 2) * c, _shift(field, 3)])):
        n = A.nrows
        L = Matrix(field, [[one if i == j else _random_entry(field, rng, 0.4) if j < i
                            else field.zero() for j in range(n)] for i in range(n)])
        U = Matrix(field, tuple(zip(*L.rows)))
        P = L @ U
        yield P @ A @ inverse(P)


@pytest.mark.parametrize("field", [F2, F3, gf_build(2, 2), gf_build(3, 2), gf_build(2, 9), QQ,
                                   gf_build(3, 6)], ids=repr)
def test_minimal_polynomial_matches_the_krylov_re_solve(field, monkeypatch):
    # the growing echelon gives the re-solve's annihilator for every e_i it
    # does not skip, and so the same m_A
    seen = []

    def recording(f, g):
        seen.append(g)
        return poly_lcm(f, g)

    monkeypatch.setattr(matrix, "poly_lcm", recording)
    for A in _minimal_polynomial_cases(field, random.Random(71)):
        seen.clear()
        m, annihilators = _reference_minimal_polynomial(A)
        assert minimal_polynomial(A) == m, A
        assert seen == annihilators, A


def test_minimal_polynomial_divides_the_characteristic_polynomial_hypothesis():
    # over Q and GF(p), on integral conjugates of block diagonals with
    # repeated blocks (so m_A is often a proper divisor of the characteristic
    # polynomial), against sympy: its characteristic polynomial, and its
    # least-degree monic divisor of it that annihilates A
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st, x = hypothesis.strategies, sympy.Symbol("x")

    def sympy_minimal_polynomial(ints, p):
        M = sympy.Matrix(ints)
        I = sympy.eye(M.rows)
        domain = {"modulus": p} if p else {"domain": "QQ"}
        chi = sympy.Poly(M.charpoly(x).as_expr(), x, **domain)
        _, parts = chi.factor_list()
        best = chi
        for exps in product(*(range(k + 1) for _, k in parts)):
            f = sympy.Poly(1, x, **domain)
            for (g, _), e in zip(parts, exps):
                f = f * g**e
            value = sympy.zeros(M.rows)
            for c in f.all_coeffs():  # Horner's rule, highest coefficient first
                value = value * M + c * I
            if all((v % p if p else v) == 0 for v in value) and f.degree() < best.degree():
                best = f
        return chi, best.monic()

    def to_poly(f, field, p):
        coeffs = reversed(f.all_coeffs())
        if p:
            return Poly(field, tuple(field.element(int(c) % p) for c in coeffs))
        return Poly(field, tuple(Fraction(int(c.p), int(c.q)) for c in coeffs))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((0, 2, 3, 5)))
        field = gf_build(p) if p else QQ
        entry = st.integers(-2, 2)
        blocks = []
        for size, copies in data.draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                                               min_size=1, max_size=3)):
            B = Matrix(QQ, data.draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                                              min_size=size, max_size=size)))
            blocks += [B] * copies
        D = block_diag(QQ, blocks)
        n, rng = D.nrows, random.Random(data.draw(st.integers(0, 999)))
        L = Matrix(QQ, [[1 if i == j else rng.randrange(-1, 2) if j < i else 0
                         for j in range(n)] for i in range(n)])
        P = L @ Matrix(QQ, tuple(zip(*L.rows)))  # L L^T: unimodular, so A stays integral
        ints = [[int(e) for e in row] for row in (P @ D @ inverse(P)).rows]
        m = minimal_polynomial(Matrix(field, ints))
        chi, ref = sympy_minimal_polynomial(ints, p)
        chi, ref = to_poly(chi, field, p), to_poly(ref, field, p)
        assert (chi % m).is_zero
        assert m == ref

    check()
