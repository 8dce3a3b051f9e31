"""The Q row kernel (int rows over one denominator) against the Fraction-list
reference kept in ``fixtures.FractionRows``, op by op, on seeded rows with
mixed signs and denominators.  Every row the kernel returns must also be in
its canonical form: positive denominator first, in lowest terms."""

import random
from fractions import Fraction
from math import gcd

from invlat import kernels
from invlat.fields import QQ
from invlat.kernels import row_kernel
from invlat.matrix import Matrix
from invlat.subspace import span

from fixtures import FractionRows

INT, REF = row_kernel(QQ), FractionRows(QQ)
DENOMINATORS = (1, 1, 1, 2, 3, 4, 6, 7, 12, 35, 10**9 + 7)


def _entry(rng, density=0.7):
    if rng.random() > density:
        return Fraction(0)
    return Fraction(rng.randrange(-40, 41), rng.choice(DENOMINATORS))


def _rows(rng, m, n, density=0.7):
    return [[_entry(rng, density) for _ in range(n)] for _ in range(m)]


def _canonical(v):
    return v[0] > 0 and gcd(*v) == 1


def _same(got, want, n):
    """The kernel's rows ``got`` are canonical and decode to the reference's ``want``."""
    assert all(_canonical(v) for v in got)
    assert [INT.decode(v, n) for v in got] == [tuple(w) for w in want]


def _enc(rows):
    return [INT.encode(r) for r in rows]


def test_encoding_is_canonical_and_round_trips():
    rng = random.Random(1)
    for n in (0, 1, 3, 7):
        for row in _rows(rng, 20, n, density=0.6):
            v = INT.encode(row)
            assert _canonical(v) and INT.decode(v, n) == tuple(row)
            assert INT.nonzero(v) == any(row)
            # one vector, one row: rescaled and re-reduced forms agree
            x = _entry(rng, 1.0) or Fraction(-5, 3)
            assert INT.scale(INT.scale(v, x), 1 / x) == v
            assert INT.scale(v, Fraction(-1)) == INT.encode([-e for e in row])
    assert INT.encode([Fraction(0)] * 4) == [1, 0, 0, 0, 0]
    assert INT.encode([Fraction(-1, 2), Fraction(1, 3)]) == [6, -3, 2]
    # a negative pivot and a negative scale still give a positive denominator
    (r,), _ = INT.echelon([INT.encode([Fraction(0), Fraction(-3, 4), Fraction(5)])], 3)
    assert r == [3, 0, 3, -20]
    assert INT.scale([1, 2, 3], Fraction(-2, 5)) == [2, -10, -15]  # (2, 3) / (-2/5)
    assert INT.freeze([[1, 0], [2, 1]]) == ((1, 0), (2, 1))


def test_echelon_and_reduce_match_the_reference():
    rng = random.Random(2)
    shapes = [(1, 1), (3, 5), (5, 3), (6, 6), (4, 9), (9, 4)]
    for m, n in shapes:
        for density in (0.3, 0.8):
            rows = _rows(rng, m, n, density)
            rows += [rows[0], [2 * x for x in rows[-1]], [Fraction(0)] * n]
            got, piv = INT.echelon(_enc(rows), n)
            want, ref_piv = REF.echelon(rows, n)
            assert piv == ref_piv
            _same(got, want, n)
            for v in _rows(rng, 6, n, 0.9):
                _same([INT.reduce(INT.encode(v), got, piv)], [REF.reduce(list(v), want, piv)], n)


def test_reduce_keeps_its_sequential_meaning_on_unit_pivot_rows():
    # rows with unit pivots that are not reduced against each other, in pivot
    # order, as minimal_polynomial inserts them: each row is applied in turn
    rng = random.Random(3)
    for n in (3, 5, 8):
        for _ in range(6):
            rows, pivots = [], []
            for r in _rows(rng, n, n, 0.8):
                (u,), (c,) = REF.echelon([r], n) if any(r) else ([None], [None])
                if c is not None and c not in pivots:
                    rows.append(u)
                    pivots.append(c)
            order = sorted(range(len(rows)), key=pivots.__getitem__)
            rows, pivots = [rows[k] for k in order], [pivots[k] for k in order]
            enc = _enc(rows)
            assert all(v[c + 1] == v[0] for v, c in zip(enc, pivots))
            for v in _rows(rng, 5, n, 0.9):
                _same([INT.reduce(INT.encode(v), enc, pivots)], [REF.reduce(list(v), rows, pivots)], n)


def test_products_match_the_reference():
    rng = random.Random(4)
    for m, k, n in [(1, 1, 1), (3, 4, 5), (5, 5, 5), (2, 7, 3), (6, 1, 4), (1, 3, 6)]:
        a, b = _rows(rng, m, k), _rows(rng, k, n)
        for c in (None, Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(7, 12)):
            for first in range(n - m + 1) if c is not None else (0,):  # E: rows first.. of I
                got = INT.matmul(_enc(a), INT.prepare(_enc(b)), n, c, first)
                _same(got, REF.matmul(a, REF.prepare(b), n, c, first), n)
    # no rows on the right: the product is zero, n entries wide
    assert INT.matmul([[1]], INT.prepare([]), 3) == [[1, 0, 0, 0]]
    for n in (1, 2, 4, 6):
        a = _rows(rng, n, n, 0.8)
        for deg in (0, 1, 3, 6):
            f = [_entry(rng) for _ in range(deg)] + [_entry(rng, 1.0) or Fraction(1)]
            for first, count in [(0, None), (0, n), (n - 1, 1), (n // 2, n - n // 2)]:
                got = INT.polyval(INT.encode(f), INT.prepare(_enc(a)), n, first, count)
                _same(got, REF.polyval(f, REF.prepare(a), n, first, count), n)


def test_polynomial_operations_match_the_reference():
    rng = random.Random(5)
    for _ in range(60):
        a = [_entry(rng) for _ in range(rng.randrange(1, 9))] + [_entry(rng, 1.0) or Fraction(2)]
        b = [_entry(rng) for _ in range(rng.randrange(0, len(a)))] + [_entry(rng, 1.0) or Fraction(-1, 3)]
        ea, eb = INT.encode(a), INT.encode(b)
        assert INT.trim(ea) == (tuple(ea), len(a) - 1) and INT.lead(ea) == a[-1]
        _same([INT.pmul(ea, eb)], [REF.pmul(a, b)], len(a) + len(b) - 1)
        (q, r), (want_q, want_r) = INT.pdivmod(ea, eb), REF.pdivmod(a, b)
        _same([q, r], [want_q, want_r], len(a))
        _same([INT.scale(ea, a[-1])], [REF.scale(a, a[-1])], len(a))
        assert INT.trim(INT.encode(a + [Fraction(0)] * 3)) == INT.trim(ea)
    assert INT.trim([1, 0, 0]) == ((1,), -1) and INT.trim([1]) == ((1,), -1)


def test_row_operations_match_the_reference():
    rng = random.Random(6)
    for n in (1, 3, 6):
        rows = _rows(rng, 5, n, 0.7)
        enc = _enc(rows)
        for v, w in zip(rows, rows[1:]):
            for f in (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 6), _entry(rng, 1.0)):
                _same([INT.submul(INT.encode(v), f, INT.encode(w))], [REF.submul(v, f, w)], n)
        _same(INT.transpose(enc, n), REF.transpose(rows, n), len(rows))
        _same(INT.place(enc, 2, n + 4), REF.place(rows, 2, n + 4), n + 4)
        for v, w in zip(rows, rows[1:]):
            joined = INT.join(INT.encode(v), INT.encode(w), n)
            _same([joined], [REF.join(v, w, n)], 2 * n)
            _same([INT.tail(joined, n)], [REF.tail(REF.join(v, w, n), n)], n)
        wide = [x for r in rows for x in r]
        _same(INT.split(INT.encode(wide), n, len(rows)), REF.split(wide, n, len(rows)), n)
    assert INT.transpose([], 3) == REF.transpose([], 3) == []


def test_the_kernel_makes_no_fraction(monkeypatch):
    rng = random.Random(7)
    n = 5
    rows = _rows(rng, 4, n)
    A = Matrix(QQ, _rows(rng, n, n))
    W = span(rows, QQ, n)
    K = span(Matrix.identity(QQ, n).rows[:2], QQ, n)
    V = span(rows[:2], QQ, n)

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("the Q row kernel made a Fraction")

    monkeypatch.setattr(kernels, "Fraction", NoFraction)
    enc, piv = INT.echelon(_enc(rows), n)
    assert INT.nonzero(INT.reduce(INT.encode(rows[0]), enc, piv)) is False
    INT.matmul(enc, INT.prepare(A.enc), n)
    assert not W.is_invariant_under(A) and not K.is_invariant_under(A)
    assert W.contains(V) and W.sum(K).dim == n
