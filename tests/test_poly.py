import random
from fractions import Fraction
from itertools import product

import pytest

from invlat.errors import CapExceededError, FactorHintError
from invlat.fields import QQ, gf_build
from invlat.poly import (
    ROOT_SEARCH_BOUND,
    ROOT_SEARCH_PAIRS,
    Poly,
    factor,
    format_poly,
    is_irreducible,
    is_separable,
    parse_poly,
    poly_gcd,
    poly_lcm,
    poly_xgcd,
)

F2 = gf_build(2)
F3 = gf_build(3)
F4 = gf_build(2, 2)


def P(field, text):
    return parse_poly(text, field)


def test_gcd_coprime_over_qq():
    f = P(QQ, "x^2+1")
    g = P(QQ, "x+1")
    assert poly_gcd(f, g) == Poly.one(QQ)


def test_gcd_over_gf2_verified_by_division():
    f = P(F2, "x+1") ** 3
    g = P(F2, "x+1") * P(F2, "x")
    d = poly_gcd(f, g)
    assert d == P(F2, "x+1")
    # division oracle: d divides both, and the cofactors are coprime
    assert (f % d).is_zero and (g % d).is_zero
    assert poly_gcd(f // d, g // d).degree == 0 or poly_gcd(f // d, g // d) == P(F2, "x")
    # gcd of the cofactors must again be coprime to d^0 checks: stronger check
    u = f // d
    v = g // d
    assert poly_gcd(u, v) == poly_gcd(u, v).monic()


def test_gcd_idempotent():
    f = P(F3, "2x^3+x+1")
    assert poly_gcd(f, f) == f.monic()
    assert poly_gcd(f, Poly.zero(F3)) == f.monic()


def test_xgcd_bezout():
    f = P(F2, "x^2+x+1")
    g = f.derivative()  # = 1 over GF(2)
    d, u, v = poly_xgcd(f, g)
    assert u * f + v * g == d


def test_separability_examples():
    assert is_separable(P(F2, "x^2+x+1")) is True
    assert is_separable(P(F2, "x^2")) is False
    assert is_separable(P(QQ, "x^2+1")) is True
    with pytest.raises(ValueError):
        is_separable(Poly.one(F2))


def test_factor_primary_powers():
    f = P(F2, "x^2+x+1") ** 3
    res = factor(f)
    assert res.factors == ((P(F2, "x^2+x+1"), 3),)
    g = P(F2, "x+1") ** 3
    assert factor(g).factors == ((P(F2, "x+1"), 3),)


def test_factor_distinct_linear_roots_gf3():
    f = P(F3, "x^2-x")
    res = factor(f)
    assert res.factors == ((P(F3, "x"), 1), (P(F3, "x+2"), 1))


def test_factor_reconstructs_and_factors_coprime_randomized():
    rng = random.Random(7)
    for field in (F2, F3, F4):
        for _ in range(25):
            deg = rng.randrange(1, 7)
            coeffs = [field.element_from_index(rng.randrange(field.order)) for _ in range(deg)]
            f = Poly(field, coeffs + [field.one()])
            res = factor(f)
            assert res.expand() == f
            fs = [p for p, _ in res.factors]
            for i in range(len(fs)):
                for j in range(i + 1, len(fs)):
                    assert poly_gcd(fs[i], fs[j]).degree == 0


def test_factor_deterministic_for_fixed_seed():
    f = P(F3, "x^6+x^4+x^2+x+1").monic()
    assert factor(f, seed=5).factors == factor(f, seed=5).factors
    assert factor(f, seed=5).factors == factor(f, seed=11).factors  # sorted output


def test_separability_agrees_with_squarefreeness_exhaustively():
    # all monic f with 1 <= deg <= 4 over GF(2) and GF(3)
    for field in (F2, F3):
        q = field.order
        for deg in range(1, 5):
            for idx in range(q**deg):
                digits = []
                i = idx
                for _ in range(deg):
                    digits.append(field.element_from_index(i % q))
                    i //= q
                f = Poly(field, digits + [field.one()])
                squarefree = all(m == 1 for _, m in factor(f).factors)
                assert is_separable(f) == squarefree


@pytest.mark.parametrize("p, k, top, leads", [
    (2, 1, 8, None), (3, 1, 5, None), (2, 2, 4, None), (5, 1, 4, None), (7, 1, 3, None),
    (3, 2, 3, 2),  # GF(9): two leading coefficients, 1 and one other, to keep it short
])
def test_is_irreducible_matches_trial_division(p, k, top, leads):
    # every polynomial of degree 2..top over GF(p^k), monic or not: reducible
    # iff some monic polynomial of at most half its degree divides it
    F = gf_build(p, k)
    elems = list(F.elements())

    def polys(d, lead_coeffs):
        return [Poly(F, tail + (c,)) for c in lead_coeffs for tail in product(elems, repeat=d)]

    divisors = [g for d in range(1, top // 2 + 1) for g in polys(d, [F.one()])]
    for d in range(2, top + 1):
        for f in polys(d, [c for c in elems if c][:leads]):
            reducible = any((f % g).is_zero for g in divisors if 2 * g.degree <= d)
            assert is_irreducible(f) is not reducible, f


def test_quadratic_irreducibility_over_q_matches_the_root_search():
    # every quadratic with coefficients p/q, |p| <= 3, q <= 2, monic or not:
    # irreducible by its discriminant iff the rational-root search finds none
    from invlat.poly import _rational_roots

    values = sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2)})
    discriminants = set()
    for a, b, c in product(values, repeat=3):
        if not a:
            continue
        f = Poly(QQ, (c, b, a))
        assert is_irreducible(f) is not bool(_rational_roots(f)), f
        discriminants.add(b * b - 4 * a * c)
    assert Fraction(9, 4) in discriminants and Fraction(-3, 4) in discriminants
    assert not is_irreducible(P(QQ, "x^2+1/2x-1/2"))  # discriminant 9/4
    assert is_irreducible(P(QQ, "2x^2-1"))  # discriminant 8


def test_factor_rationals_auto_and_hint():
    f = P(QQ, "x^2+1") ** 2
    res = factor(f)
    assert res.factors == ((P(QQ, "x^2+1"), 2),)
    assert res.trusted is False
    res2 = factor(f, hint=[(P(QQ, "x^2+1"), 2)])
    assert res2.factors == res.factors
    # roots are pulled out automatically
    g = P(QQ, "x^3-x")
    assert factor(g).factors == (
        (P(QQ, "x-1"), 1),
        (P(QQ, "x"), 1),
        (P(QQ, "x+1"), 1),
    )


def test_factor_rationals_requires_hint_for_hard_degrees():
    f = P(QQ, "x^4+x^3+x^2+x+1") * P(QQ, "x^4+1")
    with pytest.raises(FactorHintError, match="hint required"):
        factor(f.monic())
    res = factor(f.monic(), hint=[(P(QQ, "x^4+x^3+x^2+x+1"), 1), (P(QQ, "x^4+1"), 1)])
    assert res.trusted is True


def test_rational_root_search_bound():
    b = ROOT_SEARCH_BOUND
    at = Poly(QQ, (b, -b - 1, 1))  # (x - b)(x - 1)
    assert factor(at).factors == ((Poly(QQ, (-b, 1)), 1), (Poly(QQ, (-1, 1)), 1))
    # the bound applies to the integer form: b/2 has leading coefficient 2
    half = Poly(QQ, (Fraction(b, 2), Fraction(-b - 2, 2), 1))
    assert factor(half).factors == ((Poly(QQ, (Fraction(-b, 2), 1)), 1), (Poly(QQ, (-1, 1)), 1))
    for over in (Poly(QQ, (b + 1, -b - 2, 1)), Poly(QQ, (Fraction(b + 1, 2), Fraction(-b - 3, 2), 1))):
        with pytest.raises(CapExceededError, match="--hint"):
            factor(over)
    assert factor(Poly(QQ, (b + 1, -b - 2, 1)), hint=[(Poly(QQ, (-b - 1, 1)), 1),
                                                      (Poly(QQ, (-1, 1)), 1)]).factors
    # 963761198400 has 6720 divisors: 6720^2 candidate pairs are refused at once
    c = 963761198400
    with pytest.raises(CapExceededError, match="divisor pairs") as exc:
        factor(Poly(QQ, (1, Fraction(1, c), 1)))
    assert exc.value.count == 6720**2 > ROOT_SEARCH_PAIRS


def test_bad_hints_rejected():
    f = P(QQ, "x^2+1") ** 2
    with pytest.raises(FactorHintError):
        factor(f, hint=[(P(QQ, "x^2+1"), 1)])  # wrong product
    g = P(QQ, "x^2-1")
    with pytest.raises(FactorHintError, match="is reducible"):
        factor(g, hint=[(P(QQ, "x^2-1"), 1)])  # reducible "factor"
    # degrees are compared before any power is expanded
    with pytest.raises(FactorHintError, match="do not add up"):
        factor(P(QQ, "x^2+1"), hint=[(P(QQ, "x^2+1"), 2000)])


def test_parse_poly_bounds_and_coefficients():
    assert parse_poly("x^4+1", QQ, max_degree=4) == P(QQ, "x^4+1")
    with pytest.raises(ValueError, match="exceeds 4"):
        parse_poly("x^5+1", QQ, max_degree=4)
    for text, field in (("1/0x^2", QQ), ("[1,2]x", QQ), ("1/2x+1", gf_build(2))):
        with pytest.raises(ValueError, match="invalid coefficient"):
            parse_poly(text, field)


def test_parse_poly_reads_the_matrix_entry_grammar():
    # coefficients are ASCII digits with an optional /digits, vector entries
    # optionally signed integers, exponents digits; int() and Fraction() read
    # "_" and non-ASCII digits, which once made "1_0x+1" parse as 10x+1
    F9 = gf_build(3, 2)
    for text, field in (("1_0x+1", QQ), ("x^2+1_0/3", QQ), ("x^2+1/1_0", QQ),
                        ("\u0663x+1", QQ), ("x^2+\uff12", QQ), ("1.5x", QQ), ("1e3x", QQ),
                        ("[1_0,1]x+1", F9), ("[1,\u0661]x", F9), ("[1,1/2]x", F9),
                        ("[]x", F9), ("[1,,0]x", F9), ("[1,0", F9), ("1,0]x", F9)):
        with pytest.raises(ValueError, match="invalid coefficient"):
            parse_poly(text, field)
    for text in ("x^1_0+1", "x^\u0663+1", "x^+3", "x^-1", "x^1.0", "x^"):
        with pytest.raises(ValueError, match="malformed term"):
            parse_poly(text, QQ)
    # the documented forms stay accepted, spaces between terms included
    assert parse_poly("x^10 + 10/3x - 7", QQ) == Poly(QQ, tuple(
        [QQ.element(-7), QQ.element(Fraction(10, 3))] + [QQ.zero()] * 8 + [QQ.one()]))
    assert parse_poly("[-1,+2]x+[1, 0]", F9) == parse_poly("[2,2]x+1", F9)


def test_poly_text_round_trip():
    f = P(F2, "x^3+x+1")
    assert format_poly(f) == "x^3+x+1"
    g = P(QQ, "1/2x^2-3x+2")
    assert parse_poly(format_poly(g), QQ) == g
    h = P(F4, "[1,1]x^2+[0,1]x+1")
    assert parse_poly(format_poly(h), F4) == h


def test_lcm():
    f = P(F2, "x+1") ** 2
    g = P(F2, "x^2+x+1") * P(F2, "x+1")
    assert poly_lcm(f, g) == (P(F2, "x+1") ** 2 * P(F2, "x^2+x+1")).monic()


# Polynomials are keyed on the row kernel's encoded coefficients (GF(2)
# bitmasks, ints mod p, Zech indices, Fractions, elements): the kernel's
# arithmetic against the element loop it replaced, kept here as the reference.


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_combine(field, a, b, op):
    z = field.zero()
    n = max(len(a), len(b))
    return _trim(op(a[i] if i < len(a) else z, b[i] if i < len(b) else z) for i in range(n))


def _ref_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_divmod(field, a, b):
    q = [field.zero()] * max(len(a) - len(b) + 1, 0)
    rem, inv = list(a), field.one() / b[-1]
    while rem and len(rem) >= len(b):
        shift = len(rem) - len(b)
        c = q[shift] = rem[-1] * inv
        for i, y in enumerate(b):
            rem[shift + i] = rem[shift + i] - c * y
        rem = list(_trim(rem))
    return _trim(q), tuple(rem)


def _ref_derivative(field, a):
    out = []
    for i in range(1, len(a)):
        s = field.zero()
        for _ in range(i):
            s = s + a[i]
        out.append(s)
    return _trim(out)


def _ref_pth_root(field, a):
    return _trim(a[i] ** (field.p ** (field.k - 1)) for i in range(0, len(a), field.p))


DIFFERENTIAL_FIELDS = [F2, F3, gf_build(5), F4, gf_build(3, 2), gf_build(2, 9), QQ,
                       gf_build(3, 6)]


def _elements(field):
    """A hypothesis strategy for the elements of ``field``, zero drawn often."""
    st = pytest.importorskip("hypothesis").strategies
    if field.is_finite:
        index = st.one_of(st.just(0), st.integers(0, field.order - 1))
        return index.map(field.element_from_index)
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _check_keys(f, coeffs):
    """f (a kernel result) against the Poly built from the element coefficients."""
    g = Poly(f.field, coeffs)
    assert f == g and hash(f) == hash(g) and f.coeffs == _trim(coeffs) and f.degree == g.degree
    assert f.sort_key() == g.sort_key() == (len(g.coeffs) - 1, tuple(map(f.field.sort_key, g.coeffs)))


@pytest.mark.parametrize("field", DIFFERENTIAL_FIELDS, ids=repr)
def test_poly_arithmetic_matches_element_loop(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.lists(_elements(field), max_size=9)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys, polys, _elements(field))
    def check(a, b, c):
        f, g = Poly(field, a), Poly(field, b)
        a, b = f.coeffs, g.coeffs
        _check_keys(f + g, _ref_combine(field, a, b, lambda x, y: x + y))
        _check_keys(f - g, _ref_combine(field, a, b, lambda x, y: x - y))
        _check_keys(-f, [-x for x in a])
        _check_keys(f * g, _ref_mul(field, a, b))
        _check_keys(f * c, [x * c for x in a])
        assert c * f == f * c
        _check_keys(f.derivative(), _ref_derivative(field, a))
        assert f(c) == _horner(a, c, field)
        if g.is_zero:
            return
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree
        rq, rr = _ref_divmod(field, a, b)
        _check_keys(q, rq)
        _check_keys(r, rr)
        _check_keys(g.monic(), [x * (field.one() / b[-1]) for x in b])
        assert g.monic().is_monic and g.is_monic == (b[-1] == field.one())
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d and d.is_monic
        assert (f % d).is_zero and (g % d).is_zero and d == poly_gcd(f, g)

    check()


def _horner(cs, value, field):
    acc = field.zero()
    for c in reversed(cs):
        acc = acc * value + c
    return acc


@pytest.mark.parametrize("field", [F for F in DIFFERENTIAL_FIELDS if F.is_finite], ids=repr)
def test_pth_root_matches_element_loop(field):
    # f = g(x^p) with the coefficients of g raised to the p-th power has f' = 0,
    # and its p-th root is g again
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    p = field.p

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(_elements(field), max_size=6))
    def check(b):
        g = Poly(field, b)
        cs = [field.zero()] * (p * g.degree + 1) if not g.is_zero else []
        for i, c in enumerate(g.coeffs):
            cs[i * p] = c**p
        f = Poly(field, cs)
        assert f.derivative().is_zero
        root = f.shift_compose_pth_root()
        assert root == g
        _check_keys(root, _ref_pth_root(field, f.coeffs))

    check()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # sympy sorts modular integers
@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_matches_sympy_over_prime_fields(p):
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field, x = gf_build(p), sympy.Symbol("x")

    def monic_mod_p(expr):
        cs = [int(c) % p for c in reversed(sympy.Poly(expr, x, modulus=p).all_coeffs())]
        return Poly(field, cs).monic()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.integers(0, p - 1), min_size=1, max_size=9))
    def check(low):
        f = Poly(field, low + [1])
        _, pairs = sympy.factor_list(sum(c * x**i for i, c in enumerate(low + [1])), modulus=p)
        expected = sorted(((monic_mod_p(g), m) for g, m in pairs), key=lambda pm: pm[0].sort_key())
        assert factor(f).factors == tuple(expected)

    check()
