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
    with pytest.raises(FactorHintError):
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
