import operator
import random
from fractions import Fraction

import pytest

from invlat.errors import FieldMismatchError, InfiniteFieldError
from invlat.fields import QQ, ExtensionField, FiniteField, gf_build, is_prime
from invlat.poly import Poly


def test_gf2_modulus_is_x():
    F = gf_build(2, 1)
    assert F.p == 2 and F.k == 1
    assert F.modulus == (0, 1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # independent oracle: enumerate all monic quadratics over F_2 and keep
    # the ones without a root; exactly one should survive.
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))

    rootless = [(c0, c1) for c0 in (0, 1) for c1 in (0, 1) if not has_root(c0, c1)]
    assert rootless == [(1, 1)]
    F = gf_build(2, 2)
    assert F.modulus == (1, 1, 1)
    assert F.order == 4


def test_gf_build_rejects_composite_characteristic():
    with pytest.raises(ValueError, match="not prime"):
        gf_build(4, 1)


def test_field_axioms_randomized():
    rng = random.Random(1234)
    for F in (gf_build(2, 1), gf_build(3, 1), gf_build(2, 2), gf_build(5, 1), gf_build(3, 2)):
        one = F.one()
        nonzero = [F.element_from_index(i) for i in range(1, F.order)]
        for _ in range(100):
            a = rng.choice(nonzero)
            assert a * a.inverse() == one
        for _ in range(50):
            a = F.element_from_index(rng.randrange(F.order))
            b = F.element_from_index(rng.randrange(F.order))
            c = F.element_from_index(rng.randrange(F.order))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a


def test_every_nonzero_element_invertible_exhaustive_gf9():
    for F in (gf_build(3, 2), gf_build(7), gf_build(2, 2), gf_build(2, 3), gf_build(5, 2)):
        seen = set()
        for i in range(1, F.order):
            a = F.element_from_index(i)
            assert a * a.inverse() == F.one()
            assert a.inverse().inverse() == a
            assert a ** -1 == a.inverse()
            seen.add(a)
        assert len(seen) == F.order - 1
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_products_match_polynomial_arithmetic(p, k):
    # independent route: multiply as polynomials over GF(p), reduce by the modulus
    F = gf_build(p, k)
    base = gf_build(p)
    mod = Poly(base, F.modulus)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            r = (Poly(base, a.c) * Poly(base, b.c)) % mod
            want = tuple(r.coefficient(i).c[0] for i in range(k))
            assert (a * b).c == want


def test_extension_inverses_cube_root_of_two():
    K = ExtensionField((-2, 0, 0, 1))  # Q[t]/(t^3-2)
    t = K.generator()
    assert t.inverse() == K.element([0, 0, Fraction(1, 2)])
    rng = random.Random(7)
    for _ in range(30):
        a = K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
        if not a:
            continue
        inv = a.inverse()
        assert a * inv == K.one()
        assert all(type(c) is Fraction for c in inv.c + (a * inv).c)
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()
    reducible = ExtensionField((-1, 0, 1))  # t^2 - 1 = (t-1)(t+1)
    with pytest.raises(ZeroDivisionError):
        reducible.element([-1, 1]).inverse()


def test_gf_build_moduli_pinned():
    expected = {
        (2, 3): (1, 1, 0, 1),
        (2, 4): (1, 1, 0, 0, 1),
        (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (5, 2): (2, 0, 1),
        (7, 2): (1, 0, 1),
        (5, 3): (1, 1, 0, 1),
    }
    for (p, k), modulus in expected.items():
        assert gf_build(p, k).modulus == modulus


def test_is_prime_matches_sieve_and_rejects_out_of_range():
    limit = 5000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    with pytest.raises(ValueError, match="range"):
        is_prime(2**89 - 1)
    with pytest.raises(ValueError):
        FiniteField(2**89 - 1)


def test_extension_size_bounds():
    # refused before any search or irreducibility test
    for p, k in ((2, 41), (2, 1000), (2**61 - 1, 11)):
        with pytest.raises(ValueError, match="beyond the supported size"):
            FiniteField(p, k, modulus=(1,) + (0,) * (k - 1) + (1,))
    with pytest.raises(ValueError, match="beyond the supported size"):
        FiniteField(3, 10**400)
    with pytest.raises(ValueError, match="no modulus search"):
        gf_build(2, 25)  # order 2^25
    with pytest.raises(ValueError, match="no modulus search"):
        gf_build(65537, 2)
    # with a modulus the same orders are accepted: a component's field K
    assert FiniteField(2, 25, modulus=(1, 0, 0, 1) + (0,) * 21 + (1,)).order == 2**25
    assert FiniteField(65537, 2, modulus=(65534, 0, 1)).order == 65537**2
    assert gf_build(2, 24).order == 2**24 and gf_build(3, 15).order == 3**15


def test_rationals_normalized():
    a = QQ.element("6/4")
    assert a == Fraction(3, 2)
    assert a.numerator == 3 and a.denominator == 2
    assert QQ.element(Fraction(-2, -4)) == Fraction(1, 2)


def test_field_mismatch_detected():
    F2, F3 = gf_build(2), gf_build(3)
    with pytest.raises(FieldMismatchError):
        F2.one() + F3.one()


def test_prime_fields_do_not_mix_on_the_fast_path():
    F3, F5 = gf_build(3), gf_build(5)
    a, b = F3.element(2), F5.element(2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(a, b)
        with pytest.raises(FieldMismatchError):
            op(a, 2)
    assert a != b
    # a separately built equal field still combines
    assert a * FiniteField(3).element(2) == F3.one()


@pytest.mark.parametrize("field", [gf_build(2), gf_build(3, 2), ExtensionField((-2, 0, 1))], ids=repr)
def test_scalar_times_matrix_or_polynomial_on_either_side(field):
    # an element hands a Matrix or a Poly operand back to Python, which calls
    # the reflected product; an element of another field still raises
    from invlat.matrix import Matrix

    c = field.one() + field.generator() if field.k > 1 else field.one()
    M = Matrix(field, [[field.one(), c], [field.zero(), c + field.one()]])
    f = Poly(field, (c, field.zero(), field.one()))
    assert c * M == M * c and c * f == f * c
    assert (c * M).rows[0][1] == c * c and (c * f).coeffs[0] == c * c
    assert field.zero() * M == Matrix.zeros(field, 2) and (field.zero() * f).is_zero
    other = gf_build(5).one()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatchError):
            op(c, other)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_zech_tables_match_element_arithmetic(p, k):
    F = gf_build(p, k)
    exp, log, zech = F.zech_tables()
    m = F.order - 1
    assert sorted(exp[:m]) == list(range(1, F.order))  # g is primitive
    assert F.zech_tables() is gf_build(p, k).zech_tables()  # built once
    for i in range(1, F.order):
        a = F.element_from_index(i)
        for j in range(1, F.order):
            b = F.element_from_index(j)
            assert exp[log[i] + log[j]] == F.index_of(a * b)
            z = zech[(log[j] - log[i]) % m]
            assert (0 if z == m else exp[log[i] + z]) == F.index_of(a + b)


def test_elements_enumeration_order_and_indexing():
    F = gf_build(2, 2)
    elems = list(F.elements())
    assert len(elems) == 4
    assert [F.index_of(a) for a in elems] == [0, 1, 2, 3]
    with pytest.raises(InfiniteFieldError):
        QQ.elements()


def test_extension_field_arithmetic_gaussian_rationals():
    K = ExtensionField((1, 0, 1))  # Q[t]/(t^2+1)
    i = K.generator()
    assert i * i == K.element(-1)
    a = K.element([1, 2])  # 1 + 2i
    b = K.element([3, -1])
    assert a * b == K.element([5, 5])
    assert (a / b) * b == a
    inv = a.inverse()
    assert a * inv == K.one()


def test_extension_field_equality_by_modulus():
    assert ExtensionField((1, 0, 1)) == ExtensionField((1, 0, 1))
    assert ExtensionField((1, 0, 1)) != ExtensionField((2, 0, 1))


def test_finite_field_modulus_validation():
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(0, 0, 1))  # x^2 reducible
    F = FiniteField(2, 2, modulus=(1, 1, 1))
    assert F == gf_build(2, 2)


def test_constant_embedding_and_fraction_coercion():
    F = gf_build(3)
    assert F.element(5) == F.element(2)
    assert F.element(Fraction(1, 2)) == F.element(2)  # 1/2 = 2 mod 3
    F4 = gf_build(2, 2)
    assert F4.element(1).c == (1, 0)
