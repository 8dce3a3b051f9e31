"""Dense univariate polynomials over an exact field.

A polynomial is keyed on its coefficients in the encoding of the field's
row kernel (``kernels``), lowest degree first with no trailing zeros: one
int bitmask over GF(2) (bit i is the coefficient of x^i), ints mod p over
GF(p), table indices over GF(p^k) <= 2^8, Fractions over Q and elements
otherwise.  The zero polynomial has degree -1 (a sentinel, never
meaningful numerically).  Sums and differences are the kernel's row
operation a - f b (``submul``; XOR over GF(2)), scalar multiples
``submul`` on a zero row, products ``pmul`` (shift-XOR over GF(2), one dot
product per output coefficient otherwise: ints mod p, the tables' digit
sums, or ints over the two lcm denominators over Q), division with
remainder ``pdivmod`` (shifted rows of the monic divisor subtracted),
``monic`` the kernel's ``scale``, the derivative, the p-th root and
evaluation at a field element one ``matmul`` or ``polyval`` of the row.
Element coefficients are decoded on first use, for output.

Besides ring arithmetic this module provides monic gcd, separability
testing, and full factorization: over a finite field by squarefree
decomposition + distinct-degree splitting + seeded Cantor-Zassenhaus,
over Q by squarefree decomposition + rational-root extraction for the
easy degrees, with a verified user hint for anything harder (a quadratic
is checked by its discriminant, with no search).  The rational-root search
refuses (CapExceededError) integer end coefficients beyond
ROOT_SEARCH_BOUND or with over ROOT_SEARCH_PAIRS divisor pairs.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .errors import CapExceededError, FactorHintError, FieldMismatchError
from .fields import QQ, FiniteField, RationalField
from .kernels import row_kernel

__all__ = [
    "Poly",
    "poly_gcd",
    "poly_xgcd",
    "poly_lcm",
    "is_separable",
    "is_irreducible",
    "Factorization",
    "factor",
    "parse_poly",
    "format_poly",
]


class Poly:
    """A polynomial keyed (equality, hashing) on its coefficient row in the
    encoding of the field's row kernel, lowest degree first and trimmed
    (``enc``); its element coefficients (``coeffs``) are decoded on first use."""

    __slots__ = ("field", "kern", "enc", "degree", "_coeffs", "_hash")

    def __init__(self, field, coeffs=()):
        kern = row_kernel(field)
        self._init(field, kern, kern.encode([field.element(c) for c in coeffs]))

    def _init(self, field, kern, row):
        self.field, self.kern = field, kern
        self.enc, self.degree = kern.trim(row)  # degree -1 is the zero polynomial
        self._coeffs = self._hash = None

    @classmethod
    def encoded(cls, field, row):
        """The polynomial whose coefficients are the kernel row ``row``."""
        f = object.__new__(cls)
        f._init(field, row_kernel(field), row)
        return f

    def _new(self, row):
        f = object.__new__(Poly)
        f._init(self.field, self.kern, row)
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    # -- basics -------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as field elements, lowest degree first."""
        if self._coeffs is None:
            self._coeffs = self.kern.decode(self.enc, self.degree + 1)
        return self._coeffs

    @property
    def is_zero(self):
        return self.degree < 0

    @property
    def lead(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return self.degree >= 0 and self.kern.lead(self.enc) == self.kern.one

    def coefficient(self, i):
        return self.coeffs[i] if i <= self.degree else self.field.zero()

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self._new(self.kern.scale(self.enc, self.kern.lead(self.enc)))

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(f"polynomials over different fields: {self.field!r} vs {other.field!r}")

    # -- ring operations ----------------------------------------------

    def _minus(self, f, other):
        """self - f other, f = 1 or -1, by the kernel's row operation."""
        self._check(other)
        kern = self.kern
        a, b = kern.place([self.enc, other.enc], 0, max(self.degree, other.degree) + 1)
        return self._new(kern.submul(a, kern.scalar(self.field.element(f)), b))

    def __add__(self, other):
        return self._minus(-1, other)

    def __sub__(self, other):
        return self._minus(1, other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            if self.is_zero or other.is_zero:
                return Poly.zero(self.field)
            return self._new(self.kern.pmul(self.enc, other.enc))
        c, kern = self.field.element(other), self.kern
        if not c or self.is_zero:
            return Poly.zero(self.field)
        zero = kern.place([kern.encode(())], 0, self.degree + 1)[0]
        return self._new(kern.submul(zero, kern.scalar(-c), self.enc))

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        q, r = self.kern.pdivmod(self.enc, other.enc)
        return self._new(q), self._new(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, value):
        """Horner evaluation at a field element: f at the 1 x 1 matrix (value)."""
        kern = self.kern
        if self.is_zero:
            return self.field.zero()
        a = kern.prepare([kern.encode((self.field.element(value),))])
        return kern.decode(kern.polyval(self.enc, a, 1)[0], 1)[0]

    def _linear(self, row, rows, n):
        """The polynomial whose coefficients are ``row`` times the matrix ``rows`` (n columns)."""
        return self._new(self.kern.matmul([row], self.kern.prepare(rows), n)[0])

    def derivative(self):
        """f' = sum_i i c_i x^(i-1): the coefficients of f from x on times diag(1, ..., deg f)."""
        d, kern, field = self.degree, self.kern, self.field
        if d < 1:
            return Poly.zero(field)
        diag = [kern.place([kern.encode((field.element(i),))], i - 1, d)[0] for i in range(1, d + 1)]
        return self._linear(kern.tail(self.enc, 1), diag, d)

    def shift_compose_pth_root(self):
        """For f with f' = 0 over GF(p^k): the g with g(x^p) = f, whose
        coefficients are those of f at the multiples of p (a 0/1 matrix), each
        mapped by the inverse Frobenius c -> c^(p^(k-1))."""
        fld, kern, p = self.field, self.kern, self.field.p
        n, one, zero = self.degree // p + 1, kern.encode((fld.one(),)), kern.encode(())
        pick = [kern.place([zero if j % p else one], j // p, n)[0] for j in range(self.degree + 1)]
        g = self._linear(self.enc, pick, n)
        return g if fld.k == 1 else self._new(kern.power(g.enc, p ** (fld.k - 1)))

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.enc == self.enc
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.enc)
        return self._hash

    def sort_key(self):
        return (self.degree, tuple(self.field.sort_key(c) for c in self.coeffs))

    def __repr__(self):
        return format_poly(self)


# ----------------------------------------------------------------------


def poly_gcd(f, g):
    """Monic greatest common divisor; poly_gcd(f, 0) = monic(f)."""
    f._check(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def poly_xgcd(f, g):
    """(d, u, v) with u*f + v*g = d, d monic: Euclid's algorithm carries u,
    and v = (d - u*f) / g is one exact division at the end."""
    f._check(g)
    r0, r1 = f, g
    u0, u1 = Poly.one(f.field), Poly.zero(f.field)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if not r0.is_zero:
        r0, u0 = r0.monic(), u0 * (f.field.one() / r0.lead)
    return r0, u0, g if g.is_zero else (r0 - u0 * f) // g


def poly_lcm(f, g):
    if f.is_zero or g.is_zero:
        return Poly.zero(f.field)
    return ((f * g) // poly_gcd(f, g)).monic()


def is_separable(f):
    """True iff gcd(f, f') = 1.  Errors on constants."""
    if f.degree < 1:
        raise ValueError("separability is undefined for constant polynomials")
    return poly_gcd(f, f.derivative()).degree == 0


def is_irreducible(f):
    """Irreducibility over the polynomial's own field.

    Finite fields: one distinct-degree pass finds no factor of degree at
    most deg f / 2.  Q: degree 2 by its discriminant, degree 3 via rational
    roots; larger degrees raise (callers use factorization hints there).
    """
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    fld = f.field
    if isinstance(fld, FiniteField):
        return _distinct_degree_split(f) == [(f, f.degree)]
    if isinstance(fld, RationalField):
        if f.degree == 2:  # irreducible iff b^2 - 4ac is not a rational square
            c, b, a = f.coeffs
            d = b * b - 4 * a * c
            return d < 0 or any(isqrt(x) ** 2 != x for x in (d.numerator, d.denominator))
        if f.degree == 3:
            return not _rational_roots(f)
        raise ValueError("irreducibility over QQ undecided for degree > 3; supply a hint")
    raise TypeError(f"irreducibility test unsupported over {fld!r}")


def _powmod(base, e, mod):
    result = Poly.one(base.field) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


# ----------------------------------------------------------------------
# Factorization.


@dataclass(frozen=True)
class Factorization:
    """Factors as (irreducible monic Poly, multiplicity), sorted canonically.

    ``trusted`` marks rational factorizations whose irreducibility rests on
    an unverifiable user hint (degree >= 4 factors).  ``seed`` is the PRNG
    seed used by the equal-degree splitting, recorded for reproducibility.
    """

    factors: tuple
    trusted: bool = False
    seed: int = 0

    def expand(self):
        return prod((p**m for p, m in self.factors), start=Poly.one(self.factors[0][0].field))

    def __iter__(self):
        return iter(self.factors)


def factor(f, *, hint=None, seed=0):
    """Factor a monic polynomial of degree >= 1 into irreducible powers.

    Finite fields need no hint.  Over Q a hint (iterable of (Poly, mult))
    is verified and used; without one, squarefree splitting plus rational
    roots handles everything whose root-free parts have degree <= 3.
    """
    if not f.is_monic:
        raise ValueError("factor() requires a monic polynomial")
    if f.degree < 1:
        raise ValueError("factor() requires degree >= 1")
    fld = f.field
    if isinstance(fld, FiniteField):
        pairs = []
        for g, mult in _squarefree_decomposition(f):
            for h in _factor_squarefree(g, random.Random(seed)):
                pairs.append((h, mult))
        pairs.sort(key=lambda pm: pm[0].sort_key())
        result = Factorization(tuple(pairs), trusted=False, seed=seed)
        _verify_factorization(f, result)
        return result
    if isinstance(fld, RationalField):
        if hint is not None:
            return _verified_hint(f, hint, seed)
        return _factor_rationals(f, seed)
    raise TypeError(f"factorization unsupported over {fld!r}")


def _verify_factorization(f, result):
    for p, _ in result.factors:
        if not p.is_monic:
            raise FactorHintError(f"factor {p!r} is not monic")
    if result.expand() != f:
        raise FactorHintError("product of factors does not reproduce the input")
    for a, b in combinations([p for p, _ in result.factors], 2):
        if poly_gcd(a, b).degree != 0:
            raise FactorHintError(f"factors {a!r} and {b!r} are not coprime")
    for p, _ in result.factors:
        # a trusted hint vouches only for its factors of degree > 3
        if not (result.trusted and p.degree > 3) and not is_irreducible(p):
            raise FactorHintError(f"claimed factor {p!r} is reducible")


def _squarefree_decomposition(f):
    """Multiplicity-graded squarefree split of a monic f, characteristic-p
    aware: when f' = 0, c = gcd(f, f') = f goes whole to the p-th root."""
    fld = f.field
    out = []
    c = poly_gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z.monic(), i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        g = c.shift_compose_pth_root()
        for h, m in _squarefree_decomposition(g):
            out.append((h, m * fld.p))
    return out


def _factor_squarefree(f, rng):
    """Irreducible factors of a squarefree monic f over a finite field."""
    out = []
    for g, d in _distinct_degree_split(f):
        out.extend(_equal_degree_split(g, d, rng))
    return out


def _distinct_degree_split(f):
    fld = f.field
    q = fld.order
    x = Poly.x(fld)
    pieces = []
    h = x
    d = 0
    rest = f
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            pieces.append((rest, rest.degree))
            break
        h = _powmod(h, q, rest)
        g = poly_gcd(h - x, rest)
        if g.degree > 0:
            pieces.append((g, d))
            rest = rest // g
            h = h % rest
    return pieces


def _equal_degree_split(f, d, rng):
    """Cantor-Zassenhaus: f squarefree, all factors of degree d."""
    fld = f.field
    if f.degree == d:
        return [f.monic()]
    q = fld.order
    while True:
        h = Poly(fld, tuple(fld.element_from_index(rng.randrange(q)) for _ in range(f.degree)))
        if h.degree < 1:
            continue
        g = poly_gcd(h, f)
        if 0 < g.degree < f.degree:
            break
        if fld.p == 2:
            # trace map over GF(2^k): T(h) = h + h^2 + ... + h^(2^(d*k-1))
            t = Poly.zero(fld)
            acc = h % f
            for _ in range(d * fld.k):
                t = (t + acc) % f
                acc = (acc * acc) % f
            g = poly_gcd(t, f)
        else:
            t = _powmod(h, (q**d - 1) // 2, f) - Poly.one(fld)
            g = poly_gcd(t, f)
        if 0 < g.degree < f.degree:
            break
    left = _equal_degree_split(g.monic(), d, rng)
    right = _equal_degree_split((f // g).monic(), d, rng)
    return sorted(left + right, key=lambda p: p.sort_key())


# The rational-root search trial-divides up to the square root of the lowest
# and the leading integer coefficient, then tests a root per pair of their
# divisors: at most about 10^6 steps each.
ROOT_SEARCH_BOUND = 10**12
ROOT_SEARCH_PAIRS = isqrt(ROOT_SEARCH_BOUND)


def _rational_roots(f):
    """All rational roots of f with multiplicity, via the rational root theorem.

    Raises CapExceededError when the lowest or the leading coefficient of the
    integer form exceeds ROOT_SEARCH_BOUND, or their divisor pairs ROOT_SEARCH_PAIRS.
    """
    den = lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = gcd(*ints)
    # strip powers of x first
    low = next((i for i, c in enumerate(ints) if c), 0)
    roots, ints = [Fraction(0)] * low, [c // g for c in ints[low:]]
    if len(ints) <= 1:
        return roots
    a0, aN = abs(ints[0]), abs(ints[-1])
    if max(a0, aN) > ROOT_SEARCH_BOUND:
        raise CapExceededError(
            f"rational-root search refused: a coefficient of {format_poly(f)} exceeds "
            f"{ROOT_SEARCH_BOUND} after clearing denominators; give the factorization with --hint",
            count=max(a0, aN),
            cap=ROOT_SEARCH_BOUND,
        )
    nums, dens = _divisors(a0), _divisors(aN)
    pairs = len(nums) * len(dens)
    if pairs > ROOT_SEARCH_PAIRS:
        raise CapExceededError(
            f"rational-root search refused: the end coefficients of {format_poly(f)} have "
            f"{pairs} divisor pairs, over {ROOT_SEARCH_PAIRS}; give the factorization with --hint",
            count=pairs,
            cap=ROOT_SEARCH_PAIRS,
        )
    cands = {Fraction(sign * a, b) for a in nums for b in dens for sign in (1, -1)}
    poly = Poly(QQ, [Fraction(c) for c in ints])
    for r in sorted(cands):
        while poly.degree > 0 and not poly(r):
            roots.append(r)
            poly = poly // Poly(QQ, (-r, 1))
    return roots


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)}) if n else [1]


def _factor_rationals(f, seed):
    pairs = {}
    for g, mult in _squarefree_decomposition(f):
        rest = g
        for r in _rational_roots(g):
            lin = Poly(QQ, (-r, 1))
            pairs[lin] = pairs.get(lin, 0) + mult
            rest = rest // lin
        if rest.degree == 0:
            continue
        if rest.degree > 3:
            raise FactorHintError(
                f"factorization hint required: degree-{rest.degree} root-free part {rest!r} over QQ"
            )
        # degree 2 or 3 with no rational root is irreducible
        pairs[rest.monic()] = pairs.get(rest.monic(), 0) + mult
    items = sorted(pairs.items(), key=lambda pm: pm[0].sort_key())
    result = Factorization(tuple(items), trusted=False, seed=seed)
    _verify_factorization(f, result)
    return result


def _verified_hint(f, hint, seed):
    pairs = []
    for p, m in hint:
        if not isinstance(p, Poly):
            raise FactorHintError("hint entries must be (Poly, multiplicity)")
        if p.field != f.field:
            raise FieldMismatchError("hint factor over a different field")
        if int(m) < 1:
            raise FactorHintError("hint multiplicities must be positive")
        pairs.append((p.monic(), int(m)))
    if sum(m * p.degree for p, m in pairs) != f.degree:  # before any p**m is expanded
        raise FactorHintError(f"hint degrees do not add up to the degree {f.degree} of {f!r}")
    pairs.sort(key=lambda pm: pm[0].sort_key())
    trusted = any(p.degree > 3 for p, _ in pairs)
    result = Factorization(tuple(pairs), trusted=trusted, seed=seed)
    _verify_factorization(f, result)
    return result


# ----------------------------------------------------------------------
# Text syntax: "x^2+x+1", decimal coefficients, "a/b" fractions over Q,
# "[c0,c1,...]" coefficient-vector literals over GF(p^k).


def format_poly(f, var="x"):
    if f.is_zero:
        return "0"
    fld = f.field
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coefficient(i)
        if not c:
            continue
        cs = _format_coeff(fld, c)
        if i == 0:
            terms.append(cs)
        else:
            v = var if i == 1 else f"{var}^{i}"
            terms.append(v if cs == "1" else f"{cs}{v}")
    out = terms[0]
    for t in terms[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


def _format_coeff(fld, c):
    if isinstance(fld, FiniteField):
        if fld.k == 1:
            return str(c.c[0])
        return "[" + ",".join(str(d) for d in c.c) + "]"
    return str(c)


def parse_poly(text, field, var="x", max_degree=None):
    """Parse the CLI polynomial syntax into a Poly over ``field``; an exponent
    above ``max_degree`` is a ValueError, raised before any term is built."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    terms = []
    buf = ""
    depth = 0
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and buf not in ("", "+", "-"):
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs = {}
    for term in terms:
        sign = 1
        t = term
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if not t:
            raise ValueError(f"malformed term {term!r}")
        if var in t:
            head, _, tail = t.partition(var)
            head = head.rstrip("*")
            exp = 1
            if tail:
                if not tail.startswith("^"):
                    raise ValueError(f"malformed term {term!r}")
                exp = int(tail[1:])
            if max_degree is not None and exp > max_degree:
                raise ValueError(f"exponent {exp} in {term!r} exceeds {max_degree}")
            cstr = head if head else "1"
        else:
            cstr = t
            exp = 0
        c = _parse_coeff(cstr, field)
        if sign < 0:
            c = -c
        coeffs[exp] = coeffs.get(exp, field.zero()) + c
    deg = max(coeffs) if coeffs else 0
    return Poly(field, tuple(coeffs.get(i, field.zero()) for i in range(deg + 1)))


def _parse_coeff(s, field):
    """One coefficient over ``field``; ValueError for anything that is not one."""
    try:
        if s.startswith("["):
            if not s.endswith("]"):
                raise ValueError(f"malformed coefficient vector {s!r}")
            parts = [p for p in s[1:-1].split(",") if p]
            return field.element([int(p) for p in parts])
        if "/" in s:
            return field.element(Fraction(s))
        return field.element(int(s))
    except (ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"invalid coefficient {s!r} over {field!r}: {exc}") from exc
