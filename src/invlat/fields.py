"""Exact base fields.

Three kinds of field appear:

* ``QQ`` -- the rationals; elements are ``fractions.Fraction`` (always in
  lowest terms with positive denominator).
* ``FiniteField(p, k, modulus)`` -- GF(p^k) presented as Z_p[x] modulo a
  monic irreducible of degree k; elements carry a coefficient vector of
  length k over Z_p.  ``gf_build(p, k)`` picks the modulus
  deterministically (numerically least monic irreducible, coefficients
  read as base-p digits, constant term least significant) so results are
  reproducible.  The characteristic must be below 3.3e24, the range in
  which the Miller-Rabin test of ``is_prime`` is exact.  For k > 1 the
  size is bounded before any modulus is searched or tested:
  k^3 log2(p) <= ``MAX_EXTENSION_COST``, and p^k <= ``MAX_SEARCH_ORDER``
  when no modulus is given.
* ``ExtensionField(modulus)`` -- the name of K = Q[t]/(m(t)), m monic
  irreducible over Q, the field generated by a semisimple operator over
  the rationals, as reports print it.  It has no arithmetic: the engine
  holds K-subspaces as the rational subspaces the operator maps into
  themselves.

GF(p^k) multiplies through one multiply-and-reduce helper (GF(p) skips
it) and inverts by Fermat's little theorem; moduli are checked with
``poly.is_irreducible`` over GF(p); ``poly`` imports this module, so that
import is local.

The row codec of the ``kernels``: a GF(p^k) element is coded by its
index (coefficients as base-p digits, ``index_of`` / ``element_from_index``);
for k > 1, ``zech_tables`` gives log/antilog/Zech tables over indices,
built on first use and cached per (p, k, modulus); ``kernels`` uses them
for orders <= 2^8.  Values are immutable and operations pure; the tables
are a cache.
"""

from array import array
from fractions import Fraction
from functools import cache
from math import log2

from .errors import FieldMismatchError, InfiniteFieldError

__all__ = [
    "QQ",
    "RationalField",
    "FiniteField",
    "GFElem",
    "ExtensionField",
    "gf_build",
    "is_prime",
]

# GF(p^k), k > 1: the irreducibility test of a modulus (one distinct-degree
# pass) takes about k^3 log2(p) coefficient products and a modulus search may
# test up to p^k candidates, so FiniteField refuses fields beyond these bounds,
# such as gf_build(2, 32).
MAX_EXTENSION_COST = 1 << 16
MAX_SEARCH_ORDER = 1 << 24

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Least strong pseudoprime to all of _MR_BASES: the test is exact below it.
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin primality; n >= 3.3e24 raises ValueError."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the supported prime range (below {_MR_LIMIT})")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _mulmod(a, b, mod):
    """Coefficients of a*b modulo the monic ``mod`` (a, b of length deg mod)."""
    k = len(mod) - 1
    out = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k):
                out[i - k + j] -= c * mod[j]
    return out[:k]


def _format_terms(c, var):
    """Coefficient vector (ascending degree) as text, highest term first."""
    terms = []
    for i in range(len(c) - 1, -1, -1):
        ci = c[i]
        if ci == 0:
            continue
        if i == 0:
            terms.append(str(ci))
        else:
            v = var if i == 1 else f"{var}^{i}"
            terms.append(v if ci == 1 else f"{ci}{v}")
    return "+".join(terms) if terms else "0"


# ----------------------------------------------------------------------


class RationalField:
    """The field of rational numbers; elements are Fraction values."""

    is_finite = False
    characteristic = 0
    order = None

    def element(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def sort_key(self, a):
        return a

    def format_element(self, a):
        return str(a)

    def elements(self):
        raise InfiniteFieldError("infinite field: QQ has no element enumeration")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class GFElem:
    """Element of GF(p^k): c is an int tuple of length k over Z_p, reduced."""

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = c

    def _check(self, other):
        """True for an element of this field, False for an operand that is no
        scalar (a Matrix, a Poly: Python then tries its reflected operation)."""
        if other.__class__ is GFElem:
            if other.field is self.field or other.field == self.field:
                return True
        if isinstance(other, (int, Fraction, GFElem)):
            raise FieldMismatchError(f"cannot combine {self!r} with {other!r}")
        return False

    def __truediv__(self, other):
        if not self._check(other):
            return NotImplemented
        return self * other.inverse()

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        return other.__class__ is GFElem and other.field == self.field and other.c == self.c

    def __hash__(self):
        return hash((self.field, self.c))

    def __repr__(self):
        return self.field.format_element(self)

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        f = self.field
        return GFElem(f, tuple((a + b) % f.p for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        f = self.field
        return GFElem(f, tuple((a - b) % f.p for a, b in zip(self.c, other.c)))

    def __neg__(self):
        p = self.field.p
        return GFElem(self.field, tuple((-a) % p for a in self.c))

    def __mul__(self, other):
        if not self._check(other):
            return NotImplemented
        f = self.field
        return GFElem(f, tuple(x % f.p for x in _mulmod(self.c, other.c, f.modulus)))

    def inverse(self):
        f = self.field
        if not self:
            raise ZeroDivisionError("inverse of zero in " + repr(f))
        if f.k == 1:
            return GFElem(f, (pow(self.c[0], -1, f.p),))
        return self ** (f.order - 2)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result, base = self.field.one(), self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


class FiniteField:
    """GF(p^k) with a fixed monic irreducible modulus over Z_p.

    ``modulus`` is an int coefficient tuple (ascending degree, length k+1,
    leading coefficient 1).  Two fields compare equal iff (p, k, modulus)
    agree.
    """

    is_finite = True

    def __init__(self, p, k=1, modulus=None):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not isinstance(k, int) or k < 1:
            raise ValueError("extension degree must be a positive integer")
        if k > 1 and log2(p) > MAX_EXTENSION_COST / k**3:  # no float overflow for huge k
            raise ValueError(
                f"GF({p}^{k}) is beyond the supported size (k^3 log2 p <= {MAX_EXTENSION_COST})"
            )
        if modulus is None and k > 1 and p**k > MAX_SEARCH_ORDER:
            raise ValueError(
                f"GF({p}^{k}): no modulus search beyond order {MAX_SEARCH_ORDER}; give the modulus"
            )
        if modulus is None:
            modulus = _find_modulus(p, k)
        modulus = _trim(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible over GF(%d)" % p)
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self.characteristic = p

    def element(self, value):
        if value.__class__ is GFElem and value.field is self:
            return value
        if isinstance(value, GFElem):
            if value.field != self:
                raise FieldMismatchError(f"{value!r} belongs to {value.field!r}, not {self!r}")
            return value
        if isinstance(value, int):
            # constant embedding of the prime field
            return GFElem(self, (value % self.p,) + (0,) * (self.k - 1))
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes in {self!r}")
            num = value.numerator % self.p
            den = pow(value.denominator % self.p, -1, self.p)
            return GFElem(self, ((num * den) % self.p,) + (0,) * (self.k - 1))
        if isinstance(value, (list, tuple)):
            if len(value) > self.k:
                raise ValueError(f"coefficient vector longer than {self.k}")
            c = tuple(int(v) % self.p for v in value)
            return GFElem(self, c + (0,) * (self.k - len(c)))
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def zero(self):
        return GFElem(self, (0,) * self.k)

    def one(self):
        return GFElem(self, (1,) + (0,) * (self.k - 1))

    def generator(self):
        """The residue class of x (equals the chosen root of the modulus)."""
        if self.k == 1:
            raise ValueError("prime field has no extension generator")
        return GFElem(self, (0, 1) + (0,) * (self.k - 2))

    def element_from_index(self, i):
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return GFElem(self, tuple(digits))

    def index_of(self, a):
        i = 0
        for c in reversed(a.c):
            i = i * self.p + c
        return i

    def elements(self):
        """All field elements in index order (deterministic)."""
        for i in range(self.order):
            yield self.element_from_index(i)

    def sort_key(self, a):
        return self.index_of(a)

    @cache  # once per (p, k, modulus): equal fields share the tables
    def zech_tables(self):
        """16-bit (exp, log, zech): with g the least primitive element and
        m = order - 1, exp[j] = g^j (j < 2m), log[exp[j]] = j, and
        zech[d] = log(1 + g^d), or m where 1 + g^d = 0.  Meant for small
        fields: time and memory grow with the order."""
        p, m, one = self.p, self.order - 1, self.one()
        for i in range(2, self.order):  # least index of a primitive element
            g = self.element_from_index(i)
            if all(g ** (m // r) != one for r in range(2, m + 1) if m % r == 0 and is_prime(r)):
                break
        exp, log = array("H", bytes(4 * m)), array("H", bytes(2 * m + 2))
        zech = array("H", bytes(2 * m))
        x = one
        for j in range(m):
            exp[j] = exp[j + m] = i = self.index_of(x)
            log[i] = j
            x = x * g
        for d in range(m):
            i = exp[d]
            i += 1 if i % p != p - 1 else 1 - p  # add 1 to the constant coefficient
            zech[d] = log[i] if i else m
        return exp, log, zech

    def format_element(self, a):
        return _format_terms(a.c, "a")

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.k == self.k
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})[{_format_terms(self.modulus, 'x')}]"


@cache  # once per (modulus, p): a K built from a proven factor is not re-tested
def _is_irreducible(c, p):
    """Irreducibility of the int coefficient tuple c over GF(p) (``poly.is_irreducible``).

    Degree one needs no test, which also keeps GF(p) itself out of a loop.
    """
    if len(c) == 2:
        return True
    from .poly import Poly, is_irreducible

    return is_irreducible(Poly(FiniteField(p), c))


def _find_modulus(p, k):
    """Numerically least monic irreducible of degree k over Z_p."""
    for idx in range(p**k):
        cand = tuple(idx // p**i % p for i in range(k)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible modulus found (impossible for prime p)")


def gf_build(p, k=1):
    """GF(p^k) with the deterministically chosen least monic irreducible modulus."""
    return FiniteField(p, k)


# ----------------------------------------------------------------------


class ExtensionField:
    """The name of Q[t]/(m(t)), m monic over Q and irreducible as the caller
    knows: its modulus, for reports; it has no elements."""

    is_finite = False

    def __init__(self, modulus):
        self.modulus = _trim(Fraction(c) for c in modulus)

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("QQext", self.modulus))

    def __repr__(self):
        return f"QQ[t]/({_format_terms(self.modulus, 't')})"
