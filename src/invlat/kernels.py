"""Row kernels: one per field family, the encoded rows that matrices,
subspaces and polynomials compute on.

GF(2) rows are int bitmasks (bit j is coordinate j), GF(p) rows int lists
mod p, GF(p^k) rows (order <= TABLE_LIMIT) index lists combined through
the tables of ``fields``, Q rows Fraction lists, and Q[t]/(m) and larger
GF(p^k) rows element lists.  A kernel encodes (rows; ``scalar`` one
element) and decodes, reduces to RREF (``echelon``) or against the rows of
one (``reduce``), forms the row operation a - f b (``submul``), multiplies
(``matmul``), evaluates a polynomial at a matrix by Horner's rule
(``polyval``), and freezes, transposes, joins, splits and places rows.
matmul(a, b, n, c, first) gives the rows of AB + cE, E the rows first,
first + 1, ... of I and c an encoded scalar or None; B comes prepared
(``prepare``): as its encoded rows, or over Q as int rows over one common
denominator.  GF(2) XORs the rows of B that a row of A picks; GF(p) takes
int dot products with one reduction mod p per entry; GF(p^k) sums table
entries that hold the base-p digits of each product.  Q rows are reduced
fraction-free (Bareiss, Math. Comp. 22, 1968, content-dividing form) with
one Fraction per output entry, and products and Horner's rule run on ints
(A = A'/d, L the lcm of the coefficient denominators: L d^D f(A) =
sum_k L c_k d^(D-k) A'^k).  Pivots are leftmost and RREF is unique, so
every kernel gives the element loop's result.  A polynomial is a row of
its coefficients, lowest degree first; ``trim``, ``lead``, ``pmul``,
``pdivmod`` and ``power`` are its operations (see ``poly``).
"""

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul
import weakref

from .fields import QQ, GFElem

# TABLE_LIMIT is the largest GF(p^k), k > 1, reduced on table-coded
# indices: each process builds the tables on first use, in time linear in
# the order, and no workload uses a field between GF(9) and GF(2^16).
TABLE_LIMIT = 1 << 8


class _Rows:
    """A kernel reaches its field through a weak reference and keeps no field
    elements: the field holds its kernel (``row_kernel``), and a reference
    back would make every field a cycle that only the collector frees."""

    def __init__(self, field):
        self._field = weakref.ref(field)

    prepare = staticmethod(lambda rows: rows)

    @property
    def field(self):
        return self._field()


def _dot(x, y):
    return sum(map(mul, x, y))


def _int_matmul(a, b, c=0, first=0):
    """Rows of AB + cE (as for the kernels' matmul) for int rows."""
    cols = list(zip(*b))
    out = [[sum(map(mul, r, col)) for col in cols] for r in a]
    if c:
        for i, row in enumerate(out, first):
            row[i] += c
    return out


def _convolve(a, b, dot):
    """The coefficients sum_(i+j=k) a_i b_j of a product, lowest first, each
    one ``dot`` of a slice of a and a slice of b reversed."""
    m, rb = len(b), b[::-1]
    return [dot(a[max(0, k - m + 1) : k + 1], rb[max(0, m - 1 - k) :]) for k in range(len(a) + m - 1)]


class _GF2Rows(_Rows):
    """GF(2): a row is an int whose bit j is coordinate j."""

    one = 1
    nonzero = bool
    freeze = staticmethod(tuple)
    submul = staticmethod(lambda a, f, b: a ^ b if f else a)
    scalar = staticmethod(lambda x: x.c[0])
    place = staticmethod(lambda rows, offset, n: [r << offset for r in rows])
    trim = staticmethod(lambda v: (v, v.bit_length() - 1))
    lead = staticmethod(lambda v: 1)

    def matmul(self, a, b, n, c=None, first=0):
        # row i of AB: the XOR of the rows of B picked by the bits of row i of A
        out = [self.apply(b, r) for r in a]
        return [r ^ (1 << i) for i, r in enumerate(out, first)] if c else out

    def polyval(self, f, a, n, first=0, count=None):
        """Rows first, ..., first + count - 1 (default all) of f(A) by Horner's
        rule, f a nonzero polynomial row and A (n x n) given by its prepared rows."""
        acc = [1 << i for i in range(first, n if count is None else first + count)]
        for i in range(f.bit_length() - 2, -1, -1):
            acc = self.matmul(acc, a, n, f >> i & 1, first)
        return acc

    def pmul(self, a, b):  # the XOR of the shifts of b that the bits of a pick
        return self.apply([b << i for i in range(a.bit_length())], a)

    @staticmethod
    def pdivmod(a, b):
        q, d = 0, b.bit_length()
        while (s := a.bit_length() - d) >= 0:
            q |= 1 << s
            a ^= b << s
        return q, a

    @staticmethod
    def reduce(v, rows, pivots):
        for r, p in zip(rows, pivots):
            if (v >> p) & 1:
                v ^= r
        return v

    @staticmethod
    def apply(cols, v):  # M v, from the encoded columns of M
        w = 0
        while v:
            low = v & -v
            w ^= cols[low.bit_length() - 1]
            v ^= low
        return w

    def encode(self, row):
        v, bit = 0, 1
        for e in row:
            if e.c[0]:
                v |= bit
            bit <<= 1
        return v

    def decode(self, v, n):
        field = self.field
        elements = (field.zero(), field.one())
        return tuple(elements[(v >> j) & 1] for j in range(n))

    join = staticmethod(lambda a, b, n: a | b << n)

    def tail(self, v, n):  # the coordinates from n on, as a row
        return v >> n

    @staticmethod
    def split(v, n, k):  # the k consecutive width-n pieces of v, lowest first
        mask = (1 << n) - 1
        return [v >> i * n & mask for i in range(k)]

    @staticmethod
    def transpose(rows, n):
        cols = [0] * n
        for i, r in enumerate(rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return cols

    def echelon(self, vectors, n):
        rows, pivots = [], []
        for v in vectors:
            v = self.reduce(v, rows, pivots)
            if v:
                low = v & -v
                rows = [r ^ v if r & low else r for r in rows]
                i = bisect(pivots, low.bit_length() - 1)
                rows.insert(i, v)
                pivots.insert(i, low.bit_length() - 1)
        return rows, pivots


class _ElementRows(_Rows):
    """Q[t]/(m) and GF(p^k) beyond the tables: lists of field elements.
    Subclasses change the encoding, the row operations row / x (scale) and
    a - f b (submul), and the products (matmul, pmul)."""

    nonzero = any
    encode = staticmethod(list)
    scalar = staticmethod(lambda x: x)
    freeze = staticmethod(lambda rows: tuple(map(tuple, rows)))
    transpose = staticmethod(lambda rows, n: list(zip(*rows)))
    join = staticmethod(lambda a, b, n: [*a, *b])
    lead = staticmethod(itemgetter(-1))

    @property
    def zero(self):
        return self.field.zero()

    @property
    def one(self):
        return self.field.one()

    def decode(self, v, n):
        return tuple(v)

    def tail(self, v, n):
        return v[n:]

    @staticmethod
    def split(v, n, k):
        return [v[i * n : (i + 1) * n] for i in range(k)]

    def place(self, rows, offset, n):
        zero = self.zero
        return [[zero] * offset + list(r) + [zero] * (n - offset - len(r)) for r in rows]

    def scale(self, row, x):
        inv = self.one / x
        return [a * inv for a in row]

    def submul(self, a, f, b):
        return [x - f * y if y else x for x, y in zip(a, b)]

    @staticmethod
    def trim(row):
        n = len(row)
        while n and not row[n - 1]:
            n -= 1
        return tuple(row[:n]), n - 1

    def pmul(self, a, b):
        zero = self.zero
        return _convolve(a, b, lambda x, y: sum(map(mul, x, y), zero))

    def pdivmod(self, a, b):
        """Quotient and remainder rows of a by b (b[-1] nonzero)."""
        d, lead = len(b) - 1, b[-1]
        b, r, q = self.scale(b, lead), list(a), []
        for s in range(len(a) - 1 - d, -1, -1):
            c = r[s + d]
            q.append(c)
            if c:
                r[s : s + d + 1] = self.submul(r[s : s + d + 1], c, b)
        return self.scale(q[::-1], lead), r[:d]

    def power(self, row, e):
        return [x**e for x in row]

    def polyval(self, f, a, n, first=0, count=None):
        """Rows first, ..., first + count - 1 (default all) of f(A) by Horner's
        rule, f a nonzero polynomial row and A (n x n) given by its prepared rows."""
        zero = self.zero
        acc = [[f[-1] if j == i else zero for j in range(n)]
               for i in range(first, n if count is None else first + count)]
        for c in f[-2::-1]:
            acc = self.matmul(acc, a, n, c, first)
        return acc

    def echelon(self, rows, n):
        """The nonzero rows of the RREF of ``rows`` and their pivot columns."""
        rows, m, pivots = list(rows), len(rows), []
        for c in range(n):
            r = len(pivots)
            for i in range(r, m):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            if rows[r][c] != self.one:
                rows[r] = self.scale(rows[r], rows[r][c])
            for i in range(m):
                if rows[i][c] and i != r:
                    rows[i] = self.submul(rows[i], rows[i][c], rows[r])
            pivots.append(c)
            if r + 1 == m:
                break
        return rows[: len(pivots)], pivots

    def reduce(self, v, rows, pivots):
        for row, c in zip(rows, pivots):
            if v[c]:
                v = self.submul(v, v[c], row)
        return v

    def matmul(self, a, b, n, c=None, first=0):
        zero, out = self.zero, []
        for i, r in enumerate(a, first):
            acc = [zero] * n
            for x, row in zip(r, b):
                if x:
                    acc = self.submul(acc, -x, row)
            if c:
                acc[i] += c
            out.append(acc)
        return out


def _integral(rows):
    """(int rows, d): the Fraction rows are the int rows over d, the lcm of
    their denominators."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


class _RationalRows(_ElementRows):
    """Q: lists of Fractions.  Echelon forms and products clear denominators
    once and compute on ints; a right operand is prepared as (int rows, d)."""

    zero, one = Fraction(0), Fraction(1)
    prepare = staticmethod(_integral)

    def echelon(self, rows, n):
        """The nonzero rows of the RREF of ``rows`` and their pivot columns:
        Gauss-Jordan on primitive int rows, each updated row divided by its
        content, then one Fraction over the pivot per nonzero entry."""
        work = []
        for r in rows:
            d = lcm(*(x.denominator for x in r))
            v = [x.numerator * (d // x.denominator) for x in r]
            g = gcd(*v)
            if g:
                work.append([x // g for x in v] if g > 1 else v)
        m, pivots = len(work), []
        for c in range(n):
            k = len(pivots)
            for i in range(k, m):
                if work[i][c]:
                    break
            else:
                continue
            work[k], work[i] = work[i], work[k]
            prow = work[k]
            p = prow[c]
            for i in range(m):
                a = work[i][c]
                if a and i != k:
                    g = gcd(a, p)
                    f, h = p // g, a // g
                    v = [f * x - h * y for x, y in zip(work[i], prow)]
                    g = gcd(*v)
                    work[i] = [x // g for x in v] if g > 1 else v
            pivots.append(c)
            if k + 1 == m:
                break
        zero = self.zero
        return [[Fraction(x, r[c]) if x else zero for x in r] for r, c in zip(work, pivots)], pivots

    def matmul(self, a, b, n, c=None, first=0):
        (a, da), (b, db) = _integral(a), b
        d = da * db
        return [[Fraction(s, d) for s in row] for row in _int_matmul(a, b, c * d if c else 0, first)]

    def pmul(self, a, b):
        ((a,), da), ((b,), db) = _integral([a]), _integral([b])
        d = da * db
        return [Fraction(s, d) for s in _convolve(a, b, _dot)]

    def pdivmod(self, a, b):
        # Pseudo-division on the int forms R / den of a and B / db of b: with
        # c the top of R, a step R <- lead R - c x^s B, den <- lead den takes
        # the quotient coefficient c db / (lead den) off the remainder.
        ((r,), den), ((b,), db) = _integral([a]), _integral([b])
        d, lead, q = len(b) - 1, b[-1], []
        for s in range(len(r) - 1 - d, -1, -1):
            c = r[s + d]
            q.append(Fraction(c * db, lead * den))
            if c:
                r = [lead * x for x in r[:s]] + [lead * x - c * y for x, y in zip(r[s : s + d], b)]
                den *= lead
        return q[::-1], [Fraction(x, den) for x in r[:d]]

    def polyval(self, f, a, n, first=0, count=None):
        # With A = A'/d and L the lcm of the coefficient denominators,
        # L d^D f(A) = sum_k (L c_k d^(D-k)) A'^k: Horner on ints, one division.
        a, d = a
        D, L = len(f) - 1, lcm(*(c.denominator for c in f))
        ks = [c.numerator * (L // c.denominator) * d ** (D - k) for k, c in enumerate(f)]
        rows = range(first, n if count is None else first + count)
        acc = [[ks[-1] if j == i else 0 for j in range(n)] for i in rows]
        for x in reversed(ks[:-1]):
            acc = _int_matmul(acc, a, x, first)
        den = L * d**D
        return [[Fraction(s, den) for s in row] for row in acc]


class _PrimeRows(_ElementRows):
    """GF(p): lists of ints mod p; inverses by pow(x, -1, p), no tables."""

    zero, one = 0, 1
    scalar = staticmethod(lambda x: x.c[0])

    def __init__(self, field):
        super().__init__(field)
        self.p = field.p

    def encode(self, row):
        return [e.c[0] for e in row]

    def decode(self, v, n):
        field = self.field
        return tuple(GFElem(field, (x,)) for x in v)

    def scale(self, row, x):
        p, inv = self.p, pow(x, -1, self.p)
        return [a * inv % p for a in row]

    def submul(self, a, f, b):
        p = self.p
        return [(x - f * y) % p for x, y in zip(a, b)]

    def matmul(self, a, b, n, c=None, first=0):
        p = self.p
        return [[x % p for x in row] for row in _int_matmul(a, b, c, first)]

    def pmul(self, a, b):
        p = self.p
        return [s % p for s in _convolve(a, b, _dot)]


class _ZechRows(_ElementRows):
    """GF(p^k), k > 1, order <= TABLE_LIMIT: lists of element indices;
    products through the log/antilog tables, sums through Zech logarithms."""

    zero, one = 0, 1

    def __init__(self, field):
        super().__init__(field)
        self.p, self.k, self.m = field.p, field.k, field.order - 1
        self.exp, self.log, self.zech = field.zech_tables()
        self.neg = 0 if field.p == 2 else self.m // 2  # log of -1
        # Products: lg[x] is the log of index x, 2m for x = 0, and
        # spread[lg[x] + lg[y]] is xy with its base-p digits in 32-bit slots
        # (0 when x or y is 0), so a dot product is one sum of table entries.
        p, k, m = field.p, field.k, self.m
        self.lg = [2 * m] + list(self.log[1 : m + 1])
        self.spread = [sum(i // p**t % p << 32 * t for t in range(k)) for i in self.exp]
        self.spread += [0] * (2 * m + 1)

    def _code(self, s):  # the index of a digit-spread sum
        i, p = 0, self.p
        for t in range(32 * self.k - 32, -1, -32):
            i = i * p + (s >> t & 0xFFFFFFFF) % p
        return i

    def matmul(self, a, b, n, c=None, first=0):
        lg, get = self.lg, self.spread.__getitem__
        cols = [[lg[y] for y in col] for col in zip(*b)]
        out = []
        for i, r in enumerate(a, first):
            r = [lg[x] for x in r]
            row = [sum(map(get, map(add, r, col))) for col in cols]
            if c:
                row[i] += get(lg[c])
            out.append([self._code(s) for s in row])
        return out

    def pmul(self, a, b):
        lg, get = self.lg, self.spread.__getitem__
        dot = lambda x, y: sum(map(get, map(add, x, y)))  # digit sums of the products
        return [self._code(s) for s in _convolve([lg[x] for x in a], [lg[y] for y in b], dot)]

    def power(self, row, e):
        exp, log, m = self.exp, self.log, self.m
        return [exp[log[x] * e % m] if x else 0 for x in row]

    def encode(self, row):
        index_of = self.field.index_of
        return [index_of(e) for e in row]

    def scalar(self, x):
        return self.field.index_of(x)

    def decode(self, v, n):
        element_from_index = self.field.element_from_index
        return tuple(element_from_index(i) for i in v)

    def scale(self, row, x):
        exp, log, li = self.exp, self.log, self.m - self.log[x]
        return [exp[log[a] + li] if a else 0 for a in row]

    def submul(self, a, f, b):
        exp, log, zech, m = self.exp, self.log, self.zech, self.m
        lf = (log[f] + self.neg) % m  # log of -f
        out = []
        for x, y in zip(a, b):
            if y:
                t = log[y] + lf
                if x:  # x + g^t = g^lx (1 + g^(t - lx))
                    z = zech[(t - log[x]) % m]
                    x = 0 if z == m else exp[log[x] + z]
                else:
                    x = exp[t]
            out.append(x)
        return out


def row_kernel(field):
    """The row kernel of ``field``, made on first use and kept on the field."""
    kern = getattr(field, "_row_kernel", None)
    if kern is None:
        if field == QQ:
            kern = _RationalRows(field)
        elif not field.is_finite or (field.k > 1 and field.order > TABLE_LIMIT):
            kern = _ElementRows(field)
        elif field.k > 1:
            kern = _ZechRows(field)
        else:
            kern = _GF2Rows(field) if field.p == 2 else _PrimeRows(field)
        field._row_kernel = kern
    return kern
