"""Row kernels: one per field family, the encoded rows that matrices,
subspaces and polynomials compute on.

GF(2) rows are int bitmasks (bit j is coordinate j), GF(p) rows int lists
mod p, GF(p^k) rows (order <= TABLE_LIMIT) index lists combined through
the tables of ``fields``, Q rows int lists [d, n_0, ..., n_(m-1)] over one
positive denominator d in lowest terms, and larger GF(p^k) rows element
lists.  A kernel encodes (rows; ``scalar`` one element) and
decodes, reduces to RREF (``echelon``) or against the rows of one
(``reduce``), forms the row operation a - f b (``submul``), multiplies
(``matmul``), evaluates a polynomial at a matrix by Horner's rule
(``polyval``), and freezes, transposes, joins, splits and places rows.
matmul(a, b, n, c, first) gives the rows of AB + cE, E the rows first,
first + 1, ... of I and c an encoded scalar or None; B comes prepared
(``prepare``): as its encoded rows, or over Q as int columns over one
common denominator.  GF(2) XORs the rows of B that a row of A picks; GF(p)
takes int dot products with one reduction mod p per entry; GF(p^k) sums
table entries that hold the base-p digits of each product.  Q rows are
reduced fraction-free (Bareiss, Math. Comp. 22, 1968, content-dividing
form) and products and Horner's rule run on ints (A = A'/d, L the
denominator of f's coefficients: L d^D f(A) = sum_k L c_k d^(D-k) A'^k);
every Q operation ends with one gcd per row, so equal vectors have equal
rows, and a Fraction is made only for a scalar or a decoded element.
Pivots are leftmost and RREF is unique, so every kernel gives the element
loop's result.  A polynomial is a row of its coefficients, lowest degree
first; ``trim``, ``lead``, ``pmul``, ``pdivmod`` and ``power`` are its
operations (see ``poly``).
"""
from bisect import bisect
from fractions import Fraction
from itertools import islice, repeat
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
    scalar = staticmethod(lambda x: x)
    freeze = staticmethod(lambda rows: tuple(map(tuple, rows)))

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
    """GF(p^k) beyond the tables: lists of field elements.
    Subclasses change the encoding, the row operations row / x (scale) and
    a - f b (submul), and the products (matmul, pmul)."""

    nonzero = any
    encode = staticmethod(list)
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


def _canon(v):
    """The row v = [d, n_0, ..., n_(m-1)] (d nonzero) in lowest terms with d > 0."""
    g = gcd(*v)
    if v[0] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def _scaled(rows):
    """(rows, L): the rows rescaled to one denominator L, the lcm of theirs."""
    L = lcm(*(r[0] for r in rows))
    return [r if r[0] == L else [x * (L // r[0]) for x in r] for r in rows], L


class _RationalRows(_Rows):
    """Q: a row is [d, n_0, ..., n_(m-1)], the vector (n_0/d, ..., n_(m-1)/d)
    with d > 0 and gcd(d, n_0, ..., n_(m-1)) = 1, so equal vectors have equal
    rows (the zero row is [1, 0, ..., 0]).  Every operation computes on ints
    and ends with one gcd per row (``_canon``); a Fraction is made only by
    ``decode``, ``lead`` and for scalars, which stay Fractions.  A right
    operand is prepared as (columns, L): its rows over their common
    denominator L, as columns that open with a 0 facing a row's d."""

    one = Fraction(1)
    nonzero = staticmethod(lambda v: v.count(0) < len(v) - 1)  # d is never 0
    lead = staticmethod(lambda v: Fraction(v[-1], v[0]))

    @staticmethod
    def encode(row):
        d = lcm(*(x.denominator for x in row))
        return [d, *(x.numerator * (d // x.denominator) for x in row)]

    @staticmethod
    def decode(v, n):
        d = v[0]
        return tuple(Fraction(x, d) for x in v[1:])

    @staticmethod
    def prepare(rows):
        if not rows:
            return [], 1
        rows, L = _scaled(rows)
        return list(zip(repeat(0), *rows))[1:], L

    @staticmethod
    def transpose(rows, n):
        if not rows:
            return []
        rows, L = _scaled(rows)
        return [_canon(col) for col in islice(zip(repeat(L), *rows), 1, None)]

    @staticmethod
    def place(rows, offset, n):
        return [[r[0], *[0] * offset, *r[1:], *[0] * (n - offset - len(r) + 1)] for r in rows]

    @staticmethod
    def join(a, b, n):  # in lowest terms already: no prime divides both L and every entry
        if a[0] == b[0]:
            return [*a, *b[1:]]
        L = lcm(a[0], b[0])
        fa, fb = L // a[0], L // b[0]
        return [L, *(x * fa for x in a[1:]), *(x * fb for x in b[1:])]

    @staticmethod
    def tail(v, n):
        return _canon([v[0], *v[n + 1 :]])

    @staticmethod
    def split(v, n, k):
        return [_canon([v[0], *v[1 + i * n : 1 + (i + 1) * n]]) for i in range(k)]

    @staticmethod
    def trim(row):  # trailing zeros change no gcd: the row stays in lowest terms
        n = len(row)
        while n > 1 and not row[n - 1]:
            n -= 1
        return tuple(row[:n]), n - 2

    @staticmethod
    def scale(row, x):
        xn, xd = x.numerator, x.denominator
        return _canon([row[0] * xn, *(a * xd for a in row[1:])])

    @staticmethod
    def submul(a, f, b):
        """a - f b: over L = lcm(d_a, d_b f_d), (L/d_a) a - (f_n L/(d_b f_d)) b."""
        fn, fd = f.numerator, f.denominator
        if not fn:
            return a
        da, dbf = a[0], b[0] * fd
        L = lcm(da, dbf)
        ma, mb = L // da, fn * (L // dbf)
        row = [ma * x - mb * y for x, y in zip(a, b)]
        row[0] = L
        return _canon(row)

    @staticmethod
    def reduce(v, rows, pivots):
        """v minus, in turn, v's entry at each pivot c times that row (unit
        pivot rows: entry d at c).  On ints: with x the numerator at c and
        g = gcd(x, d), v <- (d/g) v - (x/g) row over (d/g) times v's d; one
        gcd at the end."""
        den, hit = v[0], False
        for row, c in zip(rows, pivots):
            x = v[c + 1]
            if x:
                d = row[0]
                g = gcd(x, d)
                s, t = d // g, x // g
                v = [s * a - t * b for a, b in zip(v, row)]
                den *= s
                hit = True
        if not hit:
            return v
        v[0] = den
        return _canon(v)

    @staticmethod
    def echelon(rows, n):
        """The nonzero rows of the RREF of ``rows`` and their pivot columns:
        Gauss-Jordan on primitive int rows (Bareiss, content-dividing form),
        each updated row divided by its content.  A primitive row's pivot p
        is prime to its content, so the row over p is in lowest terms."""
        work = []
        for r in rows:
            v = r[1:]
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
        out = []
        for r, c in zip(work, pivots):
            p = r[c]
            out.append([p, *r] if p > 0 else [-p, *(-x for x in r)])
        return out, pivots

    @staticmethod
    def matmul(a, b, n, c=None, first=0):
        """Rows of AB + cE: row i of A over d_a times B's columns over L is
        (A_i B') / (d_a L); with c = c_n/c_d both are scaled by c_d."""
        cols, L = b
        cols = cols or [(0,)] * n  # B with no rows: AB is zero
        out = []
        for i, r in enumerate(a, first + 1):
            row = [r[0] * L, *(sum(map(mul, r, col)) for col in cols)]
            if c:
                if c.denominator != 1:
                    row = [x * c.denominator for x in row]
                row[i] += c.numerator * r[0] * L
            out.append(_canon(row))
        return out

    @staticmethod
    def pmul(a, b):
        return _canon([a[0] * b[0], *_convolve(a[1:], b[1:], _dot)])

    @staticmethod
    def pdivmod(a, b):
        """Quotient and remainder rows of a by b (nonzero lead).  Pseudo-division
        on the int forms R / den of a and B / db of b: with c the top of R, a
        step R <- lead R - c x^s B, den <- lead den takes the quotient
        coefficient c db / (lead den) off the remainder."""
        den, r = a[0], list(a[1:])
        db, b = b[0], b[1:]
        d, lead, q = len(b) - 1, b[-1], []
        for s in range(len(r) - 1 - d, -1, -1):
            c = r[s + d]
            q.append((c, den))
            if c:
                r = [lead * x for x in r[:s]] + [lead * x - c * y for x, y in zip(r[s : s + d], b)]
                den *= lead
        return (_canon([lead * den, *(c * db * (den // e) for c, e in reversed(q))]),
                _canon([den, *r[:d]]))

    @staticmethod
    def polyval(f, a, n, first=0, count=None):
        """Rows first, ..., first + count - 1 (default all) of f(A) by Horner's
        rule, f a nonzero polynomial row over L and A = A'/d given by its
        prepared columns: L d^D f(A) = sum_k f_k d^(D-k) A'^k, on ints."""
        cols, d = a
        L, D = f[0], len(f) - 2
        ks = [x * d ** (D - k) for k, x in enumerate(f[1:])]
        rows = range(first + 1, n + 1 if count is None else first + count + 1)
        acc = [[0] * (n + 1) for _ in rows]
        for i, r in zip(rows, acc):
            r[i] = ks[-1]
        for x in reversed(ks[:-1]):
            acc = [[0, *(sum(map(mul, r, col)) for col in cols)] for r in acc]
            if x:
                for i, r in zip(rows, acc):
                    r[i] += x
        den = L * d**D
        for r in acc:
            r[0] = den
        return [_canon(r) for r in acc]


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
        elif field.k > 1 and field.order > TABLE_LIMIT:
            kern = _ElementRows(field)
        elif field.k > 1:
            kern = _ZechRows(field)
        else:
            kern = _GF2Rows(field) if field.p == 2 else _PrimeRows(field)
        field._row_kernel = kern
    return kern
