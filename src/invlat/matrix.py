"""Dense exact matrices over a field, and the row kernels that reduce them.

A matrix is immutable and keyed (equality, hashing) on its rows in the
encoding of the field's row kernel: GF(2) rows are int bitmasks, GF(p)
rows int lists mod p, GF(p^k) rows (order <= TABLE_LIMIT) index lists
combined through the tables of ``fields``, Q rows Fraction lists, and
Q[t]/(m) and larger GF(p^k) rows element lists.  Its element rows are
decoded on first use, for output and the few element-level callers, and
its columns, in the kernel's right-operand form, are made once and kept.
Products (``@``, so powers and the self-checks), sums, scalar multiples,
matrix-vector products, polynomial evaluation (``poly_at_matrix``, by
Horner's rule) and row reduction (``rref``, ``rank``, ``solve``,
``inverse``, and the subspace operations) run in the kernel and build
their results from its output.  GF(2) XORs the rows of B that a row of A
picks; GF(p) takes int dot products with one reduction mod p per entry;
GF(p^k) sums table entries that hold the base-p digits of each product.
Q rows are reduced fraction-free (Bareiss, Math. Comp. 22, 1968, in its
content-dividing form): each row is scaled to a primitive int row,
Gauss-Jordan runs on ints with every updated row divided by its content,
and each output entry is one Fraction over its row's pivot.  Over Q a
right operand is prepared as int rows over the lcm of its denominators,
once per matrix, and Horner's rule runs on ints (A = A'/d, L the lcm of
the coefficient denominators: L d^D f(A) = sum_k L c_k d^(D-k) A'^k), with
one division at the end.  Pivots are leftmost and RREF is unique, so every
kernel gives the element loop's result.  ``minimal_polynomial`` grows one
Krylov echelon per basis vector on encoded rows, and evaluates m(A) at the
whole matrix once, to certify it.
"""

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
import weakref

from .errors import (
    FieldMismatchError,
    InconsistentSystemError,
    InvariantError,
    SingularMatrixError,
)
from .fields import QQ, GFElem
from .poly import Poly, poly_lcm

__all__ = [
    "Matrix",
    "rref",
    "rank",
    "solve",
    "inverse",
    "minimal_polynomial",
    "poly_at_matrix",
    "companion",
    "block_diag",
    "mat_vec",
]


class Matrix:
    """An immutable matrix, keyed on its rows in the encoding of the field's
    row kernel (``enc``, frozen).  ``rows`` (field elements), ``right`` (the
    rows in the kernel's right-operand form) and ``cols`` (the columns in
    that form: ``right`` of the transpose) are made on first use and kept."""

    __slots__ = ("field", "kern", "nrows", "ncols", "enc", "_rows", "_right", "_cols", "_hash")

    def __init__(self, field, rows):
        rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows have unequal lengths")
        kern = row_kernel(field)
        self._init(field, kern, width, kern.freeze([kern.encode(r) for r in rows]))
        self._rows = rows

    def _init(self, field, kern, ncols, enc):
        self.field, self.kern, self.nrows, self.ncols, self.enc = field, kern, len(enc), ncols, enc
        self._rows = self._right = self._cols = self._hash = None

    @classmethod
    def encoded(cls, field, rows, ncols):
        """The matrix whose rows are ``rows`` (a kernel's output), each of width ``ncols``."""
        M, kern = object.__new__(cls), row_kernel(field)
        M._init(field, kern, ncols, kern.freeze(rows))
        return M

    @classmethod
    def identity(cls, field, n):
        kern = row_kernel(field)
        one = kern.encode((field.one(),))
        return cls.encoded(field, [kern.place([one], i, n)[0] for i in range(n)], n)

    @classmethod
    def zeros(cls, field, m, n=None):
        n = m if n is None else n
        return cls.encoded(field, [row_kernel(field).encode((field.zero(),) * n)] * m, n)

    @classmethod
    def from_cols(cls, field, cols):
        return cls(field, tuple(zip(*cols)))

    @property
    def rows(self):
        """The rows as tuples of field elements."""
        if self._rows is None:
            decode, n = self.kern.decode, self.ncols
            self._rows = tuple(decode(r, n) for r in self.enc)
        return self._rows

    @property
    def right(self):
        """The rows in the kernel's right-operand form, for ``matmul`` and ``polyval``."""
        if self._right is None:
            self._right = self.kern.prepare(self.enc)
        return self._right

    @property
    def cols(self):
        """The columns in the kernel's right-operand form: a row v times them is M v."""
        if self._cols is None:
            self._cols = self.kern.prepare(self.kern.transpose(self.enc, self.ncols))
        return self._cols

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_zero(self):
        return not any(map(self.kern.nonzero, self.enc))

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError("matrices over different fields")

    def _minus(self, f, other, what):
        """self - f other, row by row, f = 1 or -1."""
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch in matrix {what}")
        kern = self.kern
        f = kern.scalar(self.field.element(f))
        rows = [kern.submul(a, f, b) for a, b in zip(self.enc, other.enc)]
        return Matrix.encoded(self.field, rows, self.ncols)

    def __add__(self, other):
        return self._minus(-1, other, "addition")

    def __sub__(self, other):
        return self._minus(1, other, "subtraction")

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.__matmul__(other)
        c, kern, n = self.field.element(other), self.kern, self.ncols
        if not c:
            return Matrix.zeros(self.field, self.nrows, n)
        f, zero = kern.scalar(-c), kern.encode((self.field.zero(),) * n)
        return Matrix.encoded(self.field, [kern.submul(zero, f, r) for r in self.enc], n)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        n = other.ncols
        return Matrix.encoded(self.field, self.kern.matmul(self.enc, other.right, n), n)

    def __pow__(self, e):
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            return inverse(self) ** (-e)
        acc = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                acc = acc @ base
            base = base @ base
            e >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.enc == self.enc
            and other.ncols == self.ncols
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ncols, self.enc))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.rows)
        return f"Matrix({self.field!r}, [{body}])"


def mat_vec(M, v):
    """M @ v for a column vector given as a tuple."""
    if len(v) != M.ncols:
        raise ValueError("vector length does not match column count")
    kern = M.kern
    return kern.decode(kern.matmul([kern.encode(v)], M.cols, M.nrows)[0], M.nrows)


# ----------------------------------------------------------------------
# Row kernels: encode (rows; ``scalar`` one element), echelon (RREF), reduce
# against the unit-pivot rows of an echelon form, the row operation a - f b
# (submul), multiply (matmul), evaluate a polynomial (polyval), decode,
# freeze (rows as one hashable key), transpose, join (the row (a, b) of rows
# a, b) and place (rows set at a column offset in wider zero rows).
# matmul(a, b, n, c, first) gives the rows of AB + cE with E the rows first,
# first + 1, ... of I (c a field element or None): A B + cI by default, and
# the Horner step.
# Its right operand B (n columns) comes in the kernel's prepared form,
# ``prepare(rows)``: the encoded rows, except over Q (int rows and their
# common denominator), so a Matrix clears its denominators once.
# TABLE_LIMIT is the largest GF(p^k), k > 1, reduced on table-coded
# indices: each process builds the tables on first use, in time linear in
# the order, and no workload uses a field between GF(9) and GF(2^16).
TABLE_LIMIT = 1 << 8


class _Rows:
    """Horner's rule on a kernel's matmul, shared by the row kernels.  A
    kernel reaches its field through a weak reference and keeps no field
    elements: the field holds its kernel (``row_kernel``), and a reference
    back would make every field a cycle that only the collector frees."""

    def __init__(self, field):
        self._field = weakref.ref(field)

    prepare = staticmethod(lambda rows: rows)

    @property
    def field(self):
        return self._field()

    def polyval(self, coeffs, a, n, first=0, count=None):
        """Encoded rows first, ..., first + count - 1 (default all) of f(A) by
        Horner's rule, f given by its coefficients (lowest first, at least
        one) and A (n x n) by its prepared rows."""
        zero, lead = self.field.zero(), coeffs[-1]
        rows = range(first, n if count is None else first + count)
        acc = [self.encode([lead if j == i else zero for j in range(n)]) for i in rows]
        for c in reversed(coeffs[:-1]):
            acc = self.matmul(acc, a, n, c, first)
        return acc


def _int_matmul(a, b, c=0, first=0):
    """Rows of AB + cE (as for the kernels' matmul) for int rows."""
    cols = list(zip(*b))
    out = [[sum(map(mul, r, col)) for col in cols] for r in a]
    if c:
        for i, row in enumerate(out, first):
            row[i] += c
    return out


class _GF2Rows(_Rows):
    """GF(2): a row is an int whose bit j is coordinate j."""

    nonzero = bool
    freeze = staticmethod(tuple)
    submul = staticmethod(lambda a, f, b: a ^ b if f else a)
    scalar = staticmethod(lambda x: x.c[0])
    place = staticmethod(lambda rows, offset, n: [r << offset for r in rows])

    def matmul(self, a, b, n, c=None, first=0):
        # row i of AB: the XOR of the rows of B picked by the bits of row i of A
        out = [self.apply(b, r) for r in a]
        return [r ^ (1 << i) for i, r in enumerate(out, first)] if c else out

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
    a - f b (submul), and the products (matmul)."""

    nonzero = any
    encode = staticmethod(list)
    scalar = staticmethod(lambda x: x)
    freeze = staticmethod(lambda rows: tuple(map(tuple, rows)))
    transpose = staticmethod(lambda rows, n: list(zip(*rows)))
    join = staticmethod(lambda a, b, n: [*a, *b])

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

    def place(self, rows, offset, n):
        zero = self.zero
        return [[zero] * offset + list(r) + [zero] * (n - offset - len(r)) for r in rows]

    def scale(self, row, x):
        inv = self.one / x
        return [a * inv for a in row]

    def submul(self, a, f, b):
        return [x - f * y if y else x for x, y in zip(a, b)]

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

    def polyval(self, coeffs, a, n, first=0, count=None):
        # With A = A'/d and L the lcm of the coefficient denominators,
        # L d^D f(A) = sum_k (L c_k d^(D-k)) A'^k: Horner on ints, one division.
        a, d = a
        D, L = len(coeffs) - 1, lcm(*(c.denominator for c in coeffs))
        ks = [c.numerator * (L // c.denominator) * d ** (D - k) for k, c in enumerate(coeffs)]
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
        c = self.scalar(c) if c else 0
        return [[x % p for x in row] for row in _int_matmul(a, b, c, first)]


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
                row[i] += get(lg[self.scalar(c)])
            out.append([self._code(s) for s in row])
        return out

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


def rref(M):
    """(reduced row-echelon form, rank, pivot column tuple)."""
    kern, n = M.kern, M.ncols
    rows, pivots = kern.echelon(M.enc, n)
    zero = kern.encode((M.field.zero(),) * n)
    R = Matrix.encoded(M.field, rows + [zero] * (M.nrows - len(rows)), n)
    return R, len(rows), tuple(pivots)


def rank(M):
    return len(M.kern.echelon(M.enc, M.ncols)[0])


def solve(M, b):
    """One exact solution x of M x = b; raises InconsistentSystemError."""
    field, kern, n = M.field, M.kern, M.ncols
    if len(b) != M.nrows:
        raise ValueError("right-hand side length does not match row count")
    b = tuple(field.element(e) for e in b)
    rows, piv = kern.echelon([kern.join(r, kern.encode((e,)), n) for r, e in zip(M.enc, b)], n + 1)
    if n in piv:
        raise InconsistentSystemError("inconsistent system")
    x = [field.zero()] * n
    for r, c in zip(rows, piv):
        x[c] = kern.decode(kern.tail(r, n), 1)[0]
    x = tuple(x)
    if mat_vec(M, x) != b:
        raise InvariantError("solver self-check failed")
    return x


def inverse(M):
    if not M.is_square:
        raise SingularMatrixError("inverse requires a square matrix")
    field, kern, n = M.field, M.kern, M.nrows
    ident = Matrix.identity(field, n)
    rows, piv = kern.echelon([kern.join(r, e, n) for r, e in zip(M.enc, ident.enc)], 2 * n)
    if len(rows) < n or tuple(piv[:n]) != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    inv = Matrix.encoded(field, [kern.tail(r, n) for r in rows], n)
    if M @ inv != ident:
        raise InvariantError("inverse self-check failed")
    return inv


def poly_at_matrix(f, A):
    """f(A) by Horner's rule on A's prepared rows (``polyval``)."""
    if not A.is_square:
        raise ValueError("polynomial evaluation requires a square matrix")
    if f.field != A.field:
        raise FieldMismatchError("polynomial and matrix over different fields")
    field, n = A.field, A.nrows
    if f.is_zero:
        return Matrix.zeros(field, n)
    return Matrix.encoded(field, A.kern.polyval(f.coeffs, A.right, n), n)


def minimal_polynomial(A):
    """Least-degree monic m with m(A) = 0: the lcm of the annihilators of the
    e_i that the m so far does not annihilate.  The rows (A^j e_i | e_j) are
    reduced in turn into one echelon of unit-pivot rows, A^(j+1) e_i being one
    ``matmul`` row on A's prepared columns, the rows of A^T; the first whose
    left part vanishes holds the annihilator of e_i in its right part.  m is
    re-verified at A."""
    if not A.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    field, kern, n = A.field, A.kern, A.nrows
    at = A.cols  # m(A) e_i is row i of m(A^T)
    tags, units = Matrix.identity(field, n + 1).enc, Matrix.identity(field, n).enc
    m = Poly.one(field)
    for i in range(n):
        if m.degree == n:
            break
        if not kern.nonzero(kern.polyval(m.coeffs, at, n, i, 1)[0]):
            continue
        v = units[i]  # A^j e_i
        rows, pivots = [], []
        for tag in tags:
            r = kern.reduce(kern.join(v, tag, n), rows, pivots)
            (r,), (c,) = kern.echelon([r], 2 * n + 1)  # scaled to a unit pivot, at c
            if c >= n:  # A^j e_i depends on the A^k e_i, k < j
                break
            k = bisect(pivots, c)
            rows.insert(k, r)
            pivots.insert(k, c)
            v = kern.matmul([v], at, n)[0]
        m = poly_lcm(m, Poly(field, kern.decode(kern.tail(r, n), n + 1)).monic())
    if not poly_at_matrix(m, A).is_zero:
        raise InvariantError("minimal polynomial self-check failed")
    return m


def companion(p):
    """Companion matrix of a monic polynomial (multiplication by x)."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    field = p.field
    s = p.degree
    zero, one = field.zero(), field.one()
    rows = []
    for i in range(s):
        row = [zero] * s
        if i > 0:
            row[i - 1] = one
        row[s - 1] = row[s - 1] - p.coefficient(i)
        rows.append(row)
    return Matrix(field, rows)


def block_diag(field, blocks):
    """Block-diagonal assembly of square matrices over one field."""
    for B in blocks:
        if B.field != field:
            raise FieldMismatchError("block over a different field")
        if not B.is_square:
            raise ValueError("blocks must be square")
    kern, n, rows = row_kernel(field), sum(B.nrows for B in blocks), []
    for B in blocks:
        rows += kern.place(B.enc, len(rows), n)
    return Matrix.encoded(field, rows, n)
