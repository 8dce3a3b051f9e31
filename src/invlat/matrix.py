"""Dense exact matrices over a field, and the row kernels that reduce them.

Rows are stored as a tuple of tuples of field elements, so matrices are
immutable, hashable, and safe to share.  Row reduction (``rref``, ``rank``,
so ``solve``, ``inverse``, ``kernel_basis`` and the subspace operations)
runs in the field's row kernel on encoded rows, decoded at its boundary:
GF(2) rows are int bitmasks, GF(p) rows int lists mod p, GF(p^k) rows
(order <= TABLE_LIMIT) index lists combined through the tables of
``fields``, and Q, Q[t]/(m) and larger GF(p^k) rows element lists.  Q rows
are reduced fraction-free (Bareiss, Math. Comp. 22, 1968, in its
content-dividing form): each row is scaled to a primitive int row,
Gauss-Jordan runs on ints with every updated row divided by its content,
and each output entry is one Fraction over its row's pivot.
Pivots are leftmost and RREF is unique, so every kernel gives the element
loop's result.

Products (``@``, so powers and the self-checks) and polynomial evaluation
(``poly_at_matrix``, by Horner's rule) run in the same kernels: operands are
encoded once, multiplied on encoded rows and decoded once.  GF(2) XORs the
rows of B that a row of A picks; GF(p) takes int dot products with one
reduction mod p per entry; GF(p^k) sums table entries that hold the base-p
digits of each product.  Over Q each operand is scaled to ints by the lcm
of its denominators, and Horner's rule runs on ints (A = A'/d, L the lcm of
the coefficient denominators: L d^D f(A) = sum_k L c_k d^(D-k) A'^k), with
one division at the end.  Q[t]/(m) and larger GF(p^k) keep the element
loop.  ``minimal_polynomial`` grows one Krylov echelon per basis vector on
encoded rows, and evaluates m(A) at the whole matrix once, to certify it.
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
    __slots__ = ("field", "rows")

    def __init__(self, field, rows, _raw=False):
        if _raw:
            self.field = field
            self.rows = rows
            return
        coerced = tuple(tuple(field.element(e) for e in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(coerced[0])
        if any(len(r) != width for r in coerced):
            raise ValueError("rows have unequal lengths")
        self.field = field
        self.rows = coerced

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), _raw=True)

    @classmethod
    def zeros(cls, field, m, n=None):
        n = m if n is None else n
        zero = field.zero()
        return cls(field, tuple((zero,) * n for _ in range(m)), _raw=True)

    @classmethod
    def from_cols(cls, field, cols):
        return cls(field, tuple(zip(*cols)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_zero(self):
        return not any(any(e for e in row) for row in self.rows)

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError("matrices over different fields")

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            self.field,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            _raw=True,
        )

    def __sub__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix(
            self.field,
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            _raw=True,
        )

    def __neg__(self):
        return Matrix(self.field, tuple(tuple(-a for a in r) for r in self.rows), _raw=True)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.__matmul__(other)
        c = self.field.element(other)
        return Matrix(self.field, tuple(tuple(a * c for a in r) for r in self.rows), _raw=True)

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        kern, n = row_kernel(self.field), other.ncols
        rows = kern.matmul([kern.encode(r) for r in self.rows], [kern.encode(r) for r in other.rows], n)
        return Matrix(self.field, tuple(kern.decode(r, n) for r in rows), _raw=True)

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
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.rows)
        return f"Matrix({self.field!r}, [{body}])"


def _dot(r, c, zero):
    acc = zero
    for a, b in zip(r, c):
        if a and b:
            acc = acc + a * b
    return acc


def mat_vec(M, v):
    """M @ v for a column vector given as a tuple."""
    if len(v) != M.ncols:
        raise ValueError("vector length does not match column count")
    zero = M.field.zero()
    return tuple(_dot(row, v, zero) for row in M.rows)


# ----------------------------------------------------------------------
# Row kernels: encode, echelon (RREF), reduce against the unit-pivot rows of
# an echelon form, apply a matrix given by its encoded columns, multiply
# (matmul), evaluate a polynomial (polyval), decode, freeze (RREF rows as one
# hashable key) and join (the row (a, b) of rows a, b).  matmul(a, b, n, c,
# first) gives the rows of AB + cE with E the rows first, first + 1, ... of
# I (c a field element or None): A B + cI by default, and the Horner step.
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

    @property
    def field(self):
        return self._field()

    def polyval(self, coeffs, a, n, first=0, count=None):
        """Encoded rows first, ..., first + count - 1 (default all) of f(A) by
        Horner's rule, f given by its coefficients (lowest first, at least
        one) and A (n x n) by its encoded rows."""
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
    freeze = staticmethod(lambda rows: tuple(map(tuple, rows)))
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

    def apply(self, cols, v):
        """-(M v), from the encoded columns of M: its residue against a
        subspace is zero exactly when the residue of M v is."""
        acc = [self.zero] * len(v)
        for x, col in zip(v, cols):
            if x:
                acc = self.submul(acc, x, col)
        return acc

    def matmul(self, a, b, n, c=None, first=0):
        zero, cols = self.zero, list(zip(*b))
        out = [[_dot(r, col, zero) for col in cols] for r in a]
        if c:
            for i, row in enumerate(out, first):
                row[i] += c
        return out


def _integral(rows):
    """(int rows, d): the Fraction rows are the int rows over d, the lcm of
    their denominators."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


class _RationalRows(_ElementRows):
    """Q: lists of Fractions.  Echelon forms and products clear denominators
    once and compute on ints."""

    zero, one = Fraction(0), Fraction(1)

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
        (a, da), (b, db) = _integral(a), _integral(b)
        d = da * db
        return [[Fraction(s, d) for s in row] for row in _int_matmul(a, b, c * d if c else 0, first)]

    def polyval(self, coeffs, a, n, first=0, count=None):
        # With A = A'/d and L the lcm of the coefficient denominators,
        # L d^D f(A) = sum_k (L c_k d^(D-k)) A'^k: Horner on ints, one division.
        a, d = _integral(a)
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
        return [[x % p for x in row] for row in _int_matmul(a, b, c.c[0] if c else 0, first)]


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
                row[i] += get(lg[self.field.index_of(c)])
            out.append([self._code(s) for s in row])
        return out

    def encode(self, row):
        index_of = self.field.index_of
        return [index_of(e) for e in row]

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
    kern, n = row_kernel(M.field), M.ncols
    rows, pivots = kern.echelon([kern.encode(r) for r in M.rows], n)
    R = [kern.decode(r, n) for r in rows] + [(M.field.zero(),) * n] * (M.nrows - len(rows))
    return Matrix(M.field, tuple(R), _raw=True), len(rows), tuple(pivots)


def rank(M):
    kern = row_kernel(M.field)
    return len(kern.echelon([kern.encode(r) for r in M.rows], M.ncols)[0])


def solve(M, b):
    """One exact solution x of M x = b; raises InconsistentSystemError."""
    field = M.field
    if len(b) != M.nrows:
        raise ValueError("right-hand side length does not match row count")
    b = tuple(field.element(e) for e in b)
    aug = Matrix(field, tuple(row + (be,) for row, be in zip(M.rows, b)), _raw=True)
    R, rk, piv = rref(aug)
    n = M.ncols
    if n in piv:
        raise InconsistentSystemError("inconsistent system")
    x = [field.zero()] * n
    for i, c in enumerate(piv):
        x[c] = R.rows[i][n]
    x = tuple(x)
    if mat_vec(M, x) != b:
        raise InvariantError("solver self-check failed")
    return x


def inverse(M):
    if not M.is_square:
        raise SingularMatrixError("inverse requires a square matrix")
    field = M.field
    n = M.nrows
    ident = Matrix.identity(field, n)
    aug = Matrix(field, tuple(r + i for r, i in zip(M.rows, ident.rows)), _raw=True)
    R, rk, piv = rref(aug)
    if rk < n or piv[:n] != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    inv = Matrix(field, tuple(r[n:] for r in R.rows), _raw=True)
    if M @ inv != ident:
        raise InvariantError("inverse self-check failed")
    return inv


def poly_at_matrix(f, A):
    """f(A) by Horner's rule on A's encoded rows (``polyval``), decoded once."""
    if not A.is_square:
        raise ValueError("polynomial evaluation requires a square matrix")
    if f.field != A.field:
        raise FieldMismatchError("polynomial and matrix over different fields")
    field, n = A.field, A.nrows
    if f.is_zero:
        return Matrix.zeros(field, n)
    kern = row_kernel(field)
    rows = kern.polyval(f.coeffs, [kern.encode(r) for r in A.rows], n)
    return Matrix(field, tuple(kern.decode(r, n) for r in rows), _raw=True)


def minimal_polynomial(A):
    """Least-degree monic m with m(A) = 0: the lcm of the annihilators of the
    e_i that the m so far does not annihilate.  The rows (A^j e_i | e_j) are
    reduced in turn into one echelon of unit-pivot rows, A^(j+1) e_i being one
    ``matmul`` row on A^T, encoded once; the first whose left part vanishes
    holds the annihilator of e_i in its right part.  m is re-verified at A."""
    if not A.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    field = A.field
    n = A.nrows
    kern = row_kernel(field)
    at = [kern.encode(c) for c in zip(*A.rows)]  # m(A) e_i is row i of m(A^T)
    zero, one = field.zero(), field.one()
    tags = [kern.encode([one if k == j else zero for k in range(n + 1)]) for j in range(n + 1)]
    m = Poly.one(field)
    for i in range(n):
        if m.degree == n:
            break
        if not kern.nonzero(kern.polyval(m.coeffs, at, n, i, 1)[0]):
            continue
        v = kern.encode([one if k == i else zero for k in range(n)])  # A^j e_i
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
        rows.append(tuple(row))
    return Matrix(field, tuple(rows), _raw=True)


def block_diag(field, blocks):
    """Block-diagonal assembly of square matrices over one field."""
    sizes = []
    for B in blocks:
        if B.field != field:
            raise FieldMismatchError("block over a different field")
        if not B.is_square:
            raise ValueError("blocks must be square")
        sizes.append(B.nrows)
    n = sum(sizes)
    zero = field.zero()
    rows = []
    offset = 0
    for B in blocks:
        for r in B.rows:
            rows.append((zero,) * offset + tuple(r) + (zero,) * (n - offset - B.nrows))
        offset += B.nrows
    return Matrix(field, tuple(rows), _raw=True)
