"""Dense exact matrices over a field, and the row kernels that reduce them.

Rows are stored as a tuple of tuples of field elements, so matrices are
immutable, hashable, and safe to share.  Row reduction (``rref``, ``rank``,
so ``solve``, ``inverse``, ``kernel_basis`` and the subspace operations)
runs in the field's row kernel on encoded rows, decoded at its boundary:
GF(2) rows are int bitmasks, GF(p) rows int lists mod p, GF(p^k) rows
(order <= TABLE_LIMIT) index lists combined through the tables of
``fields``, and Q, Q[t]/(m) and larger GF(p^k) rows element lists.
Pivots are leftmost and RREF is unique, so every kernel gives the element
loop's result.
"""

from bisect import bisect

from .errors import (
    FieldMismatchError,
    InconsistentSystemError,
    InvariantError,
    SingularMatrixError,
)
from .fields import GFElem
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
        cols = tuple(zip(*other.rows))
        zero = self.field.zero()
        out = []
        for r in self.rows:
            out.append(
                tuple(_dot(r, c, zero) for c in cols)
            )
        return Matrix(self.field, tuple(out), _raw=True)

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
# Row kernels: encode, echelon (RREF), reduce against RREF rows, apply a
# matrix given by its encoded columns, decode.
# TABLE_LIMIT is the largest GF(p^k), k > 1, reduced on table-coded
# indices: each process builds the tables on first use, in time linear in
# the order, and no workload uses a field between GF(9) and GF(2^16).
TABLE_LIMIT = 1 << 8


class _GF2Rows:
    """GF(2): a row is an int whose bit j is coordinate j."""

    nonzero = bool

    def __init__(self, field):
        self.elements = (field.zero(), field.one())

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
        return tuple(self.elements[(v >> j) & 1] for j in range(n))

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


class _ElementRows:
    """Q, Q[t]/(m) and GF(p^k) beyond the tables: lists of field elements.
    Subclasses change the encoding and the row operations row / x (scale)
    and a - f b (submul)."""

    nonzero = any
    encode = staticmethod(list)

    def __init__(self, field):
        self.field, self.zero, self.one = field, field.zero(), field.one()

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


class _PrimeRows(_ElementRows):
    """GF(p): lists of ints mod p; inverses by pow(x, -1, p), no tables."""

    def __init__(self, field):
        self.field, self.p, self.zero, self.one = field, field.p, 0, 1

    def encode(self, row):
        return [e.c[0] for e in row]

    def decode(self, v, n):
        return tuple(GFElem(self.field, (x,)) for x in v)

    def scale(self, row, x):
        p, inv = self.p, pow(x, -1, self.p)
        return [a * inv % p for a in row]

    def submul(self, a, f, b):
        p = self.p
        return [(x - f * y) % p for x, y in zip(a, b)]


class _ZechRows(_ElementRows):
    """GF(p^k), k > 1, order <= TABLE_LIMIT: lists of element indices;
    products through the log/antilog tables, sums through Zech logarithms."""

    def __init__(self, field):
        self.field, self.zero, self.one, self.m = field, 0, 1, field.order - 1
        self.exp, self.log, self.zech = field.zech_tables()
        self.neg = 0 if field.p == 2 else self.m // 2  # log of -1

    def encode(self, row):
        return [self.field.index_of(e) for e in row]

    def decode(self, v, n):
        return tuple(self.field.element_from_index(i) for i in v)

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
        if not field.is_finite or (field.k > 1 and field.order > TABLE_LIMIT):
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
    """Horner evaluation f(A)."""
    if not A.is_square:
        raise ValueError("polynomial evaluation requires a square matrix")
    if f.field != A.field:
        raise FieldMismatchError("polynomial and matrix over different fields")
    n = A.nrows
    acc = Matrix.zeros(A.field, n)
    for c in reversed(f.coeffs):
        acc = acc @ A + Matrix.identity(A.field, n) * c
    return acc


def minimal_polynomial(A):
    """Least-degree monic m with m(A) = 0.

    Computed as the lcm over standard basis vectors of the annihilator of
    each Krylov sequence e, Ae, A^2 e, ...; the result is re-verified by
    evaluating it at A.
    """
    if not A.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    field = A.field
    n = A.nrows
    m = Poly.one(field)
    m_at = Matrix.identity(field, n)
    for i in range(n):
        if m.degree == n:
            break
        e = tuple(field.one() if j == i else field.zero() for j in range(n))
        if not any(mat_vec(m_at, e)):
            continue  # the current m already annihilates this vector
        g = _krylov_annihilator(A, e)
        m = poly_lcm(m, g)
        m_at = poly_at_matrix(m, A)
    if not m_at.is_zero:
        raise InvariantError("minimal polynomial self-check failed")
    return m


def _krylov_annihilator(A, v):
    """Monic least-degree g with g(A) v = 0."""
    field = A.field
    vecs = [v]
    while True:
        w = mat_vec(A, vecs[-1])
        K = Matrix.from_cols(field, vecs)
        try:
            x = solve(K, w)
        except InconsistentSystemError:
            vecs.append(w)
            continue
        coeffs = tuple(-c for c in x) + (field.one(),)
        return Poly(field, coeffs)


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
