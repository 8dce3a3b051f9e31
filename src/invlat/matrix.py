"""Dense exact matrices over a field.

Rows are stored as a tuple of tuples of field elements, so matrices are
immutable, hashable, and safe to share.  Row reduction uses the leftmost
nonzero pivot with exact arithmetic; results are fully deterministic.
"""

from .errors import (
    FieldMismatchError,
    InconsistentSystemError,
    SingularMatrixError,
)
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

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def transpose(self):
        return Matrix(self.field, tuple(zip(*self.rows)), _raw=True)

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


def rref(M):
    """(reduced row-echelon form, rank, pivot column tuple)."""
    field = M.field
    rows = [list(r) for r in M.rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one() / rows[r][c]
        if rows[r][c] != field.one():
            rows[r] = [a * inv for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return Matrix(field, tuple(tuple(row) for row in rows), _raw=True), r, tuple(pivots)


def rank(M):
    return rref(M)[1]


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
        raise AssertionError("solver self-check failed")
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
        raise AssertionError("inverse self-check failed")
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
        raise AssertionError("minimal polynomial self-check failed")
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
