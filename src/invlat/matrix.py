"""Dense exact matrices over a field.

A matrix is immutable and keyed (equality, hashing) on its rows in the
encoding of the field's row kernel (``kernels``).  Its element rows are
decoded on first use, for output and the few element-level callers, and
its columns, in the kernel's right-operand form, are made once and kept.
Products (``@``, so powers and the self-checks), sums, scalar multiples,
matrix-vector products, polynomial evaluation (``poly_at_matrix``, by
Horner's rule on the polynomial's encoded coefficients) and row reduction
(``rref``, ``rank``, ``solve``, ``inverse``, and the subspace operations)
run in the kernel and build their results from its output.
``minimal_polynomial`` grows one Krylov echelon per basis vector on
encoded rows, takes each annihilator from the echelon's encoded row, and
certifies m by m(A) = 0 (an analysis proves the Krylov m by ranks instead).
"""

from bisect import bisect

from .errors import FieldMismatchError, InconsistentSystemError, InvariantError, SingularMatrixError
from .kernels import row_kernel
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
        acc, base = None, self  # by binary powers, with no square past the last bit
        while e:
            if e & 1:
                acc = base if acc is None else acc @ base
            e >>= 1
            if e:
                base = base @ base
        return Matrix.identity(self.field, self.nrows) if acc is None else acc

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
    """f(A) by Horner's rule on f's encoded coefficients and A's prepared rows (``polyval``)."""
    if not A.is_square:
        raise ValueError("polynomial evaluation requires a square matrix")
    if f.field != A.field:
        raise FieldMismatchError("polynomial and matrix over different fields")
    field, n = A.field, A.nrows
    if f.is_zero:
        return Matrix.zeros(field, n)
    return Matrix.encoded(field, A.kern.polyval(f.enc, A.right, n), n)


def minimal_polynomial(A):
    """Least-degree monic m with m(A) = 0, re-verified at A by Horner's rule
    (``analyze_operator`` proves the Krylov m by the ranks of p(A)^j instead)."""
    m = _krylov_minimal_polynomial(A)
    if not poly_at_matrix(m, A).is_zero:
        raise InvariantError("minimal polynomial self-check failed")
    return m


def _krylov_minimal_polynomial(A):
    """Unchecked m: the lcm of the annihilators of the e_i that the m so far does
    not annihilate.  The rows (A^j e_i | e_j) are reduced in turn into one
    echelon of unit-pivot rows, A^(j+1) e_i being one ``matmul`` row on A's
    columns; the first whose left part vanishes holds e_i's annihilator."""
    if not A.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    field, kern, n = A.field, A.kern, A.nrows
    at = A.cols  # m(A) e_i is row i of m(A^T)
    tags, units = Matrix.identity(field, n + 1).enc, Matrix.identity(field, n).enc
    m = Poly.one(field)
    for i in range(n):
        if m.degree == n:
            break
        if not kern.nonzero(kern.polyval(m.enc, at, n, i, 1)[0]):
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
        m = poly_lcm(m, Poly.encoded(field, kern.tail(r, n)).monic())
    return m


def companion(p):
    """Companion matrix of a monic polynomial (multiplication by x): the
    transpose of the rows x^(j+1) mod p, j < deg p, the last one x^s - p."""
    if not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix requires a monic polynomial of degree >= 1")
    field, kern, s = p.field, p.kern, p.degree
    rows = [*Matrix.identity(field, s).enc[1:], *kern.place([(Poly.x(field) ** s - p).enc], 0, s)]
    return Matrix.encoded(field, kern.transpose(rows, s), s)


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
