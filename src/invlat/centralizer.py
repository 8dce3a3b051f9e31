"""The commutant algebra Z(A) and its units.

``centralizer_basis`` solves AX = XA as an n^2-dimensional homogeneous
linear system, built and reduced on encoded rows; the enumeration oracle
uses it.  The lattice engine reads Z_K(N_K) off the Jordan chains instead
(``KStructure.commutant``), and ``certified_centralizer`` certifies such a
supplied basis: its elements commute with the matrix, are independent,
and are as many as dim Z.  ``unit_elements`` runs over all coordinate
tuples of the basis and keeps the nonsingular ones, so it is exact but
only available over finite fields within a configured cap; the oracle's
``classify_all``, the one classifier that checks characteristic membership
by definition, walks it.  The lattice engine does not walk units; it reads
their span off the Jordan structure (``lattices``).
"""

from dataclasses import dataclass

from .errors import CapExceededError, InfiniteFieldError, InvariantError
from .matrix import Matrix
from .subspace import Subspace, kernel_basis

__all__ = [
    "CentralizerBasis",
    "centralizer_basis",
    "certified_centralizer",
    "unit_elements",
    "DEFAULT_UNIT_CAP",
]

DEFAULT_UNIT_CAP = 1 << 20


@dataclass(frozen=True)
class CentralizerBasis:
    """F-basis of Z(A) = {B : AB = BA}."""

    matrix: Matrix  # the A those elements commute with
    elements: tuple  # tuple of Matrix

    @property
    def dim(self):
        return len(self.elements)

    def combination(self, coords):
        """The element sum_t coords[t] * elements[t] of Z(A), on encoded rows."""
        field, kern, n = self.matrix.field, self.matrix.kern, self.matrix.nrows
        acc = Matrix.zeros(field, n).enc
        for c, B in zip(coords, self.elements):
            if c:
                f = kern.scalar(-c)
                acc = [kern.submul(a, f, b) for a, b in zip(acc, B.enc)]
        return Matrix.encoded(field, acc, n)


def _vec(kern, rows, n):
    """vec(M), row-major, from the encoded rows of M (each of width n)."""
    acc = rows[0]
    for i, r in enumerate(rows[1:], 1):
        acc = kern.join(acc, r, i * n)
    return acc


def centralizer_basis(A):
    """Basis of the solution space of AX - XA = 0, reshaped to matrices.

    The unknowns are vec(X), row-major, so the system is A (x) I - I (x) A^T.
    For each column j, the rows (i, j) of A (x) I are A times the unit rows
    e_(kn+j), k < n (one ``matmul``), and row (i, j) of I (x) A^T is column
    j of A placed at offset in; the kernel basis is split into matrix rows,
    all on encoded rows.
    """
    if not A.is_square:
        raise ValueError("centralizer requires a square matrix")
    field, kern, n = A.field, A.kern, A.nrows
    nn = n * n
    units, cols = Matrix.identity(field, n).enc, kern.transpose(A.enc, n)
    one = kern.scalar(field.one())
    rows = []
    for j in range(n):
        picks = kern.prepare([kern.place([units[j]], k * n, nn)[0] for k in range(n)])
        rows += [kern.submul(r, one, kern.place([cols[j]], i * n, nn)[0])
                 for i, r in enumerate(kern.matmul(A.enc, picks, nn))]
    ker = kernel_basis(Matrix.encoded(field, rows, nn))
    mats = tuple(Matrix.encoded(field, kern.split(v, n, n), n) for v in ker.enc)
    for B in mats:
        if A @ B != B @ A:
            raise InvariantError("centralizer solver produced a non-commuting matrix")
    # I and A always commute with A; make sure the solution space has them
    if not ker.contains(Subspace.from_rows(field, nn, [_vec(kern, M.enc, n)
                                                      for M in (Matrix.identity(field, n), A)])):
        raise InvariantError("centralizer basis misses I or A")
    return CentralizerBasis(A, mats)


def certified_centralizer(A, elements, dim, probes):
    """``elements`` as a basis of Z(A), certified: each commutes with A, they
    are independent, and there are ``dim`` of them, which the caller knows to
    be dim Z(A); so they span Z(A).  Independence is the rank of the rows
    (B p)_p, p over the encoded vectors ``probes``: B -> (B p)_p is linear,
    so independent rows have independent preimages.  Probes that generate the
    space under A make the test exact (B is then fixed by the B p)."""
    kern, n = A.kern, A.nrows
    if len(elements) != dim:
        raise InvariantError(f"{len(elements)} centralizer elements, but dim Z = {dim}")
    if any(A @ B != B @ A for B in elements):
        raise InvariantError("a centralizer element does not commute")
    rows = [_vec(kern, kern.matmul(probes, B.cols, n), n) for B in elements]
    if len(kern.echelon(rows, n * len(probes))[0]) != dim:
        raise InvariantError("the centralizer elements are dependent")
    return CentralizerBasis(A, tuple(elements))


def unit_elements(Z, cap=DEFAULT_UNIT_CAP):
    """All invertible elements of Z, exactly once, in coordinate order."""
    field = Z.matrix.field
    if not field.is_finite:
        raise InfiniteFieldError("infinite field: cannot enumerate centralizer units")
    d = Z.dim
    total = field.order**d
    if total > cap:
        raise CapExceededError(
            f"centralizer has {field.order}^{d} = {total} elements, cap {cap}",
            count=total,
            cap=cap,
        )
    kern, n = Z.matrix.kern, Z.matrix.nrows
    # the encoded rows of c * B_t for the nonzero c; a walk over the
    # coordinates adds one per step
    multiples = [[(B * c).enc for c in tuple(field.elements())[1:]] for B in Z.elements]
    minus_one = kern.scalar(-field.one())

    def walk(t, acc):
        if t == d:
            if len(kern.echelon(acc, n)[0]) == n:
                yield Matrix.encoded(field, acc, n)
            return
        yield from walk(t + 1, acc)
        for M in multiples[t]:
            yield from walk(t + 1, [kern.submul(a, minus_one, b) for a, b in zip(acc, M)])

    yield from walk(0, Matrix.zeros(field, n).enc)
