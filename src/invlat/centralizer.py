"""The commutant algebra Z(A), its units, and the membership predicates.

``centralizer_basis`` solves AX = XA as an n^2-dimensional homogeneous
linear system.  A subspace is hyperinvariant when every basis element of
Z(A) maps it into itself (linearity makes basis checking sufficient),
and characteristic when A and every *invertible* element of Z(A) do.
``is_characteristic`` decides the latter by definition, walking the unit
group: ``unit_elements`` runs over all coordinate tuples of the basis and
keeps the nonsingular ones, so it is exact but only available over
finite fields within a configured cap.  The lattice engine does not walk
units; it reads their span off the Jordan structure (``lattices``).
"""

from dataclasses import dataclass

from .errors import CapExceededError, InfiniteFieldError, InvariantError, UndecidedError
from .matrix import Matrix
from .subspace import kernel_basis

__all__ = [
    "CentralizerBasis",
    "centralizer_basis",
    "unit_elements",
    "is_hyperinvariant",
    "is_characteristic",
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


def centralizer_basis(A):
    """Basis of the solution space of AX - XA = 0, reshaped to matrices."""
    if not A.is_square:
        raise ValueError("centralizer requires a square matrix")
    field, a_rows = A.field, A.rows
    n = A.nrows
    zero = field.zero()
    # equation (i,j): sum_k A[i,k] X[k,j] - X[i,k] A[k,j] = 0; unknowns
    # vec(X) row-major
    rows = []
    for i in range(n):
        for j in range(n):
            coef = [zero] * (n * n)
            for k in range(n):
                a = a_rows[i][k]
                if a:
                    coef[k * n + j] = coef[k * n + j] + a
                b = a_rows[k][j]
                if b:
                    coef[i * n + k] = coef[i * n + k] - b
            rows.append(coef)
    kern = A.kern
    ker = kernel_basis(Matrix.encoded(field, list(map(kern.encode, rows)), n * n))
    mats = tuple(Matrix.encoded(field, [kern.encode(v[i * n : (i + 1) * n]) for i in range(n)], n)
                 for v in ker.basis)
    for B in mats:
        if A @ B != B @ A:
            raise InvariantError("centralizer solver produced a non-commuting matrix")
    # I and A always commute with A; make sure the solution space has them
    vec = lambda M: tuple(e for row in M.rows for e in row)
    if not ker.member(vec(Matrix.identity(field, n))) or not ker.member(vec(A)):
        raise InvariantError("centralizer basis misses I or A")
    return CentralizerBasis(A, mats)


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


def is_hyperinvariant(W, A, Z=None):
    """True iff BW <= W for every element of the centralizer of A."""
    if Z is None:
        Z = centralizer_basis(A)
    return all(W.is_invariant_under(B) for B in Z.elements)


def is_characteristic(W, A, Z=None, cap=DEFAULT_UNIT_CAP):
    """True iff AW <= W and BW <= W for every invertible B commuting with A.

    Walks ``unit_elements``: over an infinite field or beyond the cap it is
    undecidable here and raises (the engine's theorem dispatch covers those).
    """
    if not W.is_invariant_under(A):
        return False
    if Z is None:
        Z = centralizer_basis(A)
    if is_hyperinvariant(W, A, Z):
        return True
    try:
        return all(W.is_invariant_under(B) for B in unit_elements(Z, cap))
    except CapExceededError as exc:
        raise UndecidedError(
            f"undecided at this scale: unit enumeration needs {exc.count} > cap {exc.cap}"
        ) from exc
