"""Canonical subspaces of F^n and finite lattices of them.

A Subspace is identified by the reduced row-echelon basis of its row
space, held in the encoding of the field's row kernel
(``kernels.row_kernel``): ints for GF(2), int tuples for GF(p) and the
table-coded GF(p^k), int tuples (d, n_0, ...) over one positive
denominator d in lowest terms for Q, element tuples for larger GF(p^k).
Equality and hashing are on those encoded canonical rows (two subspaces
are equal iff the rows agree), and the element basis is decoded on
demand, for ordering and its sort key, both kept once made.  Membership,
invariance, containment, sums and intersections (the Zassenhaus
stacked-basis trick) eliminate on the encoded rows.  Enumeration walks
RREF shapes (dimension, pivot-column set, free entries) on encoded rows,
so every subspace appears exactly once; given matrices, it drops each row
choice v whose hull H(v) (its spin: the least subspace holding v that the
matrices map into itself) has a pivot column off the pivot set, and keeps
the subspaces invariant under them, reducing each encoded row image
against the candidate's rows.  No invariant W is lost: v in W gives
H(v) <= W, and a pivot of H(v), the first nonzero coordinate of one of
its vectors, is then a pivot of W.
``build_lattice`` certifies a finite lattice from one sum per pair of
members: the sums give closure under sum and the containment order, and
Grassmann's formula on that order proves each meet, with no intersection
computed.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import prod

from .errors import (
    CapExceededError,
    ClosureError,
    FieldMismatchError,
    InfiniteFieldError,
    InvariantError,
)
from .kernels import row_kernel
from .matrix import Matrix

__all__ = [
    "Subspace",
    "span",
    "zero_subspace",
    "full_space",
    "kernel_basis",
    "image_basis",
    "gaussian_binomial",
    "subspace_count",
    "enumerate_all_subspaces",
    "Lattice",
    "build_lattice",
    "to_dot",
    "subspace_label",
    "DEFAULT_SUBSPACE_CAP",
]

DEFAULT_SUBSPACE_CAP = 2_000_000


class Subspace:
    __slots__ = ("field", "n", "pivots", "enc", "_basis", "_hash", "_key")

    def __init__(self, field, n, basis, pivots, enc=None):
        # internal: use span() or from_rows() to construct from generators;
        # ``enc`` (the encoded basis, frozen) keys it, and a None basis is
        # decoded on use
        self.field = field
        self.n = n
        self.pivots = pivots
        self._basis = basis
        if enc is None:
            kern = row_kernel(field)
            enc = kern.freeze([kern.encode(r) for r in basis])
        self.enc = enc
        self._hash = self._key = None

    @classmethod
    def from_rows(cls, field, n, rows):
        """Canonical subspace spanned by rows in the field's row-kernel encoding."""
        kern = row_kernel(field)
        rows, piv = kern.echelon(rows, n)
        return cls(field, n, None, tuple(piv), kern.freeze(rows))

    @property
    def basis(self):
        """The canonical (RREF) basis as tuples of field elements."""
        if self._basis is None:
            decode, n = row_kernel(self.field).decode, self.n
            self._basis = tuple(decode(r, n) for r in self.enc)
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def is_zero(self):
        return not self.pivots

    @property
    def is_full(self):
        return len(self.pivots) == self.n

    def _check(self, other):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected Subspace, got {other!r}")
        if other.n != self.n or (other.field is not self.field and other.field != self.field):
            raise FieldMismatchError("subspaces of different ambient spaces")

    def _residue(self, v):
        """Encoded residue of the element vector v against the basis."""
        kern = row_kernel(self.field)
        return kern.reduce(kern.encode(v), self.enc, self.pivots)

    def reduce(self, v):
        """Residue of v after elimination against the canonical basis."""
        return row_kernel(self.field).decode(self._residue(v), self.n)

    def member(self, v):
        if len(v) != self.n:
            raise ValueError("vector length does not match ambient dimension")
        v = tuple(self.field.element(e) for e in v)
        return not row_kernel(self.field).nonzero(self._residue(v))

    def is_invariant_under(self, B):
        """True iff the matrix B maps this subspace into itself."""
        if (B.nrows, B.ncols) != (self.n, self.n):
            raise ValueError("matrix shape does not match ambient dimension")
        if self.is_zero or self.is_full:
            return True
        kern, rows, piv = row_kernel(self.field), self.enc, self.pivots
        images = kern.matmul(rows, B.cols, self.n)
        return not any(kern.nonzero(kern.reduce(w, rows, piv)) for w in images)

    def contains(self, other):
        self._check(other)
        kern, rows = row_kernel(self.field), self.enc
        return not any(kern.nonzero(kern.reduce(w, rows, self.pivots)) for w in other.enc)

    def sum(self, other):
        self._check(other)
        return Subspace.from_rows(self.field, self.n, self.enc + other.enc)

    def intersect(self, other):
        """Zassenhaus: rref of [U|U; W|0]; zero-left rows carry the intersection."""
        self._check(other)
        n, kern = self.n, row_kernel(self.field)
        join, pad = kern.join, kern.encode((self.field.zero(),) * n)
        stacked = [join(u, u, n) for u in self.enc] + [join(w, pad, n) for w in other.enc]
        rows, piv = kern.echelon(stacked, 2 * n)
        inter = [kern.tail(r, n) for r, p in zip(rows, piv) if p >= n]
        result = Subspace.from_rows(self.field, n, inter)
        # modular law, from an independent elimination of U + W, on every call
        total = len(kern.echelon(self.enc + other.enc, n)[0])
        if total + result.dim != self.dim + other.dim:
            raise InvariantError("modular law violated: intersection is wrong")
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.enc == self.enc
            and other.n == self.n
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.enc))
        return self._hash

    def sort_key(self):
        """(dim, the basis entries' field keys), kept once made."""
        if self._key is None:
            fk = self.field.sort_key
            self._key = (self.dim, tuple(tuple(fk(e) for e in row) for row in self.basis))
        return self._key

    def __repr__(self):
        return f"Subspace({subspace_label(self)} in {self.field!r}^{self.n})"


def span(vectors, field, n):
    """Canonical subspace spanned by the given vectors (empty -> zero)."""
    vecs = [tuple(field.element(e) for e in v) for v in vectors]
    for v in vecs:
        if len(v) != n:
            raise ValueError("generator length does not match ambient dimension")
    kern = row_kernel(field)
    return Subspace.from_rows(field, n, [kern.encode(v) for v in vecs])


def zero_subspace(field, n):
    return Subspace(field, n, (), ())


def full_space(field, n):
    return Subspace(field, n, None, tuple(range(n)), Matrix.identity(field, n).enc)


def kernel_basis(M):
    """Null space of M as a canonical Subspace of F^ncols: for each free
    column j of the RREF R, e_j - sum_i R[i][j] e_(pivot i), on encoded rows."""
    field, kern, n = M.field, M.kern, M.ncols
    rows, piv = kern.echelon(M.enc, n)
    if not rows:
        return full_space(field, n)
    free = [j for j in range(n) if j not in piv]
    unit, cols = Matrix.identity(field, n).enc, kern.transpose(rows, n)
    moved = kern.matmul([cols[j] for j in free], kern.prepare([unit[p] for p in piv]), n)
    one = kern.scalar(field.one())
    return Subspace.from_rows(field, n, [kern.submul(unit[j], one, w) for j, w in zip(free, moved)])


def image_basis(M):
    """Column space of M as a canonical Subspace of F^nrows."""
    return Subspace.from_rows(M.field, M.nrows, M.kern.transpose(M.enc, M.ncols))


def gaussian_binomial(n, d, q):
    """Number of d-dimensional subspaces of an n-dimensional space over GF(q)."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n, q):
    return sum(gaussian_binomial(n, d, q) for d in range(n + 1))


def enumerate_all_subspaces(field, n, cap=DEFAULT_SUBSPACE_CAP, invariant_under=()):
    """Every subspace of F^n invariant under each matrix in ``invariant_under``
    (every subspace when it is empty), exactly once, ordered by (dim, pivot
    set, free entries).

    Walks all RREF shapes in the field's row kernel; the field must be
    finite, the total count must stay within ``cap``, and the count walked
    is checked against it.  Each basis row is a projective point (lead 1 in
    its pivot column), encoded once with its images under the matrices.
    For 1 < dim < n a pivot set keeps a point v only if its hull H(v) has
    every pivot column in the set (see above; H(v) is spun from v once per
    point, as in Parker's Meat-Axe, 1984).  A candidate is one kept choice
    per row, and it survives when every image reduces to zero against its
    rows.
    """
    if not field.is_finite:
        raise InfiniteFieldError("infinite field: cannot enumerate subspaces over " + repr(field))
    total = subspace_count(n, field.order)
    if total > cap:
        raise CapExceededError(
            f"subspace count {total} exceeds cap {cap}", count=total, cap=cap
        )
    if any(M.field != field or (M.nrows, M.ncols) != (n, n) for M in invariant_under):
        raise FieldMismatchError(f"the matrices must act on {field!r}^{n}")
    kern = row_kernel(field)
    reduce, nonzero, matmul, freeze = kern.reduce, kern.nonzero, kern.matmul, kern.freeze
    cols = [M.cols for M in invariant_under]
    # F^1 has no free entries: skip listing a possibly huge field
    elems = tuple(field.elements()) if n > 1 else ()
    zero, one = field.zero(), field.one()
    # supports[m][i]: the nonzero entries of product(elems, repeat=m)[i], the tail
    # of points[n - 1 - m][i]; in every mask, column j is bit n - 1 - j
    supports = [[0]]
    for m in range(1, n):
        supports.append([(k and 1 << m - 1) | s for k in range(len(elems)) for s in supports[-1]])
    points = []  # points[p]: (element row, encoded row, encoded images), lead 1 at p
    for p in range(n):
        rows = [(zero,) * p + (one,) + tail for tail in product(elems, repeat=n - 1 - p)]
        points.append([(r, v, [matmul([v], c, n)[0] for c in cols])
                       for r, v in zip(rows, map(kern.encode, rows))])
    # a point's images by its frozen encoded row, for the spin (only 1 < d < n prunes)
    spin = {freeze([v])[0]: w for pts in points for _, v, w in pts} if cols and n > 2 else {}

    @cache
    def hull(p, i):  # the pivot columns of the spin of points[p][i], as a bitmask
        rows, piv = [points[p][i][1]], [p]  # each row reduced against the earlier ones
        for w in rows:  # rows grows as it is walked: each new row, a point, is spun too
            for x in spin[freeze([w])[0]]:
                x = reduce(x, rows, piv)
                if nonzero(x):
                    x, lead = kern.echelon([x], n)
                    rows += x
                    piv += lead
        return sum(1 << n - 1 - j for j in piv)

    yield zero_subspace(field, n)
    walked = 1
    for d in range(1, n + 1):
        for piv in combinations(range(n), d):
            mask = sum(1 << n - 1 - p for p in piv)
            # per row, the points[p] with zeros at the other pivots, as indices
            index = [[i for i, s in enumerate(supports[n - 1 - p]) if not s & mask] for p in piv]
            walked += prod(map(len, index))
            if cols and 1 < d < n:
                index = [[i for i in row if not hull(p, i) & ~mask] for p, row in zip(piv, index)]
            for combo in product(*([points[p][i] for i in row] for p, row in zip(piv, index))):
                rows = [c[1] for c in combo]
                if not any(nonzero(reduce(w, rows, piv)) for c in combo for w in c[2]):
                    yield Subspace(field, n, tuple(c[0] for c in combo), piv, freeze(rows))
    if walked != total:
        raise InvariantError("enumeration miscount against the Gaussian binomial total")


# ----------------------------------------------------------------------
# Finite lattices with Hasse cover relations.


@dataclass(frozen=True)
class Lattice:
    """Finite set of subspaces closed under sum and intersection.

    ``members`` is canonically sorted; ``covers`` lists index pairs
    (i, j) with members[i] covered by members[j]; ``flags`` optionally
    labels each member (e.g. "hyperinvariant" / "characteristic-only").
    """

    members: tuple
    covers: tuple
    flags: tuple | None = None

    def __len__(self):
        return len(self.members)


def build_lattice(subspaces, flags=None):
    """Assemble a Lattice, verifying distinctness, bounds and closure (else ``ClosureError``).

    ``flags`` maps Subspace -> str (optional).  One sum per pair proves
    closure, meets and covers.  Members are sorted by dimension first, so
    for i < j the sum u_i + u_j must be a member u_k, and u_i <= u_j iff
    k == j.  ``down[j]`` (``up[i]``) is the bitset of the members below u_j
    (above u_i), itself included; walking i upward, the bits of down[j]
    up to i are known at the pair (i, j), and down[i] has no others.
    The meet: every member below both lies in u_i meet u_j, whose
    dimension is dim u_i + dim u_j - dim u_k (Grassmann), so it is a
    member iff the common member of highest index (so of highest
    dimension) has that dimension.  This rests only on the exact echelons
    of the sums, as computing the intersection would.  (i, j) is a cover
    iff u_i and u_j are the only members both above u_i and below u_j.
    """
    members = list(subspaces)
    if len(set(members)) != len(members):
        raise ClosureError("duplicate subspaces in lattice construction")
    if not members:
        raise ClosureError("empty lattice")
    field, n = members[0].field, members[0].n
    for s in members:
        if s.field != field or s.n != n:
            raise FieldMismatchError("lattice members in different ambient spaces")
    members.sort(key=lambda s: s.sort_key())
    if members[0].dim != 0:
        raise ClosureError("lattice misses the zero subspace")
    if members[-1].dim != n:
        raise ClosureError("lattice misses the full space")
    kern, size = row_kernel(field), len(members)
    index = {s.enc: k for k, s in enumerate(members)}
    dims = [s.dim for s in members]
    up = [1 << k for k in range(size)]
    down = up[:]
    for j, w in enumerate(members):
        for i, u in enumerate(members[:j]):
            k = index.get(kern.freeze(kern.echelon(u.enc + w.enc, n)[0]))
            if k is None:
                raise ClosureError(
                    f"not closed under sum: {subspace_label(u)} + {subspace_label(w)}"
                )
            if k == j:
                up[i] |= 1 << j
                down[j] |= 1 << i
            if dims[(down[i] & down[j]).bit_length() - 1] != dims[i] + dims[j] - dims[k]:
                raise ClosureError(
                    f"not closed under intersection: {subspace_label(u)} ∩ {subspace_label(w)}"
                )
    covers = tuple((i, j) for i in range(size) for j in range(i + 1, size)
                   if up[i] & down[j] == 1 << i | 1 << j)
    flag_tuple = None
    if flags is not None:
        flag_tuple = tuple(flags.get(s, "") for s in members)
    return Lattice(tuple(members), covers, flag_tuple)


def subspace_label(s):
    """Human-readable basis label: "0", "V", or "<e2+e4, e3>"."""
    if s.is_zero:
        return "0"
    if s.is_full:
        return "V"
    parts = []
    for row in s.basis:
        terms = []
        for j, c in enumerate(row):
            if not c:
                continue
            cs = s.field.format_element(c)
            if cs == "1":
                terms.append(f"e{j + 1}")
            elif all(ch.isdigit() or ch in "-/" for ch in cs):
                terms.append(f"{cs}e{j + 1}")
            else:
                terms.append(f"({cs})e{j + 1}")
        parts.append("+".join(terms))
    return "<" + ", ".join(parts) + ">"


def to_dot(lattice, name="hasse"):
    """Deterministic Graphviz DOT text for the Hasse diagram."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, s in enumerate(lattice.members):
        label = subspace_label(s)
        if lattice.flags is not None and lattice.flags[i]:
            label += f" [{lattice.flags[i]}]"
        label = label.replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in lattice.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
