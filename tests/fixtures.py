"""Shared golden fixtures: the three worked instances used across the suite.

GOLD_RAT: 4x4 over Q, minimal polynomial (x^2+1)^2.
GOLD_8: 8x8 over GF(2), minimal polynomial (x^2+x+1)^3.
GOLD_4: 4x4 over GF(2), minimal polynomial (x+1)^3.
"""

from fractions import Fraction
from math import gcd, lcm

from invlat.centralizer import centralizer_basis
from invlat.errors import ClosureError, InvariantError
from invlat.fields import QQ, gf_build
from invlat.kernels import _convolve, _dot, _ElementRows, _int_matmul
from invlat.matrix import Matrix, inverse, poly_at_matrix
from invlat.subspace import Lattice, subspace_label

F2 = gf_build(2)
F3 = gf_build(3)


def partitions(n, cap=None):
    """The partitions of n with parts at most ``cap``, parts in descending order."""
    cap = cap or n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def newton_semisimple(A, p):
    """Reference semisimple part of A (p(A)^r = 0, p separable), independent
    of the polynomial iteration: the matrix Newton iteration
    S <- S - p(S) p'(S)^-1, started at A + p(A) rather than at A."""
    dp = p.derivative()
    S = A + poly_at_matrix(p, A)
    for _ in range(A.nrows.bit_length() + 1):
        P = poly_at_matrix(p, S)
        if P.is_zero:
            return S
        S = S - P @ inverse(poly_at_matrix(dp, S))
    raise AssertionError("matrix Newton iteration did not terminate")


def pairwise_lattice(subspaces, flags=None):
    """Reference for ``build_lattice``, independent of its containment-order
    certificate: a sum and a Zassenhaus intersection per pair, inclusion by
    ``contains``, and the covers by an O(M^3) transitive reduction."""
    members = sorted(subspaces, key=lambda s: s.sort_key())
    mset = set(members)
    if members[0].dim != 0:
        raise ClosureError("lattice misses the zero subspace")
    if members[-1].dim != members[0].n:
        raise ClosureError("lattice misses the full space")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            u, w = members[i], members[j]
            if u.sum(w) not in mset:
                raise ClosureError(
                    f"not closed under sum: {subspace_label(u)} + {subspace_label(w)}"
                )
            if u.intersect(w) not in mset:
                raise ClosureError(
                    f"not closed under intersection: {subspace_label(u)} ∩ {subspace_label(w)}"
                )
    less = [[i != j and u.dim < w.dim and w.contains(u) for j, w in enumerate(members)]
            for i, u in enumerate(members)]
    covers = tuple(
        (i, j)
        for i in range(len(members))
        for j in range(len(members))
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(len(members)))
    )
    flag_tuple = None if flags is None else tuple(flags.get(s, "") for s in members)
    return Lattice(tuple(members), covers, flag_tuple)


def zassenhaus_fhl_walk(ks):
    """Reference for ``KStructure.hyperinvariant``, independent of the Jordan
    chain basis: the Fillmore-Herrero-Longstaff walk with each term
    ker N^r meet im N^(t-r) a Zassenhaus intersection of the kernel and image
    chains, each tuple's member a sum of its terms, in the same order."""
    walk, last = [(0, ks.kernels[0])], 0  # (r_j, W of the prefix)
    for t in sorted(set(ks.segre)):
        terms = [ks.kernels[r].intersect(ks.images[t - r]) for r in range(t + 1)]
        walk = [(x, W.sum(terms[x])) for r, W in walk for x in range(r, r + t - last + 1)]
        last = t
    members = sorted({W for _, W in walk}, key=lambda W: W.sort_key())
    if len(members) != len(walk):
        raise InvariantError("two Fillmore-Herrero-Longstaff tuples give one subspace")
    return tuple(members)


def per_member_centralizer_check(ca):
    """Reference for hinv's certificate: Z(A_i) of the component operator
    solved as an n_i^2-unknown system over F, and every member of the
    component checked against each of its basis elements.  Returns the basis."""
    Ai = ca.component.restriction
    Z = centralizer_basis(Ai)
    if not all(W.is_invariant_under(B) for W in ca.kstruct.hyperinvariant for B in Z.elements):
        raise InvariantError("engine produced a non-hyperinvariant subspace")
    return Z


def _integral(rows):
    """(int rows, d): the Fraction rows are the int rows over d, the lcm of
    their denominators."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


class FractionRows(_ElementRows):
    """Reference Q row kernel: rows are lists of Fractions, one per entry.
    Echelon forms and products clear denominators once and compute on ints,
    then make one Fraction per output entry; a right operand is prepared as
    (int rows, d).  The int-row kernel is checked against it op by op."""

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


def e_rows(n, idxs, field):
    """Rows of standard basis vectors e_i (1-indexed)."""
    one, zero = field.one(), field.zero()
    return [tuple(one if j == i - 1 else zero for j in range(n)) for i in idxs]


GOLD_RAT_A = Matrix(QQ, [
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [1, 0, 0, 1],
    [0, 1, -1, 0],
])

GOLD_RAT_S = Matrix(QQ, [
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
])

GOLD_RAT_N = Matrix(QQ, [
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
])

GOLD_8_A = Matrix(F2, [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

GOLD_8_S = Matrix(F2, [
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 1],
])

GOLD_8_N = Matrix(F2, [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
])

GOLD_4_A = Matrix(F2, [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
])

GOLD_4_S = Matrix.identity(F2, 4)

GOLD_4_N = Matrix(F2, [
    [0, 0, 0, 0],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 0],
])
