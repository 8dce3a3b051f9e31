"""Splitting an operator into primary components and semisimple + nilpotent parts.

For a square A over F with minimal polynomial m = p_1^{k_1} ... p_r^{k_r}:

* ``primary_decomposition`` produces the components V_i = ker p_i(A)^{k_i},
  the restriction A_i of A to V_i, K = F[x]/(p_i) (s = deg p_i, named once)
  and the kernels ker P^j, P = p_i(A_i), j < k_i: ker P^(k_i-1) < V_i proves
  k_i, and as P = N_i u, u a unit (``analyze_operator``), their dimensions
  over s give the Segre characteristic of N_K.
* ``analyze_operator`` splits A = S + N (S semisimple, N nilpotent,
  SN = NS) once, on F^n, with S = q(A): Newton's iteration q <- q - r(q)
  r'(q)^{-1} mod m on polynomials, from q = x with r = p_1 ... p_r
  separable, needs ceil(log2 max k_i) steps (Couty, Esterle & Zarouf 2011).
  S_i is read off S as A_i off A, N_i = A_i - S_i, with the one check
  (q mod p_i^{k_i})(A_i) = S_i; S and each S_i are formed on first use.
  ``jordan_chevalley`` splits one p-primary matrix.
* ``build_k_structure`` makes F^n a vector space over K = F[S] (a field,
  as p is irreducible), on F^n itself: K acts with the class of x as S, so
  the K-subspaces are the F-subspaces that S maps into itself, and N acts
  as a K-linear map N_K, whose ker N_K^j and im N_K^j are ker P^j and im P^j.
  The Jordan chains of N_K, each vector with its S-closure (v, S v, ...,
  S^(s-1) v), are read off the kernels.  The S-closed chain vectors,
  checked to be a basis in which every kernel and image is a coordinate
  subspace (``KStructure.chain_rows``), give Z_F(A_i) = Z_K(N_K) in closed
  form (``KStructure.commutant``, certified against A_i) and the
  hyperinvariant subspaces of N_K (``KStructure.hyperinvariant``, Fillmore,
  Herrero & Longstaff), each formed once per analysis, with no
  intersection and no n^2-unknown solve.  ``KStructure.invariant``
  enumerates the N_K-invariant subspaces on F^n or walks them one K-line
  (the F-span of an S-closure) at a time, whichever their exact counts
  (``invariant_counts``) make cheaper: no K element is formed.

Everything is exact and deterministic; all stated invariants are checked
before a value is returned.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import inf, prod
from operator import itemgetter

from .centralizer import certified_centralizer
from .errors import FieldMismatchError, InfiniteFieldError, InseparableFactorError, InvariantError
from .fields import MAX_SEARCH_ORDER, ExtensionField, FiniteField
from .matrix import Matrix, inverse, minimal_polynomial, poly_at_matrix
from .poly import Poly, factor, format_poly, is_separable, poly_xgcd
from .subspace import (Subspace, build_lattice, enumerate_all_subspaces, full_space,
                       gaussian_binomial, image_basis, kernel_basis, subspace_count, zero_subspace)

__all__ = [
    "PrimaryComponent",
    "primary_decomposition",
    "JCDecomposition",
    "jordan_chevalley",
    "KStructure",
    "build_k_structure",
    "OperatorAnalysis",
    "ComponentAnalysis",
    "analyze_operator",
    "segre_characteristic",
    "invariant_counts",
]


@dataclass(frozen=True)
class PrimaryComponent:
    """One primary summand V_i = ker p(A)^k, A restricted to it, K and P = p(A_i)."""

    factor: Poly
    multiplicity: int
    subspace: Subspace  # V_i inside F^n, canonical basis
    restriction: Matrix  # A_i in the V_i basis (dim x dim)
    power: Poly  # factor ** multiplicity, the minimal polynomial of A_i
    field_k: object  # K = F[x]/(p), named by ``_field_k``
    powers: tuple  # P^j for j = 0, ..., k
    kernels: tuple  # ker P^j = ker N_K^j for j = 0, ..., k
    segre: tuple  # of N_K, read off the kernel dimensions over s

    @property
    def dim(self):
        return self.subspace.dim


def primary_decomposition(A, factorization):
    """Components of V under A for a verified ``Factorization`` of m_A, whose
    ``powers`` p^k give the kernels ker p(A)^k.  Each p must be irreducible:
    then p^k(A_i) = 0 leaves m_(A_i) = p^j, j <= k, and ker p(A_i)^(k-1) < V_i
    gives j = k; with the direct-sum check this proves prod p^k = m_A."""
    if not A.is_square:
        raise ValueError("primary decomposition requires a square matrix")
    n, comps, all_rows = A.nrows, [], []
    for (p, k), pk in zip(factorization, factorization.powers):
        V = kernel_basis(poly_at_matrix(pk, A))
        if V.is_zero:
            raise ValueError(f"factor {p!r} does not divide the minimal polynomial")
        Ai = _restriction(A, V)
        P = poly_at_matrix(p, Ai) if k > 1 else Matrix.zeros(A.field, V.dim)  # V_i = ker p(A)
        powers, kernels = _power_chains(P, k)
        comps.append(PrimaryComponent(p, k, V, Ai, pk, _field_k(A.field, p), powers, kernels,
                                      _segre(kernels, V.dim, p.degree)))
        all_rows.extend(V.enc)
    if len(all_rows) != n or Subspace.from_rows(A.field, n, all_rows).dim != n:
        raise ValueError("factorization inconsistent with the minimal polynomial")
    return comps


def _restriction(M, V):
    """M on the M-invariant subspace V, in V's basis: V's basis is in RREF, so
    the coordinates of M b, once it is checked to lie in V, are its entries at
    V's pivot columns."""
    field, kern = M.field, M.kern
    MB = M @ Matrix.encoded(field, kern.transpose(V.enc, M.nrows), V.dim)
    images = kern.transpose(MB.enc, V.dim)
    if any(kern.nonzero(kern.reduce(v, V.enc, V.pivots)) for v in images):
        raise InvariantError("ker p(A)^k is not invariant under the restricted matrix")
    return Matrix.encoded(field, [MB.enc[c] for c in V.pivots], V.dim)


@dataclass(frozen=True)
class JCDecomposition:
    """A = S + N with S semisimple, N nilpotent, SN = NS; S = certificate(A),
    as ``_split`` makes it and ``ComponentAnalysis.jc`` checks per component."""

    S: Matrix
    N: Matrix
    certificate: Poly

    def verify(self, A, p, r):
        """The laws S + N = A, SN = NS, N^r = 0 and p(S) = 0 (p separable), r the
        largest multiplicity: N = (x - q)(A) and p | x - q, so p^r(A) = 0 gives it."""
        if self.S + self.N != A:
            raise InvariantError("S + N != A")
        if self.S @ self.N != self.N @ self.S:
            raise InvariantError("S and N do not commute")
        if not (self.N ** r).is_zero:
            raise InvariantError("N is not nilpotent")
        if not poly_at_matrix(p, self.S).is_zero:
            raise InvariantError("p(S) != 0")


def jordan_chevalley(A, p, r):
    """Semisimple + nilpotent splitting of A with p(A)^r = 0, p separable.

    S = q(A) for the q of ``_semisimple_polynomial(p, p^r)``, reduced mod
    p^r: the least-degree certificate when p^r is the minimal polynomial.
    """
    if not A.is_square:
        raise ValueError("square matrix required")
    if p.field != A.field:
        raise FieldMismatchError("factor and matrix over different fields")
    _separable(p)
    pr = p**r
    if not poly_at_matrix(pr, A).is_zero:
        raise ValueError("input contract violated: p(A)^r != 0")
    return _split(A, _semisimple_polynomial(p, pr), p, r)


def _separable(p):
    if not is_separable(p):
        raise InseparableFactorError(f"Jordan-Chevalley unavailable: inseparable factor {p!r}")
    return p


def _semisimple_polynomial(rad, m):
    """q with rad(q) = 0 mod m (rad separable, m | rad^k), by Newton's iteration
    q <- q - rad(q) rad'(q)^{-1} mod m from q = x.  Every iterate is x mod
    rad, so rad'(q) is a unit mod m (inverted by ``poly_xgcd``), and each
    step squares the power of rad dividing rad(q).  f(q) mod m is the
    coefficient row of f times the rows of q^i mod m, one kernel product."""
    field, kern, d = rad.field, rad.kern, m.degree
    drad = rad.derivative()
    q = Poly.x(field) % m
    for _ in range(d.bit_length() + 1):
        powers = [Poly.one(field)]
        for _ in range(rad.degree):
            powers.append(powers[-1] * q % m)
        rows = kern.prepare(kern.place([w.enc for w in powers], 0, d))
        at = lambda f: Poly.encoded(field, kern.matmul([f.enc], rows, d)[0])
        residual = at(rad)
        if residual.is_zero:
            return q
        q = (q - residual * poly_xgcd(at(drad), m)[1]) % m
    raise InvariantError("Newton iteration failed to terminate")


def _split(A, q, p, r):
    """The verified decomposition S = q(A), N = A - S of A, p^r(A) = 0, p(S) = 0 (p
    separable); S = q(A) holds as S is made so, and is not evaluated again."""
    S = poly_at_matrix(q, A)
    dec = JCDecomposition(S, A - S, q)
    dec.verify(A, p, r)
    return dec


# ----------------------------------------------------------------------


def _power_chains(P, k=None):
    """P^j and ker P^j for j = 0, ..., k, P^k = 0: a given k is checked by
    ker P^(k-1) < F^n, and P^k is not formed; else k is the first such j."""
    F, n = P.field, P.nrows
    powers, kernels = [Matrix.identity(F, n)], [zero_subspace(F, n)]
    while len(kernels) < k if k else kernels[-1].dim < n:
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
        powers.append(powers[-1] @ P)
        kernels.append(kernel_basis(powers[-1]))
    if k:
        if kernels[-1].dim == n:
            raise ValueError("factorization inconsistent with the minimal polynomial")
        powers.append(Matrix.zeros(F, n))
        kernels.append(full_space(F, n))
    return tuple(powers), tuple(kernels)


def _segre(kernels, n, s=1):
    """Block sizes over K, largest first, s = dim_F K: (dim ker N^j - dim ker
    N^(j-1)) / s = ge[j-1] blocks have size >= j."""
    ge = [(b.dim - a.dim) // s for a, b in zip(kernels, kernels[1:])] + [0]
    parts = [j for j in range(len(ge) - 1, 0, -1) for _ in range(ge[j - 1] - ge[j])]
    if s * sum(parts) != n:
        raise InvariantError("Segre characteristic does not sum to the dimension")
    return tuple(parts)


def segre_characteristic(N):
    """Jordan block sizes of a nilpotent matrix, largest first."""
    return _segre(_power_chains(N)[1], N.nrows)


@cache
def invariant_counts(segre, Q):
    """The invariant subspaces of a nilpotent N_K of Segre characteristic ``segre``
    over K = GF(Q): their number by K-dimension 0, ..., sum(segre), and the
    number of cover pairs among them.

    They are the submodules of the K[t]-module of type lambda = segre.  Those
    of type mu (mu_i <= lambda_i) have K-dimension |mu| and number
    prod_i Q^(mu'_(i+1) (lambda'_i - mu'_i)) [lambda'_i - mu'_(i+1), mu'_i - mu'_(i+1)]_Q,
    where mu' is the conjugate partition of mu and [.]_Q the Gaussian binomial
    (Birkhoff, Proc. London Math. Soc. 38, 1935; Butler, Subgroup Lattices and
    Symmetric Functions, Mem. AMS 539, 1994).  Each has (Q^l - 1)/(Q - 1) lower
    covers, l = mu'_1 its number of parts: the hyperplanes of U / N U.
    """
    conjugate = lambda mu: [sum(1 for m in mu if m > i) for i in range(segre[0])] + [0]
    lam, mus = conjugate(segre), [()]
    for t in segre:  # the partitions mu inside lambda, padded with zeros
        mus = [mu + (x,) for mu in mus for x in range(min(mu[-1:] + (t,)) + 1)]
    members, edges = [0] * (sum(segre) + 1), 0
    for mu in mus:
        m = conjugate(mu)
        count = prod(Q ** (m[i + 1] * (lam[i] - m[i]))
                     * gaussian_binomial(lam[i] - m[i + 1], m[i] - m[i + 1], Q)
                     for i in range(segre[0]))
        members[sum(mu)] += count
        edges += count * (Q ** m[0] - 1) // (Q - 1)
    return tuple(members), edges


@dataclass(frozen=True)
class KStructure:
    """F^n as a vector space over K = F[S], and N as a K-linear map N_K.

    K = F[x]/(p), s = deg p, acts with the class alpha of x as S, so a
    K-subspace is exactly an F-subspace that S maps into itself, and every
    K-object is held on F^n.  ``S`` and ``N`` are the component's parts
    (a verified decomposition: SN = NS, p(S) = 0); ``generators`` are the
    scanned unit vectors outside the K-span of those before them, for
    reports.  ``kernels`` / ``images`` are ker P^j / im P^j over F for
    P = p(S + N) = N u (u a unit, ``analyze_operator``) and j = 0, ..., r
    (N^r = 0): the K-subspaces ker N_K^j / im N_K^j, off which every lattice
    is read.  ``segre`` is the Segre characteristic of N_K, read off the
    kernel dimensions over s, and ``chains`` the Jordan chains (g, N g, ...)
    of N_K, each vector held as its S-closure (v, S v, ..., S^(s-1) v),
    encoded; chain i follows ``segre[i]``.
    ``invariant`` (inv's members, which chinv filters), ``chain_rows``,
    ``commutant`` and ``hyperinvariant`` are formed once per analysis, on
    first use.
    """

    s: int
    field_k: object
    generators: tuple
    S: Matrix
    N: Matrix
    segre: tuple
    chains: tuple
    kernels: tuple
    images: tuple

    @property
    def k_dim(self):
        return self.N.nrows // self.s

    @cached_property
    def chain_rows(self):
        """``chains``, certified to be a basis in which every ker N^a and im N^b
        is the coordinate subspace on the S-closures of the chain vectors at
        ``kernel_index(a)`` / ``image_index(b)``.  The S-closed chain vectors are
        independent, as ``build_k_structure`` checked, so it suffices that each
        ``kernels[a]`` and ``images[b]`` holds those of its index set and has
        as many dimensions as there are of them."""
        kern, rows = self.N.kern, self.chains
        for what, spaces, index in (("ker", self.kernels, self.kernel_index),
                                    ("im", self.images, self.image_index)):
            for a, W in enumerate(spaces):
                vectors = [v for i, c in index(a) for v in rows[i][c]]
                if len(vectors) != W.dim or any(
                        kern.nonzero(kern.reduce(v, W.enc, W.pivots)) for v in vectors):
                    raise InvariantError(
                        f"{what} N_K^{a} is not the span of its Jordan chain vectors")
        return rows

    def kernel_index(self, a):
        """The positions (i, c) of the chain vectors N^c g_i in ker N_K^a:
        c >= t_i - a, t_i the length of chain i."""
        return frozenset((i, c) for i, t in enumerate(map(len, self.chains))
                         for c in range(max(t - a, 0), t))

    def image_index(self, b):
        """The positions (i, c) of the chain vectors N^c g_i in im N_K^b: c >= b."""
        return frozenset((i, c) for i, t in enumerate(map(len, self.chains)) for c in range(b, t))

    def chain_span(self, index):
        """The K-subspace spanned by the chain vectors at the positions ``index``:
        the F-span of their S-closures."""
        rows = self.chain_rows
        return Subspace.from_rows(self.N.field, self.N.nrows,
                                  [v for i, c in sorted(index) for v in rows[i][c]])

    @cached_property
    def commutant(self):
        """Z_F(A_i) = Z_K(N_K) in closed form, as a certified ``CentralizerBasis``
        over F (an F-linear map commutes with A_i = S + N iff it commutes with
        S, so is K-linear, and with N).

        For chains (g_j, t_j), (g_i, t_i) and t_i - min(t_i, t_j) <= b < t_i,
        the K-linear X maps N^a g_j to N^(a+b) g_i (0 once a + b >= t_i) and
        every other chain to 0, so S^k N^a g_j to S^k N^(a+b) g_i;
        b >= t_i - t_j makes N X N^(t_j - 1) g_j = N^(t_j + b) g_i vanish, as
        X N^(t_j) g_j = 0 does.  These are the block Toeplitz commutants
        (Gantmacher, The Theory of Matrices, vol. 1, ch. VIII), a K-basis;
        the S^k X, k < s, are an F-basis.  X = Y C^-1, C the S-closed chain
        vectors and Y their images as columns, one kernel product.  The
        certificate (``certified_centralizer``): each element commutes with
        A_i, they are independent (as their values at the chain generators,
        which generate F^n under A_i, are), and there are
        s sum_(i,j) min(t_i, t_j) = dim_F Z_F(A_i) of them.
        """
        rows = self.chain_rows
        dim = self.s * sum(min(a, b) for a in self.segre for b in self.segre)
        return certified_centralizer(self.S + self.N, _chain_commutant(self.S, rows), dim,
                                     [chain[0][0] for chain in rows])

    @cached_property
    def hyperinvariant(self):
        """The hyperinvariant subspaces of N_K, as F-subspaces in canonical
        order; formed on first use, so an analysis forms them once.

        With t_1 < ... < t_m the distinct block sizes, they are exactly
        W(r) = sum_j ker N^(r_j) meet im N^(t_j - r_j) with 0 <= r_j <= t_j and
        both r and t - r nondecreasing, one subspace per tuple r (Fillmore,
        Herrero & Longstaff, Linear Algebra Appl. 17, 1977, 125-132); taking
        t_0 = r_0 = 0, r_j runs over r_(j-1) ... r_(j-1) + t_j - t_(j-1).  In
        the Jordan chain basis (``chain_rows``) every kernel and image is a
        coordinate subspace, and sums and meets of those are the spans of the
        unions and intersections of their index sets: each W(r) is formed so,
        its index set the union over j of the intersections of
        ``kernel_index(r_j)`` and ``image_index(t_j - r_j)``, then one echelon
        per tuple and no intersection of subspaces.

        Certificate: ``chain_rows`` checks that the kernels and images are the
        coordinate subspaces on those index sets, the bijection (distinct
        tuples, distinct subspaces) is checked, and the generators ker N^j and
        im N^j are checked invariant under the K-basis X of ``commutant``;
        S maps them into themselves (SN = NS), so S^k X does too, and they
        are invariant under all of Z_K(N_K).  Every member is so made from
        the generators by + and meet, and X U <= U, X W <= W give
        X(U + W) <= U + W and X(U meet W) <= U meet W, so every member is
        Z_K(N_K)-invariant: hyperinvariant over F, as Z_F(A_i) = Z_K(N_K).
        """
        sizes = sorted(set(self.segre))
        walk, last = [(0,)], 0  # tuples r, led by r_0 = 0
        for t in sizes:
            walk = [r + (x,) for r in walk for x in range(r[-1], r[-1] + t - last + 1)]
            last = t
        ker = [self.kernel_index(a) for a in range(len(self.kernels))]
        im = [self.image_index(b) for b in range(len(self.images))]
        members = {self.chain_span(frozenset().union(*(ker[rj] & im[tj - rj]
                                                       for tj, rj in zip(sizes, r[1:]))))
                   for r in walk}
        if len(members) != len(walk):
            raise InvariantError("two Fillmore-Herrero-Longstaff tuples give one subspace")
        Z = self.commutant.elements[:: self.s]  # the X, each first of its S^k X
        if not all(W.is_invariant_under(B) for W in {*self.kernels, *self.images} for B in Z):
            raise InvariantError("a kernel or image of N_K is not invariant under Z_K(N_K)")
        return tuple(sorted(members, key=Subspace.sort_key))

    @cached_property
    def invariant(self):
        """The N_K-invariant K-subspaces (K finite) as F-subspaces, found once per
        analysis, after the caller has checked its cap, by the cheaper of two
        exact methods.

        For s = 1 (K = F), N is enumerated over all C = ``subspace_count(n, q)``
        RREF candidates when the cover count E of ``invariant_counts`` is at
        least C / 8, and the covers are walked otherwise (for s > 1, always).
        A walked edge costs 9-30 us and a candidate 1.4-4 us; the constant 8
        picked the faster method on all 21 shapes it was fitted on (2 vCPU,
        CPython 3.11.7): GF(2) (5,3), (3,3,1,1), (2,2,2,1), (1^6), (1^7), (1^8),
        (2,1^4), (2,2,1,1,1), (3,1^4), (2,1^5), (4,1^4), (2,2,2,2), (3,2,1,1),
        (4,2,1,1), (3,3,1) and GF(3) (3,2,1), (1^4), (2,1,1), (1^5), (2,2,1),
        (2,1,1,1).

        The walk goes up from {0} on F^n, one K-line, the F-span of an
        S-closure (v, S v, ..., S^(s-1) v), at a time.  N_K is nilpotent: the
        upper covers of an invariant U are the U + Kv for the K-lines Kv of
        N^-1 U / U, and each invariant U != 0 has N U < U, so it covers every
        K-hyperplane of U that holds N U.  The K-lines are projective points on
        a K-basis w_1, ..., w_k of N^-1 U / U (``_k_basis``):
        v = w_i + sum_(j > i) c_j w_j, where a K-coordinate
        c_j = sum_l c_jl alpha^l is the F-combination sum_l c_jl S^l w_j
        (``_projective_points``); no K element is formed.  Each cover's
        S-closure is inserted into U's echelon (``_insert``).

        Certificate: the members are distinct and N_K-invariant (the lattice
        driver checks each against A), and as many in each K-dimension as
        ``invariant_counts`` gives, so they are all.  The walk also checks that
        the full space is reached, and each U != 0 from exactly
        (Q^k - 1)/(Q - 1) lower covers (Q = |K|, k = dim_K U/NU).
        """
        F, n, s, K = self.N.field, self.N.nrows, self.s, self.field_k
        if not K.is_finite:
            raise InfiniteFieldError(f"infinite field: cannot walk the subspaces over {K!r}")
        counts, edges = invariant_counts(self.segre, K.order)
        if s == 1 and 8 * edges >= subspace_count(n, K.order):
            members = list(enumerate_all_subspaces(F, n, inf, [self.N]))
        else:
            members = self._cover_walk()
        found = Counter(W.dim // s for W in members)
        if tuple(found[d] for d in range(len(counts))) != counts:
            raise InvariantError("the N_K-invariant subspaces found are not as many, by "
                                 "dimension, as the Segre characteristic gives")
        return tuple(members)

    def _cover_walk(self):
        """``invariant``'s walk up the covers, breadth first, with its checks."""
        F, n, s, S, N, kern = self.N.field, self.N.nrows, self.s, self.S, self.N, self.N.kern
        Q = self.field_k.order
        columns, units = kern.transpose(N.enc, n), Matrix.identity(F, n).enc  # N e_j, e_j
        reached = {zero_subspace(F, n): 0}  # member -> lower covers it was reached from
        walk = list(reached)
        for U in walk:  # breadth first: each lower cover of U is walked before U
            k = (U.dim - Subspace.from_rows(F, n, kern.matmul(U.enc, N.cols, n)).dim) // s
            if U.dim and reached[U] != (Q**k - 1) // (Q - 1):
                raise InvariantError("an N_K-invariant subspace is not reached from each "
                                     "of its lower covers")
            # N^-1 U / U: the combinations of the e_j off U's pivots that N maps into U
            tagged = kern.echelon([kern.join(kern.reduce(columns[j], U.enc, U.pivots), units[j], n)
                                   for j in range(n) if j not in U.pivots], 2 * n)
            above = [kern.tail(r, n) for r, p in zip(*tagged) if p >= n]
            basis = above if s == 1 else _k_basis(S, s, above, U.enc, U.pivots)
            W = kern.prepare([v for block in zip(*_s_closure(S, basis, s)) for v in block])
            points = _projective_points(kern, F, s, len(basis))
            for line in zip(*_s_closure(S, kern.matmul(points, W, n), s)):
                rows, pivots = _insert(kern, U.enc, U.pivots, line, n)
                V = Subspace(F, n, None, tuple(pivots), kern.freeze(rows))
                if V not in reached:
                    reached[V] = 0
                    walk.append(V)
                reached[V] += 1
        if not walk[-1].is_full:
            raise InvariantError("the walk of the N_K-invariant subspaces misses the full space")
        return walk

    @cached_property
    def hyperinvariant_lattice(self):
        """``hyperinvariant`` as a Lattice, built (closure re-checked) once per analysis."""
        return build_lattice(self.hyperinvariant)


def _s_closure(S, rows, s):
    """The S-closure of each encoded row v: the rows S^k v, k < s, as one list per k."""
    levels = [list(rows)]
    for _ in range(s - 1):
        levels.append(S.kern.matmul(levels[-1], S.cols, S.nrows))
    return levels


def _k_basis(S, s, vectors, rows=(), pivots=()):
    """A K-basis of the span of ``vectors`` modulo the K-subspace with echelon
    (rows, pivots), by a greedy scan: a vector outside the span so far is
    kept, and its S-closure adds s dimensions."""
    kern, n = S.kern, S.nrows
    kept = []
    for v in vectors:
        if kern.nonzero(kern.reduce(v, rows, pivots)):
            kept.append(v)
            rows, pivots = _insert(kern, rows, pivots, [w for (w,) in _s_closure(S, [v], s)], n)
    return kept


def _insert(kern, rows, pivots, vectors, n):
    """The RREF (rows, pivots) of the span of the RREF (rows, pivots) and of
    ``vectors``: only the vectors' residues are echeloned, and their pivot
    columns are then cleared from ``rows``."""
    new, at = kern.echelon([kern.reduce(v, rows, pivots) for v in vectors], n)
    merged = sorted([*zip(pivots, (kern.reduce(r, new, at) for r in rows)), *zip(at, new)],
                    key=itemgetter(0))
    return [r for _, r in merged], [p for p, _ in merged]


def _projective_points(kern, F, s, k):
    """The K-lines of K^k, K of degree s over the finite F, one encoded F-row of
    length s k each: coordinate j is (c_j0, ..., c_j(s-1)), the coefficients of
    sum_l c_jl alpha^l, and the first nonzero coordinate is 1.  F is listed only
    for k > 1: the one K-line of K^1 is the lead, and F may be huge."""
    elems, zero = tuple(F.elements()) if k > 1 else (), F.zero()
    lead = (F.one(),) + (zero,) * (s - 1)
    return [kern.encode((zero,) * (s * i) + lead + tail)
            for i in range(k) for tail in product(elems, repeat=s * (k - 1 - i))]


def _field_k(field, p):
    """K = F[x]/(p), named: F (s = 1), Q[t]/(p), GF(p^s) mod p, or GF(p^(ks)) over GF(p^k)."""
    s = p.degree
    if s == 1:
        return field
    if not field.is_finite:
        return ExtensionField(tuple(p.coeffs))
    if field.k == 1:
        return FiniteField(field.p, s, modulus=tuple(c.c[0] for c in p.coeffs))
    if field.order**s > MAX_SEARCH_ORDER:
        raise ValueError(f"the factor {format_poly(p)} makes K = GF({field.p}^{field.k * s}), "
                         f"beyond the supported order MAX_SEARCH_ORDER = {MAX_SEARCH_ORDER}")
    return FiniteField(field.p, field.k * s)


def build_k_structure(S, N, p, component=None):
    """K-structure of the space for a verified decomposition (S, N) and factor p:
    K and the chain of P = p(S + N) are the ``component``'s (A_i = S + N) if given."""
    field, n, s = S.field, S.nrows, p.degree
    if not poly_at_matrix(p, S).is_zero:
        raise ValueError("p(S) != 0: not a valid semisimple part for this factor")
    if component is None:
        powers, kernels = _power_chains(poly_at_matrix(p, S + N))
        K, segre = _field_k(field, p), _segre(kernels, n, s)
    else:
        K, powers, kernels, segre = (component.field_k, component.powers, component.kernels,
                                     component.segre)
    units = Matrix.identity(field, n).enc
    generators = units if s == 1 else _k_basis(S, s, units)  # a K-basis of F^n
    if s * len(generators) != n:
        raise InvariantError("K-basis construction failed to exhaust the space")
    return KStructure(s, K, tuple(S.kern.decode(e, n) for e in generators), S, N, segre,
                      _jordan_chains(S, N, s, segre, kernels), kernels,
                      (full_space(field, n), *map(image_basis, powers[1:])))


def _jordan_chains(S, N, s, segre, kernels):
    """The Jordan chains of N_K, each vector as its S-closure: for each block
    size t (descending), a vector of ker N^t outside ker N^(t-1) and the K-span
    of the chains so far, the F-span of their S-closures; chain = (v, Nv, ...,
    N^(t-1) v), and N^t v = 0 is checked.  The S-closures of all chains must
    span F^n, and are s sum t = n vectors, so they are a basis."""
    kern, n = N.kern, N.nrows
    chains = []
    chosen = []  # the S-closure of every vector of every chain so far
    for t in segre:
        below, pivots = kern.echelon([*kernels[t - 1].enc, *chosen], n)
        pick = next((v for v in kernels[t].enc if kern.nonzero(kern.reduce(v, below, pivots))),
                    None)
        if pick is None:
            raise InvariantError("Jordan chain extraction failed")
        chain = [pick]
        for _ in range(t):
            chain += kern.matmul(chain[-1:], N.cols, n)
        if kern.nonzero(chain.pop()):
            raise InvariantError("a Jordan chain does not end in ker N")
        blocks = tuple(kern.freeze(block) for block in zip(*_s_closure(S, chain, s)))
        chains.append(blocks)
        chosen.extend(v for block in blocks for v in block)
    if len(kern.echelon(chosen, n)[0]) != n:
        raise InvariantError("Jordan chains do not span")
    return tuple(chains)


def _chain_commutant(S, rows):
    """The closed-form F-basis of Z_K(N_K) (``KStructure.commutant``) from the
    S-closed chain vectors ``rows``: S^k X for each X, in the order (j, i, b),
    k < s within each."""
    F, kern, n = S.field, S.kern, S.nrows
    flat = [v for chain in rows for block in chain for v in block]
    cinv = inverse(Matrix.encoded(F, kern.transpose(flat, n), n)).right
    zero = Matrix.zeros(F, 1, n).enc[0]
    s = len(rows[0][0])
    starts = [s * sum(map(len, rows[:j])) for j in range(len(rows))]
    out = []
    for j, gj in enumerate(rows):
        for gi in rows:
            ti = len(gi)
            for b in range(ti - min(ti, len(gj)), ti):
                images = [zero] * n  # column c of Y: the image of chain vector c
                images[starts[j] : starts[j] + s * (ti - b)] = [v for blk in gi[b:] for v in blk]
                out.append(Matrix.encoded(F, kern.matmul(kern.transpose(images, n), cinv, n), n))
                for _ in range(s - 1):
                    out.append(S @ out[-1])
    return out


# ----------------------------------------------------------------------
# Whole-operator analysis: factorization + per-component decomposition.


@dataclass(frozen=True)
class ComponentAnalysis:
    component: PrimaryComponent
    whole: object  # the analysis's split of A, formed on its first call

    @cached_property
    def jc(self):  # of A_i: S_i, N_i restrict S, N, so the laws hold; q_i(A_i) is computed apart
        comp, whole = self.component, self.whole()
        Ai, qi = comp.restriction, whole.certificate % comp.power
        Si = _restriction(whole.S, comp.subspace)
        if poly_at_matrix(qi, Ai) != Si:
            raise InvariantError("certificate q(A) != S on a primary component")
        return JCDecomposition(Si, Ai - Si, qi)

    @cached_property
    def kstruct(self):
        return build_k_structure(self.jc.S, self.jc.N, self.component.factor, self.component)


@dataclass(frozen=True)
class OperatorAnalysis:
    matrix: Matrix
    min_poly: Poly
    factorization: object
    components: tuple
    whole: object  # the verified split A = S + N on F^n, formed on its first call

    S = property(lambda self: self.whole().S)  # semisimple part q(A) on F^n
    N = property(lambda self: self.whole().N)

    @property
    def single_component(self):
        return len(self.components) == 1

    @cached_property
    def _direct_sums(self):
        """``lattices._report``'s products on this analysis, by the ids of A and the factors."""
        return {}


def analyze_operator(A, *, hint=None, seed=0):
    """Factor m_A and split it into primary components, each with K and the Segre
    characteristic of N_K; the split S + N and the components' ``jc`` and
    ``kstruct`` are formed on first read, once per analysis.  p = p_i is
    separable and p(S_i) = 0, so p(A_i) = N_i (p'(S_i) + N_i w) = N_i u, w a
    polynomial in S_i, N_i; u commutes with N_i and is a unit, p'(S_i) being
    one (p' is prime to p) and N_i w nilpotent: ker/im p(A_i)^j = ker/im N_K^j."""
    if not A.is_square:
        raise ValueError("square matrix required")
    m = minimal_polynomial(A)
    fact = factor(m, hint=hint, seed=seed)
    comps = primary_decomposition(A, fact)
    # the factors are coprime, so their product is separable once each one is
    rad = prod((_separable(comp.factor) for comp in comps), start=Poly.one(A.field))
    r = max(comp.multiplicity for comp in comps)
    # S + N = A, SN = NS, N^r = 0 and rad(S) = 0 on F^n
    whole = cache(lambda: _split(A, _semisimple_polynomial(rad, m), rad, r))
    return OperatorAnalysis(A, m, fact, tuple(ComponentAnalysis(c, whole) for c in comps), whole)
