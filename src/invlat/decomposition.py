"""Splitting an operator into primary components and semisimple + nilpotent parts.

For a square A over F with minimal polynomial m = p_1^{k_1} ... p_r^{k_r}:

* ``primary_decomposition`` produces the components V_i = ker p_i(A)^{k_i}
  together with the restriction A_i of A to V_i (k_i: p_i^(k_i-1)(A_i) != 0).
* ``analyze_operator`` splits A = S + N (S semisimple, N nilpotent,
  SN = NS) once, on F^n, with S = q(A): Newton's iteration q <- q - r(q)
  r'(q)^{-1} mod m on polynomials, from q = x with r = p_1 ... p_r
  separable, needs ceil(log2 max k_i) steps (Couty, Esterle & Zarouf 2011).
  S_i is read off S as A_i off A, N_i = A_i - S_i, with the one check
  (q mod p_i^{k_i})(A_i) = S_i; ``jordan_chevalley`` splits one p-primary matrix.
* ``build_k_structure`` turns F^n into a vector space over K = F[S]
  (a field because p is irreducible): K = F, B = I and N_K = N when
  s = deg p = 1, else one F-basis B, the blocks
  (g, S g, ..., S^(s-1) g) of the generators g, and reads the matrix N_K of
  N as a K-linear map off B^-1 N B, certified by N B = B f_form(N_K)
  (``f_form``: each entry as the s x s matrix of multiplication by it,
  which also maps K-subspaces to F^n).  One pass over the powers of N_K
  gives the kernel and image chains ker N_K^j, im N_K^j; the Segre
  characteristic is read off the kernel dimensions and the Jordan chains,
  as encoded rows, off the kernels, and the lattice code reuses both
  chains.  The chain vectors, checked to be a basis in which every kernel
  and image is a coordinate subspace
  (``KStructure.chain_rows``), give Z_K(N_K) in closed form
  (``KStructure.commutant``, certified) and the hyperinvariant subspaces of
  N_K (``KStructure.hyperinvariant``, Fillmore, Herrero & Longstaff), each
  formed once per analysis, with no intersection and no n^2-unknown solve.

Everything is exact and deterministic; all stated invariants are checked
before a value is returned.
"""

from dataclasses import dataclass
from functools import cached_property
from math import inf, prod

from .centralizer import certified_centralizer
from .errors import FieldMismatchError, InseparableFactorError, InvariantError
from .fields import ExtensionField, FiniteField, RationalField
from .kernels import row_kernel
from .matrix import Matrix, inverse, minimal_polynomial, poly_at_matrix
from .poly import Poly, factor, is_separable, poly_xgcd
from .subspace import (Subspace, build_lattice, enumerate_all_subspaces, full_space, image_basis,
                       kernel_basis, zero_subspace)

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
]


@dataclass(frozen=True)
class PrimaryComponent:
    """One primary summand V_i = ker p(A)^k with A restricted to it."""

    factor: Poly
    multiplicity: int
    subspace: Subspace  # V_i inside F^n, canonical basis
    restriction: Matrix  # A_i in the V_i basis (dim x dim)
    power: Poly  # factor ** multiplicity, the minimal polynomial of A_i

    @property
    def dim(self):
        return self.subspace.dim


def primary_decomposition(A, factorization):
    """Components of V under A for a verified ``Factorization`` of m_A, whose
    ``powers`` p^k give the kernels ker p(A)^k.  Each p must be irreducible:
    then p^k(A_i) = 0 leaves m_(A_i) = p^j, j <= k, and p^(k-1)(A_i) != 0
    gives j = k; with the direct-sum check this proves prod p^k = m_A."""
    if not A.is_square:
        raise ValueError("primary decomposition requires a square matrix")
    n = A.nrows
    comps = []
    total = 0
    all_rows = []
    for (p, k), pk in zip(factorization, factorization.powers):
        V = kernel_basis(poly_at_matrix(pk, A))
        if V.is_zero:
            raise ValueError(f"factor {p!r} does not divide the minimal polynomial")
        Ai = _restriction(A, V)
        if poly_at_matrix(pk // p, Ai).is_zero:
            raise ValueError("factorization inconsistent with the minimal polynomial")
        comps.append(PrimaryComponent(p, k, V, Ai, pk))
        total += V.dim
        all_rows.extend(V.enc)
    if total != n or Subspace.from_rows(A.field, n, all_rows).dim != n:
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
    """A = S + N with S semisimple, N nilpotent, SN = NS; S = certificate(A)."""

    S: Matrix
    N: Matrix
    certificate: Poly

    def verify(self, A, p):
        n = A.nrows
        if self.S + self.N != A:
            raise InvariantError("S + N != A")
        if self.S @ self.N != self.N @ self.S:
            raise InvariantError("S and N do not commute")
        if not (self.N ** n).is_zero:
            raise InvariantError("N is not nilpotent")
        if not poly_at_matrix(p, self.S).is_zero:
            raise InvariantError("p(S) != 0")
        if poly_at_matrix(self.certificate, A) != self.S:
            raise InvariantError("certificate q(A) != S")


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
    return _split(A, _semisimple_polynomial(p, pr), p)


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


def _split(A, q, p):
    """The verified decomposition S = q(A), N = A - S of A, with p(S) = 0 (p separable)."""
    S = poly_at_matrix(q, A)
    dec = JCDecomposition(S, A - S, q)
    dec.verify(A, p)
    return dec


# ----------------------------------------------------------------------


def _power_chains(N):
    """ker N^j and im N^j for j = 0, ..., r, with N^r the first zero power."""
    K, n = N.field, N.nrows
    P = Matrix.identity(K, n)
    kernels, images = [zero_subspace(K, n)], [full_space(K, n)]
    while kernels[-1].dim < n:
        if len(kernels) > n:
            raise ValueError("matrix is not nilpotent")
        P = P @ N
        kernels.append(kernel_basis(P))
        images.append(image_basis(P))
    return tuple(kernels), tuple(images)


def _segre(kernels, n):
    """Block sizes, largest first: ge[j-1] = dim ker N^j - dim ker N^(j-1) have size >= j."""
    ge = [b.dim - a.dim for a, b in zip(kernels, kernels[1:])] + [0]
    parts = [j for j in range(len(ge) - 1, 0, -1) for _ in range(ge[j - 1] - ge[j])]
    if sum(parts) != n:
        raise InvariantError("Segre characteristic does not sum to the dimension")
    return tuple(parts)


def segre_characteristic(N):
    """Jordan block sizes of a nilpotent matrix, largest first."""
    return _segre(_power_chains(N)[0], N.nrows)


@dataclass(frozen=True)
class KStructure:
    """F^n viewed as a K = F[S] vector space, and N as a K-linear map.

    ``generators`` are the chosen K-basis vectors (scanned standard basis
    vectors, deterministic); the F-basis ``f_basis`` groups each generator g
    with S g, ..., S^(s-1) g, so a K coordinate a = sum_k c_k alpha^k
    (alpha the class of x, acting as S) has the F-coordinates c_0 ... c_(s-1)
    in its block.  ``nk`` is the matrix of N over K in that basis, certified
    by N B = B ``f_form``(N_K), ``segre`` its Segre characteristic over K,
    ``chains`` the Jordan chains over K as encoded rows (each chain listed
    generator first), and ``kernels`` / ``images`` the K-subspaces ker N_K^j
    / im N_K^j for j = 0, ..., r (N_K^r = 0): every lattice is read off
    these, so the powers of N_K are formed here once.  ``invariant`` (inv's
    walk, which chinv filters), ``chain_rows``, ``commutant`` and
    ``hyperinvariant`` are formed once per analysis, on first use.
    """

    s: int
    field_k: object
    generators: tuple
    f_basis: Matrix  # columns: blocks (g, Sg, ..., S^{s-1}g) per generator
    nk: Matrix
    segre: tuple
    chains: tuple
    kernels: tuple
    images: tuple

    @property
    def k_dim(self):
        return self.f_basis.nrows // self.s

    def k_subspace_to_f(self, W):
        """K-subspace of K^{n/s} -> the same set as an F-subspace of F^n: W when
        s = 1 (B = I), else the column space of B ``f_form``(W^T), whose columns
        are the vectors w alpha^k (w a basis row of W, k < s), B the F-basis."""
        if self.s == 1:
            return W
        fb = self.f_basis
        if W.is_zero:
            return zero_subspace(fb.field, fb.nrows)
        WT = Matrix.encoded(W.field, row_kernel(W.field).transpose(W.enc, W.n), W.dim)
        return image_basis(fb @ f_form(WT, fb.field))

    @cached_property
    def chain_rows(self):
        """The Jordan chain vectors as encoded rows, chain by chain (independent,
        as ``build_k_structure`` checked), certified to be a basis in which every
        ker N_K^a and im N_K^b is the coordinate subspace on ``kernel_index(a)``
        / ``image_index(b)``: each ``kernels[a]`` and ``images[b]`` must hold the
        chain vectors of its index set and have as many dimensions as there
        are of them."""
        kern, rows = row_kernel(self.field_k), self.chains
        for what, spaces, index in (("ker", self.kernels, self.kernel_index),
                                    ("im", self.images, self.image_index)):
            for a, W in enumerate(spaces):
                vectors = [rows[i][c] for i, c in index(a)]
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
        """The K-subspace spanned by the chain vectors at the positions ``index``."""
        rows = self.chain_rows
        return Subspace.from_rows(self.field_k, self.k_dim, [rows[i][c] for i, c in sorted(index)])

    @cached_property
    def commutant(self):
        """Z_K(N_K) in closed form, as a certified ``CentralizerBasis``.

        For chains (g_j, t_j), (g_i, t_i) and t_i - min(t_i, t_j) <= b < t_i,
        X maps N^a g_j to N^(a+b) g_i (0 once a + b >= t_i) and every other
        chain to 0; b >= t_i - t_j makes N X N^(t_j - 1) g_j = N^(t_j + b) g_i
        vanish, as X N^(t_j) g_j = 0 does.
        These are the block Toeplitz commutants (Gantmacher, The Theory of
        Matrices, vol. 1, ch. VIII); X = Y C^-1, C the chain vectors and Y
        their images as columns, one kernel product.  The certificate: each X
        commutes with N_K, they are independent (as their values at the chain
        generators are, which fix a commuting X), and there are
        sum_(i,j) min(t_i, t_j) = dim Z_K(N_K) of them.
        """
        rows, dim = self.chain_rows, sum(min(a, b) for a in self.segre for b in self.segre)
        return certified_centralizer(self.nk, _chain_commutant(self.nk, rows), dim,
                                     [chain[0] for chain in rows])

    @cached_property
    def hyperinvariant(self):
        """The hyperinvariant subspaces of N_K, as F-subspaces in canonical
        order over K; formed on first use, so an analysis forms them once.

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
        im N^j are checked invariant under the basis of ``commutant``.  Every
        member is so made from the generators by + and meet, and X U <= U,
        X W <= W give X(U + W) <= U + W and X(U meet W) <= U meet W, so every
        member is Z_K(N_K)-invariant.  That is hyperinvariance over F: S and N
        are polynomials in the component operator A_i, so an F-linear map
        commutes with A_i iff it commutes with S (it is K-linear) and with N
        (as a K-linear map, with N_K); Z_F(A_i) = Z_K(N_K).
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
        Z = self.commutant.elements
        if not all(W.is_invariant_under(B) for W in {*self.kernels, *self.images} for B in Z):
            raise InvariantError("a kernel or image of N_K is not invariant under Z_K(N_K)")
        return tuple(self.k_subspace_to_f(W) for W in sorted(members, key=Subspace.sort_key))

    @cached_property
    def invariant(self):
        """The N_K-invariant K-subspaces (K finite) as F-subspaces, in walk order:
        walked once per analysis, after the caller has checked its cap."""
        walk = enumerate_all_subspaces(self.field_k, self.k_dim, inf, [self.nk])
        return tuple(self.k_subspace_to_f(W) for W in walk)

    @cached_property
    def hyperinvariant_lattice(self):
        """``hyperinvariant`` as a Lattice, built (closure re-checked) once per analysis."""
        return build_lattice(self.hyperinvariant)


def f_form(X, F):
    """The F-matrix of X, a matrix over K = F[alpha] of degree s, in the bases
    (1, alpha, ..., alpha^(s-1)) of its K coordinates: block (i, j) is the
    s x s matrix of multiplication by X_ij, its column k the coefficients of
    X_ij alpha^k (s > 1)."""
    K = X.field
    s, alpha, rows = K.k, K.generator(), []
    for row in X.rows:
        block = [[] for _ in range(s)]
        for a in row:
            powers = []
            for _ in range(s):
                powers.append(a.c)
                a = a * alpha
            for out, coeffs in zip(block, zip(*powers)):
                out.extend(coeffs)
        rows.extend(block)
    return Matrix(F, rows)


def _k_matrix(K, P, s):
    """The K-matrix whose entry (i, j) has the coefficients P[i s + k][j s],
    k < s (s > 1), the inverse of ``f_form`` on its image."""
    m = P.nrows // s
    coeffs = (lambda c: [x.c[0] for x in c]) if K.is_finite else list
    cols = [P.col(j * s) for j in range(m)]
    return Matrix.from_cols(K, [[K.element(coeffs(c[i * s : i * s + s])) for i in range(m)]
                                for c in cols])


def build_k_structure(S, N, p):
    """K-structure of the space for a verified decomposition (S, N) and factor p;
    for s = 1, K = F, B = I, N_K = N and the unit vectors, with no certificate."""
    field, n, s = S.field, S.nrows, p.degree
    if not poly_at_matrix(p, S).is_zero:
        raise ValueError("p(S) != 0: not a valid semisimple part for this factor")
    if s == 1:
        K, f_basis, nk = field, Matrix.identity(field, n), N
        generators = f_basis.rows
    elif isinstance(field, RationalField):
        K = ExtensionField(tuple(p.coeffs))
    elif isinstance(field, FiniteField) and field.k == 1:
        K = FiniteField(field.p, s, modulus=tuple(c.c[0] for c in p.coeffs))
    elif isinstance(field, FiniteField):
        raise ValueError("extension of an extension field is not supported: base field "
                         f"{field!r} with degree-{s} factor")
    else:
        raise TypeError(f"unsupported base field {field!r}")
    if s > 1:
        # greedy K-basis: scan e_1, ..., e_n; a vector outside the K-span so far
        # contributes the block (v, Sv, ..., S^{s-1} v), all new dimensions
        kern, units = S.kern, Matrix.identity(field, n)
        generators, blocks, rows, pivots = [], [], [], []
        for e in units.enc:
            if not kern.nonzero(kern.reduce(e, rows, pivots)):
                continue
            block = [e]
            for _ in range(s - 1):
                block += kern.matmul(block[-1:], S.cols, n)
            generators.append(kern.decode(e, n))
            blocks += block
            rows, pivots = kern.echelon(rows + block, n)
        if len(blocks) != n or len(pivots) != n:
            raise InvariantError("K-basis construction failed to exhaust the space")
        f_basis = Matrix.encoded(field, kern.transpose(blocks, n), n)
        nk = _k_matrix(K, inverse(f_basis) @ N @ f_basis, s)
        # on all n columns of B: B f_form(X) B^-1 commutes with S for every X, so
        # this holds iff N is K-linear and N_K, packed as f_form reads it, is its matrix
        if N @ f_basis != f_basis @ f_form(nk, field):
            raise InvariantError("N_K does not represent N over K")
    kernels, images = _power_chains(nk)
    segre = _segre(kernels, nk.nrows)
    return KStructure(s, K, tuple(generators), f_basis, nk, segre,
                      _jordan_chains(nk, segre, kernels), kernels, images)


def _jordan_chains(nk, segre, kernels):
    """Chain generators over K, as encoded rows: for each block size t
    (descending), a vector of height exactly t independent from earlier
    chains; chain = (v, Nv, ...)."""
    kern, m = nk.kern, nk.nrows
    chains = []
    chosen = []  # every vector of every chain so far
    for t in sorted(segre, reverse=True):
        below, pivots = kern.echelon([*kernels[t - 1].enc, *chosen], m)
        pick = next((v for v in kernels[t].enc if kern.nonzero(kern.reduce(v, below, pivots))),
                    None)
        if pick is None:
            raise InvariantError("Jordan chain extraction failed")
        chain = [pick]
        for _ in range(t - 1):
            chain += kern.matmul(chain[-1:], nk.cols, m)
        chains.append(kern.freeze(chain))
        chosen.extend(chain)
    if len(kern.echelon(chosen, m)[0]) != m:
        raise InvariantError("Jordan chains do not span")
    return tuple(chains)


def _chain_commutant(nk, rows):
    """The closed-form basis of Z_K(N_K) (``KStructure.commutant``) from the
    encoded chain vectors ``rows``, in the order (j, i, b)."""
    K, kern, m = nk.field, nk.kern, nk.nrows
    flat = [v for chain in rows for v in chain]
    cinv = inverse(Matrix.encoded(K, kern.transpose(flat, m), m)).right
    zero = Matrix.zeros(K, 1, m).enc[0]
    starts = [sum(map(len, rows[:j])) for j in range(len(rows))]
    out = []
    for j, gj in enumerate(rows):
        for gi in rows:
            ti = len(gi)
            for b in range(ti - min(ti, len(gj)), ti):
                images = [zero] * m  # column c of Y: the image of chain vector c
                images[starts[j] : starts[j] + ti - b] = gi[b:]
                out.append(Matrix.encoded(K, kern.matmul(kern.transpose(images, m), cinv, m), m))
    return out


# ----------------------------------------------------------------------
# Whole-operator analysis: factorization + per-component decomposition.


@dataclass(frozen=True)
class ComponentAnalysis:
    component: PrimaryComponent
    jc: JCDecomposition  # of the restricted matrix A_i
    kstruct: KStructure


@dataclass(frozen=True)
class OperatorAnalysis:
    matrix: Matrix
    min_poly: Poly
    factorization: object
    components: tuple
    S: Matrix  # semisimple part q(A) on F^n
    N: Matrix

    @property
    def single_component(self):
        return len(self.components) == 1


def analyze_operator(A, *, hint=None, seed=0):
    """Factor m_A, split into primary components, decompose each one."""
    if not A.is_square:
        raise ValueError("square matrix required")
    m = minimal_polynomial(A)
    fact = factor(m, hint=hint, seed=seed)
    comps = primary_decomposition(A, fact)
    # the factors are coprime, so their product is separable once each one is
    rad = prod((_separable(comp.factor) for comp in comps), start=Poly.one(A.field))
    q = _semisimple_polynomial(rad, m)
    whole = _split(A, q, rad)  # S + N = A, SN = NS, N nilpotent and rad(S) = 0 on F^n
    analyses = []
    for comp in comps:
        # S_i, N_i restrict S, N, so those laws hold; q_i(A_i) is computed apart
        Ai, qi = comp.restriction, q % comp.power
        Si = _restriction(whole.S, comp.subspace)
        if poly_at_matrix(qi, Ai) != Si:
            raise InvariantError("certificate q(A) != S on a primary component")
        dec = JCDecomposition(Si, Ai - Si, qi)
        analyses.append(ComponentAnalysis(comp, dec, build_k_structure(Si, dec.N, comp.factor)))
    return OperatorAnalysis(A, m, fact, tuple(analyses), whole.S, whole.N)
