"""Splitting an operator into primary components and semisimple + nilpotent parts.

For a square A over F with minimal polynomial m = p_1^{k_1} ... p_r^{k_r}:

* ``primary_decomposition`` produces the components V_i = ker p_i(A)^{k_i}
  together with the restriction A_i of A to V_i.
* ``analyze_operator`` splits A = S + N (S semisimple, N nilpotent,
  SN = NS) with S = q(A): Newton's iteration q <- q - r(q) r'(q)^{-1}
  mod m on polynomials, from q = x with r = p_1 ... p_r separable, needs
  ceil(log2 max k_i) steps (Couty, Esterle & Zarouf 2011).  On V_i,
  S_i = (q mod p_i^{k_i})(A_i), with that residue as checked certificate;
  ``jordan_chevalley`` does the same for one p-primary matrix.
* ``build_k_structure`` turns F^n into a vector space over K = F[S]
  (a field because p is irreducible) and computes the matrix N_K of N as a
  K-linear map.  One pass over the powers of N_K gives the kernel and
  image chains ker N_K^j, im N_K^j; the Segre characteristic is read off
  the kernel dimensions and the Jordan chain generators off the kernels,
  and the lattice code reuses both chains.  ``KStructure.hyperinvariant``
  reads the hyperinvariant subspaces of N_K off them in closed form
  (Fillmore, Herrero & Longstaff), once per analysis.

Everything is exact and deterministic; all stated invariants are checked
before a value is returned.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from math import inf, prod

from .errors import FieldMismatchError, InseparableFactorError, InvariantError
from .fields import ExtensionField, FiniteField, RationalField
from .matrix import Matrix, inverse, mat_vec, minimal_polynomial, poly_at_matrix
from .poly import Poly, factor, is_separable, poly_xgcd
from .subspace import (Subspace, build_lattice, enumerate_all_subspaces, full_space, image_basis,
                       kernel_basis, span, zero_subspace)

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

    @property
    def dim(self):
        return self.subspace.dim


def primary_decomposition(A, factorization):
    """Components of V under A for a verified factorization of m_A."""
    if not A.is_square:
        raise ValueError("primary decomposition requires a square matrix")
    field = A.field
    n = A.nrows
    comps = []
    total = 0
    all_rows = []
    for p, k in factorization:
        V = kernel_basis(poly_at_matrix(p**k, A))
        if V.is_zero:
            raise ValueError(f"factor {p!r} does not divide the minimal polynomial")
        # restriction: V's basis is in RREF, so the coordinates of A*b, once
        # it is checked to lie in V, are its entries at V's pivot columns
        AB = A @ Matrix.from_cols(field, V.basis)
        if not all(V.member(v) for v in zip(*AB.rows)):
            raise InvariantError("ker p(A)^k is not A-invariant")
        Ai = Matrix(field, [AB.rows[c] for c in V.pivots])
        # with the direct-sum check below this proves prod p^k = m_A: the
        # factors are coprime, so m_A is the lcm of the restricted ones
        if minimal_polynomial(Ai) != p**k:
            raise ValueError("factorization inconsistent with the minimal polynomial")
        comps.append(PrimaryComponent(p, k, V, Ai))
        total += V.dim
        all_rows.extend(V.enc)
    if total != n or Subspace.from_rows(field, n, all_rows).dim != n:
        raise ValueError("factorization inconsistent with the minimal polynomial")
    return comps


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
    if not poly_at_matrix(p**r, A).is_zero:
        raise ValueError("input contract violated: p(A)^r != 0")
    return _split(A, _semisimple_polynomial(p, p**r), p)


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
    vectors, deterministic); the F-basis groups each generator g with
    S g, ..., S^(s-1) g.  ``nk`` is the matrix of N over K in that basis,
    ``segre`` its Segre characteristic over K, ``chains`` Jordan chain
    generators over K (each chain listed generator first), and ``kernels``
    / ``images`` the K-subspaces ker N_K^j / im N_K^j for j = 0, ..., r
    (N_K^r = 0): every lattice is read off these, so the powers of N_K are
    formed here once.  ``invariant`` (inv's walk, which chinv filters) and
    ``hyperinvariant`` are formed once per analysis, on first use.
    """

    s: int
    field_k: object
    generators: tuple
    f_basis: Matrix  # columns: blocks (g, Sg, ..., S^{s-1}g) per generator
    f_basis_inv: Matrix
    nk: Matrix
    segre: tuple
    chains: tuple
    kernels: tuple
    images: tuple

    @property
    def k_dim(self):
        return self.f_basis.nrows // self.s

    def to_k(self, v):
        """F^n vector -> K^{n/s} coordinate vector."""
        x = mat_vec(self.f_basis_inv, v)
        out = []
        for j in range(self.k_dim):
            block = x[j * self.s : (j + 1) * self.s]
            out.append(self._k_from_coeffs(block))
        return tuple(out)

    def to_f(self, w):
        """K^{n/s} coordinate vector -> F^n vector."""
        return mat_vec(self.f_basis, self._f_coords(w))

    def _k_from_coeffs(self, block):
        K = self.field_k
        if self.s == 1:
            return block[0]
        if isinstance(K, FiniteField):
            return K.element([c.c[0] for c in block])
        return K.element(list(block))

    def _f_coords(self, w):
        """K^{n/s} coordinate vector -> its F-coordinates in the F-basis."""
        if self.s == 1:
            return tuple(w)
        F = self.f_basis.field
        return tuple(F.element(c) for a in w for c in a.c)

    def k_subspace_to_f(self, W):
        """K-subspace of K^{n/s} -> the same set as an F-subspace of F^n: the
        F-coordinates of each basis row times alpha^j (j < s), one kernel
        product with the F-basis."""
        fb = self.f_basis
        kern, n = fb.kern, fb.nrows
        if self.s == 1:  # K = F, with the same row kernel
            coords = W.enc
        else:
            alpha, coords = self.field_k.generator(), []
            for r in W.basis:
                for _ in range(self.s):
                    coords.append(kern.encode(self._f_coords(r)))
                    r = tuple(alpha * c for c in r)
        return Subspace.from_rows(fb.field, n, kern.matmul(coords, fb.cols, n))

    @cached_property
    def hyperinvariant(self):
        """The hyperinvariant subspaces of N_K, as F-subspaces in canonical
        order over K; formed on first use, so an analysis forms them once.

        With t_1 < ... < t_m the distinct block sizes, they are exactly
        W(r) = sum_j ker N^(r_j) meet im N^(t_j - r_j) with 0 <= r_j <= t_j and
        both r and t - r nondecreasing, one subspace per tuple r (Fillmore,
        Herrero & Longstaff, Linear Algebra Appl. 17, 1977, 125-132).  The
        walk extends every prefix of r by one entry per size, adding its term
        to the prefix's sum; taking t_0 = r_0 = 0, r_j runs over
        r_(j-1) ... r_(j-1) + t_j - t_(j-1).  The bijection is checked.
        """
        walk, last = [(0, self.kernels[0])], 0  # (r_j, W of the prefix)
        for t in sorted(set(self.segre)):
            terms = [self.kernels[r].intersect(self.images[t - r]) for r in range(t + 1)]
            walk = [(x, W.sum(terms[x])) for r, W in walk for x in range(r, r + t - last + 1)]
            last = t
        members = sorted({W for _, W in walk}, key=lambda W: W.sort_key())
        if len(members) != len(walk):
            raise InvariantError("two Fillmore-Herrero-Longstaff tuples give one subspace")
        return tuple(self.k_subspace_to_f(W) for W in members)

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


def build_k_structure(S, N, p):
    """K-structure of the space for a verified decomposition (S, N) and factor p."""
    field = S.field
    n = S.nrows
    s = p.degree
    if not poly_at_matrix(p, S).is_zero:
        raise ValueError("p(S) != 0: not a valid semisimple part for this factor")
    if s == 1:
        K = field
    elif isinstance(field, RationalField):
        K = ExtensionField(tuple(p.coeffs))
    elif isinstance(field, FiniteField):
        if field.k != 1:
            raise ValueError(
                "extension of an extension field is not supported: base field "
                f"{field!r} with degree-{s} factor"
            )
        K = FiniteField(field.p, s, modulus=tuple(c.c[0] for c in p.coeffs))
    else:
        raise TypeError(f"unsupported base field {field!r}")

    # greedy K-basis: scan e_1, ..., e_n; a vector outside the K-span so far
    # contributes the block (v, Sv, ..., S^{s-1} v), all new dimensions
    generators = []
    blocks = []
    covered = span([], field, n)
    for i in range(n):
        if covered.dim == n:
            break
        e = tuple(field.one() if j == i else field.zero() for j in range(n))
        if covered.member(e):
            continue
        block = [e]
        for _ in range(s - 1):
            block.append(mat_vec(S, block[-1]))
        generators.append(e)
        blocks.extend(block)
        covered = span(list(covered.basis) + block, field, n)
    if len(blocks) != n or covered.dim != n:
        raise InvariantError("K-basis construction failed to exhaust the space")
    f_basis = Matrix.from_cols(field, blocks)
    f_basis_inv = inverse(f_basis)

    # coordinates first: nk, its Segre characteristic and chains need to_k
    coords = KStructure(s, K, tuple(generators), f_basis, f_basis_inv, None, (), (), (), ())
    nk = Matrix.from_cols(K, [coords.to_k(mat_vec(N, g)) for g in generators])
    kernels, images = _power_chains(nk)
    segre = _segre(kernels, nk.nrows)
    result = replace(coords, nk=nk, segre=segre, chains=_jordan_chains(nk, segre, kernels),
                     kernels=kernels, images=images)
    _verify_k_structure(result, S, N)
    return result


def _jordan_chains(nk, segre, kernels):
    """Chain generators over K: for each block size t (descending), a vector of
    height exactly t independent from earlier chains; chain = (v, Nv, ...)."""
    K = nk.field
    m = nk.nrows
    chains = []
    chosen = []  # every vector of every chain so far
    for t in sorted(segre, reverse=True):
        big = kernels[t]
        small = kernels[t - 1]
        below = span(list(small.basis) + chosen, K, m)
        pick = next((cand for cand in big.basis if not below.member(cand)), None)
        if pick is None:
            raise InvariantError("Jordan chain extraction failed")
        chain = [pick]
        for _ in range(t - 1):
            chain.append(mat_vec(nk, chain[-1]))
        chains.append(tuple(chain))
        chosen.extend(chain)
    if span(chosen, K, m).dim != m:
        raise InvariantError("Jordan chains do not span")
    return tuple(chains)


def _verify_k_structure(ks, S, N):
    n = S.nrows
    if ks.s * sum(ks.segre) != n:
        raise InvariantError("K-structure dimensions do not add up")
    # N is K-linear and nk represents it: check on every generator block
    for j, g in enumerate(ks.generators):
        if ks.to_k(mat_vec(N, g)) != ks.nk.col(j):
            raise InvariantError("nk does not represent N over K")
    # round trip of coordinates
    for g in ks.generators:
        if ks.to_f(ks.to_k(g)) != g:
            raise InvariantError("K coordinates do not round-trip")


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
    analyses = []
    for comp in comps:
        p = comp.factor
        dec = _split(comp.restriction, q % p**comp.multiplicity, p)
        analyses.append(ComponentAnalysis(comp, dec, build_k_structure(dec.S, dec.N, p)))
    whole = _split(A, q, rad)  # checks rad(S) = 0 and N nilpotent on F^n
    return OperatorAnalysis(A, m, fact, tuple(analyses), whole.S, whole.N)
