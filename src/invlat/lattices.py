"""Invariant, hyperinvariant, and characteristic subspace lattices.

The computation is per primary component, over the commutative field
K = F[S] attached to that component's semisimple part, from the kernel
and image chains of N_K that ``build_k_structure`` formed once:

* invariant subspaces of the component operator are exactly the
  K-subspaces invariant under the nilpotent part N_K -- walked once when K
  is finite and small enough (``KStructure.invariant``), the kernel chain,
  which is the hyperinvariant lattice, when N_K is cyclic, and provably an
  infinite family otherwise (two or more Jordan blocks over an infinite field);
* hyperinvariant subspaces over K are the closure of the kernel and image
  chains of N_K under sum and intersection, read off in closed form: with
  t_1 < ... < t_m the distinct block sizes of N_K they are the sums
  W(r) = sum_j ker N_K^(r_j) meet im N_K^(t_j - r_j) over the tuples r with
  r and t - r nondecreasing, one member per tuple (Fillmore, Herrero &
  Longstaff, Linear Algebra Appl. 17, 1977).  ``KStructure.hyperinvariant``
  walks the tuples once per analysis, and hinv and chinv share its members
  and their Lattice (``hyperinvariant_lattice``, closure re-checked once).
  Each member is re-verified in component coordinates against a basis of
  the centralizer Z(A_i) of the restriction A_i.  That certifies the
  direct sum against Z(A): every X commuting with A commutes with
  p_i(A)^k_i, so it maps each primary component V_i into itself, and
  Z(A) = Z(A_1) + ... + Z(A_r) block diagonally in the primary basis;
* characteristic subspaces equal the hyperinvariant ones whenever K has
  more than two elements; for K = GF(2) the block-size witness (two
  distinct block sizes, each exactly once, differing by at least two)
  decides whether extra members can exist, and if so they are the members
  of inv's walk that the span of the units of Z(N_K) preserves (it holds
  N_K); that span is read off the kernel chain in closed form and
  certified by seeded units (``_unit_span``), so no unit group is walked.

Each lattice is a rule for one component, run on every component by one
driver (``_report``).  Components combine by direct sums because the
primary factors are coprime; closure and covers are proved per component
(``_assemble``).
Reports carry provenance notes describing the fact used at each step.
"""

from dataclasses import dataclass, replace
from itertools import compress, product
from math import prod
from random import Random

from .centralizer import centralizer_basis, is_hyperinvariant
from .decomposition import analyze_operator
from .errors import CapExceededError, ClosureError, InvariantError, UndecidedError
from .kernels import row_kernel
from .matrix import Matrix, mat_vec, minimal_polynomial
from .poly import format_poly, poly_gcd
from .subspace import (
    DEFAULT_SUBSPACE_CAP,
    Lattice,
    Subspace,
    build_lattice,
    kernel_basis,
    subspace_count,
)

__all__ = [
    "ShodaWitness",
    "shoda_witness",
    "characteristic_dispatch",
    "LatticeReport",
    "inv_lattice",
    "hinv_lattice",
    "chinv_lattice",
    "direct_sum_lattices",
]


@dataclass(frozen=True)
class ShodaWitness:
    """Two block sizes, each of multiplicity one, with big > small + 1."""

    big: int
    small: int


def shoda_witness(segre):
    """A witness pair from a Segre characteristic, or None.

    Scans sizes in descending order and returns the largest qualifying
    (big, small) pair, deterministic for a given partition.
    """
    counts = {}
    for part in segre:
        counts[part] = counts.get(part, 0) + 1
    singles = sorted((p for p, c in counts.items() if c == 1), reverse=True)
    for i, big in enumerate(singles):
        for small in singles[i + 1 :]:
            if big > small + 1:
                return ShodaWitness(big, small)
    return None


def characteristic_dispatch(field_k, segre):
    """Booleans deciding whether characteristic non-hyperinvariant members exist."""
    k_is_gf2 = field_k.is_finite and field_k.order == 2
    witness = shoda_witness(segre)
    return {
        "field_k_is_gf2": k_is_gf2,
        "shoda_witness": witness,
        "possible": bool(k_is_gf2 and witness),
    }


DETAIL_CAP = 150
UNIT_DRAWS = 2000  # seeded draws allowed to certify the closed-form unit span


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of a lattice computation.

    ``finite`` is True/False when decided, or None when the lattice is
    finite but too large to materialize under the cap.  ``complete``
    tells whether ``members`` holds every member (when False it is a
    sublattice only).  ``lattice`` carries the Hasse structure and is
    built only when the member count is within the detail cap; the
    member list itself is always present.
    """

    kind: str
    finite: object
    complete: bool
    members: tuple
    lattice: object
    components: tuple
    provenance: tuple
    notes: tuple = ()
    member_flags: tuple = None

    def member_set(self):
        return set(self.members)


def component_meta(ca):
    """The description of one component that every report carries."""
    ks = ca.kstruct
    return {
        "factor": format_poly(ca.component.factor),
        "multiplicity": ca.component.multiplicity,
        "dim": ca.component.dim,
        "s": ks.s,
        "field_k": repr(ks.field_k),
        "segre_k": ks.segre,
        "segre_f": tuple(sorted((p for p in ks.segre for _ in range(ks.s)), reverse=True)),
    }


def _unit_span(ks, seed):
    """A basis, as matrices over K = GF(2), of the span L of the units of Z(N_K).

    Z maps onto the product of the End(Q_t), Q_t = ker N^t / W, W = ker N^(t-1)
    + N ker N^(t+1), with nilpotent kernel.  A unit acts as 1 on each Q_t of
    dimension one (t of multiplicity one; g, the top of the size-t chain,
    spans it), and units span M_m(GF(2)) for m >= 2: so L is where the scalars
    [X g not in W] agree.  Seeded units certify they span L, or it is undecided.
    """
    nk, K, m = ks.nk, ks.nk.field, ks.nk.nrows
    Z = centralizer_basis(nk)
    kers = ks.kernels
    scalars = []
    for g, t in ((c[0], len(c)) for c in ks.chains if ks.segre.count(len(c)) == 1):
        W = kers[t - 1].sum(kers[t].intersect(ks.images[1]))  # N ker N^(t+1) = ker N^t meet im N
        scalars.append([K.zero() if W.member(mat_vec(B, g)) else K.one() for B in Z.elements])
    conditions = [[a - b for a, b in zip(scalars[0], row)] for row in scalars[1:]]
    L = Z.elements
    if conditions:
        L = tuple(Z.combination(c) for c in kernel_basis(Matrix(K, conditions)).basis)
    if len(L) != Z.dim - len(conditions):
        raise InvariantError("unit-span conditions are not independent")
    kern, d = row_kernel(K), len(L)
    units = []  # units by their coordinates in L, as GF(2) rows
    for c in _unit_draws(L, K, m, seed):
        units.append(sum(b << t for t, b in enumerate(c)))
        if len(kern.echelon(units, d)[0]) == d:
            return L
    raise UndecidedError(
        f"undecided at this scale: {UNIT_DRAWS} seeded draws found units spanning "
        f"{len(kern.echelon(units, d)[0])} of the {d} dimensions of the unit span"
    )


def _unit_draws(L, K, m, seed):
    """In draw order, the coordinates c of the seeded draws sum c_t L_t (m x m,
    over K = GF(2)) that are units: XORs of the L_t's int rows packed row-major."""
    kern, mask, rng = row_kernel(K), (1 << m) - 1, Random(seed)
    packed = [sum(r << i * m for i, r in enumerate(B.enc)) for B in L]
    for _ in range(UNIT_DRAWS):
        c = [rng.randrange(2) for _ in L]
        x = 0
        for B in compress(packed, c):
            x ^= B
        if len(kern.echelon([x >> i * m & mask for i in range(m)], m)[0]) == m:
            yield c


def _assemble(factors, factor_flags, embed, field, n, detail_cap=None, notes=None, shared=None):
    """The direct sums W_1 + ... + W_r, one W_c from each factor: the sorted
    member tuple, its aligned flags, and (within ``detail_cap``) the Lattice.

    ``factors[c]`` lists subspaces in the c-th summand's own coordinates,
    ``factor_flags[c]`` maps them to labels (or is None), and ``embed(c, w)``
    gives encoded rows spanning w inside F^n.  The rank of each sum re-checks that
    the summands are independent, so sum and intersection of two direct
    sums are taken summand by summand: the product is closed once every
    factor passes ``build_lattice`` (sum over c of M_c^2 pairs, not
    (prod M_c)^2), and its covers are the pairs of tuples that differ in
    one summand only, where they are a cover of that factor.  ``shared[c]``,
    when given and not None, returns the c-th factor's Lattice already built.
    """
    lats = None
    if detail_cap is None or prod(map(len, factors)) <= detail_cap:
        lats = [get() if get else build_lattice(f, flags=fl)
                for f, fl, get in zip(factors, factor_flags, shared or [None] * len(factors))]
        factors = [lat.members for lat in lats]
    rows = [[embed(c, w) for w in f] for c, f in enumerate(factors)]
    tuples = {}
    for combo in product(*(range(len(f)) for f in factors)):
        parts = [rows[c][i] for c, i in enumerate(combo)]
        s = Subspace.from_rows(field, n, [r for part in parts for r in part])
        if s.dim != sum(map(len, parts)):
            raise InvariantError("component subspaces are not independent")
        tuples[s] = combo
    members = sorted(tuples, key=lambda s: s.sort_key())
    flags = None
    if factor_flags[0] is not None:
        flags = tuple(
            "characteristic-only"
            if any(factor_flags[c][factors[c][i]] == "characteristic-only"
                   for c, i in enumerate(tuples[s]))
            else "hyperinvariant"
            for s in members
        )
    if lats is None:
        notes.append(
            f"Hasse structure and closure re-check skipped for {len(members)} members "
            f"(detail cap {detail_cap}); member list is complete"
        )
        return tuple(members), flags, None
    if members[-1].dim != n:
        raise ClosureError("lattice misses the full space")
    index = {tuples[s]: k for k, s in enumerate(members)}
    covers = sorted(
        (k, index[t[:c] + (j,) + t[c + 1 :]])
        for t, k in index.items()
        for c, lat in enumerate(lats)
        for i, j in lat.covers
        if t[c] == i
    )
    return tuple(members), flags, Lattice(tuple(members), tuple(covers), flags)


def _report(kind, A, ana, sum_note, component):
    """The LatticeReport of ``kind`` for A, built per primary component.

    ``component(ca, provenance, notes)`` appends its provenance and notes and
    returns, in the component's own coordinates, its members, their flags
    (a dict, or None), ``finite`` (True, None when the lattice is finite but
    over a cap, False), whether the members are all of its lattice, and
    None or a function returning their Lattice built once per analysis.  The
    components combine by direct sums (``_assemble``): the whole is infinite
    if one part is, finite if every part is, and complete if every part is.
    """
    provenance, notes = [], []
    if len(ana.components) > 1:
        provenance.append(f"coprime primary factors: {sum_note}")
    parts = [component(ca, provenance, notes) for ca in ana.components]
    factors, factor_flags, finites, completes, shared = zip(*parts)
    kern, n = row_kernel(A.field), A.nrows
    bases = [kern.prepare(ca.component.subspace.enc) for ca in ana.components]
    members, flags, lat = _assemble(
        factors, factor_flags, lambda c, w: kern.matmul(w.enc, bases[c], n),
        A.field, n, DETAIL_CAP, notes, shared,
    )
    finite = False if False in finites else None if None in finites else True
    return LatticeReport(
        kind=kind, finite=finite, complete=all(completes), members=members, lattice=lat,
        components=tuple(component_meta(ca) for ca in ana.components),
        provenance=tuple(provenance), notes=tuple(notes), member_flags=flags,
    )


_DIRECT_SUM = "the lattice is the direct sum of the component lattices"


def inv_lattice(A, *, hint=None, seed=0, cap_subspaces=DEFAULT_SUBSPACE_CAP, analysis=None):
    """Lattice of A-invariant subspaces of F^n."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)

    def component(ca, provenance, notes):
        ks = ca.kstruct
        pname = format_poly(ca.component.factor)
        provenance.append(
            f"component {pname}: invariant subspaces are the "
            "K-subspaces invariant under the nilpotent part, K the field generated by the "
            "semisimple part"
        )
        if ks.field_k.is_finite and subspace_count(ks.k_dim, ks.field_k.order) <= cap_subspaces:
            return ks.invariant, None, True, True, None
        if len(ks.segre) <= 1:  # the kernel chain, which is the hyperinvariant lattice
            provenance.append(
                f"component {pname}: nilpotent part is cyclic over K, "
                "so its invariant subspaces form the kernel chain"
            )
            return ks.hyperinvariant, None, True, True, lambda: ks.hyperinvariant_lattice
        if ks.field_k.is_finite:  # the kernel chain is a part of the lattice
            notes.append(
                f"component {pname}: finite lattice not materialized "
                f"(subspace count exceeds cap {cap_subspaces}); kernel chain reported"
            )
            finite = None
        else:
            notes.append(
                f"component {pname}: infinitely many invariant subspaces (several "
                "Jordan blocks over an infinite field); kernel chain reported"
            )
            finite = False
        return [ks.k_subspace_to_f(w) for w in ks.kernels], None, finite, False, None

    rep = _report("invariant", A, ana, _DIRECT_SUM, component)
    if not all(W.is_invariant_under(A) for W in rep.members):
        raise InvariantError("engine produced a non-invariant subspace")
    return rep


def hinv_lattice(A, *, hint=None, seed=0, analysis=None):
    """Lattice of subspaces invariant under everything commuting with A."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)

    def component(ca, provenance, notes):
        provenance.append(
            f"component {format_poly(ca.component.factor)}: hyperinvariant subspaces over F "
            "equal those of the nilpotent part over K; computed as the closure of the kernel "
            "and image chains under sum and intersection"
        )
        # Z(A) is block diagonal over the components: checking Z(A_i) on
        # each component's members certifies their direct sums against Z(A)
        ks = ca.kstruct
        Ai = ca.component.restriction
        Z = centralizer_basis(Ai)
        if not all(is_hyperinvariant(W, Ai, Z) for W in ks.hyperinvariant):
            raise InvariantError("engine produced a non-hyperinvariant subspace")
        return ks.hyperinvariant, None, True, True, lambda: ks.hyperinvariant_lattice

    return _report("hyperinvariant", A, ana, _DIRECT_SUM, component)


def chinv_lattice(A, *, hint=None, seed=0, cap_subspaces=DEFAULT_SUBSPACE_CAP, analysis=None):
    """Lattice of subspaces invariant under A and all invertible commutants."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)

    def component(ca, provenance, notes):
        ks = ca.kstruct
        pname = format_poly(ca.component.factor)
        local = ks.hyperinvariant
        members, complete = local, True  # unless a witness adds members
        if not (ks.field_k.is_finite and ks.field_k.order == 2):
            provenance.append(
                f"component {pname}: K has more than two elements, so every characteristic "
                "subspace is hyperinvariant"
            )
        elif (witness := shoda_witness(ks.segre)) is None:
            provenance.append(
                f"component {pname}: K = GF(2) but no block-size witness (two sizes, each "
                "exactly once, gap at least two), so characteristic = hyperinvariant"
            )
        else:
            provenance.append(
                f"component {pname}: K = GF(2) with block sizes ({witness.big},{witness.small}) "
                "each of multiplicity one and gap >= 2: characteristic non-hyperinvariant "
                "subspaces exist; found by exhaustive invariant-subspace filtering"
            )
            if ks.s != 1 or ks.f_basis != Matrix.identity(ks.field_k, ks.k_dim):  # F = K
                raise InvariantError("K = GF(2) must give s = 1 and the standard K-basis")
            try:  # L holds N_K: its invariant subspaces are those of inv's walk it keeps
                if (total := subspace_count(ks.k_dim, 2)) > cap_subspaces:  # before unit work
                    raise CapExceededError(f"subspace count {total} exceeds cap {cap_subspaces}")
                L = _unit_span(ks, seed)
                members = [W for W in ks.invariant if all(W.is_invariant_under(B) for B in L)]
            except (CapExceededError, UndecidedError) as exc:
                notes.append(
                    f"component {pname}: characteristic-only portion not computed at this "
                    f"scale ({exc}); hyperinvariant members reported"
                )
                complete = False
        hset = set(local)
        flags = {w: "hyperinvariant" if w in hset else "characteristic-only" for w in members}
        shared = lambda: replace(ks.hyperinvariant_lattice, flags=("hyperinvariant",) * len(local))
        return members, flags, True, complete, shared if members is local else None

    return _report(
        "characteristic", A, ana,
        "characteristic lattices combine as direct sums "
        "(commuting automorphisms of the sum are block diagonal)",
        component,
    )


def direct_sum_lattices(lattices, matrices=None):
    """Product lattice of operators acting on independent blocks.

    Members of the i-th lattice are embedded into the block of
    coordinates belonging to the i-th summand; every member of the result
    is a direct sum of members.  When ``matrices`` is given, the blocks'
    minimal polynomials must be pairwise coprime (the decomposition laws
    need it), otherwise an error is raised.  Each lattice is rebuilt from
    its members alone (closure re-checked, covers recomputed) before the
    product is assembled.
    """
    if not lattices:
        raise ValueError("no lattices to combine")
    field = lattices[0].members[0].field
    dims = [lat.members[-1].n for lat in lattices]
    if matrices is not None:
        if len(matrices) != len(lattices):
            raise ValueError("one matrix per lattice required")
        polys = [minimal_polynomial(M) for M in matrices]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if poly_gcd(polys[i], polys[j]).degree != 0:
                    raise ValueError(
                        "non-coprime components: minimal polynomials share the factor "
                        f"{format_poly(poly_gcd(polys[i], polys[j]))}"
                    )
    n, kern = sum(dims), row_kernel(field)
    offsets = [sum(dims[:c]) for c in range(len(dims))]
    embed = lambda c, w: kern.place(w.enc, offsets[c], n)

    factor_flags = [None] * len(lattices)
    if any(lat.flags is not None for lat in lattices):
        factor_flags = [
            dict(zip(lat.members, lat.flags or ("hyperinvariant",) * len(lat.members)))
            for lat in lattices
        ]
    members, _, lat = _assemble([lat.members for lat in lattices], factor_flags, embed, field, n)
    return lat
