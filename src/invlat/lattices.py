"""Invariant, hyperinvariant, and characteristic subspace lattices.

The computation is per primary component, over the commutative field
K = F[S] attached to that component's semisimple part:

* invariant subspaces of the component operator are exactly the
  K-subspaces invariant under the nilpotent part N_K -- enumerated when K
  is finite and small enough, given by the kernel chain when N_K is
  cyclic, and provably an infinite family otherwise (two or more Jordan
  blocks over an infinite field);
* hyperinvariant subspaces over K are the closure of the kernel and image
  chains of N_K under sum and intersection (each member re-verified
  against the centralizer of the original operator over F);
* characteristic subspaces equal the hyperinvariant ones whenever K has
  more than two elements; for K = GF(2) the block-size witness (two
  distinct block sizes, each exactly once, differing by at least two)
  decides whether extra members can exist, and if so they are the
  invariant subspaces of the component (enumerated as for ``inv``)
  invariant under a basis of the span of its centralizer's units,
  computed once per component.

Components combine by direct sums because the primary factors are
coprime.  Reports carry provenance notes describing the fact used at
each step.
"""

from dataclasses import dataclass
from itertools import product

from .centralizer import DEFAULT_UNIT_CAP, centralizer_basis, is_hyperinvariant, unit_span
from .decomposition import analyze_operator
from .errors import CapExceededError, InvariantError, UndecidedError
from .matrix import Matrix, minimal_polynomial
from .poly import format_poly, poly_gcd
from .subspace import (
    DEFAULT_SUBSPACE_CAP,
    build_lattice,
    enumerate_all_subspaces,
    image_basis,
    kernel_basis,
    span,
    subspace_count,
    zero_subspace,
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


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of a lattice computation.

    ``finite`` is True/False when decided, or None when the lattice is
    finite but too large to materialize under the cap.  ``complete``
    tells whether ``members`` holds every member (when False it is a
    sublattice only).  ``lattice`` carries the Hasse structure and is
    built only when the member count is within the detail cap; the
    member list itself is always present.  ``member_predicate``, when
    set, decides membership of arbitrary subspaces of F^n.
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
    member_predicate: object = None

    def member_set(self):
        return set(self.members)


def _component_meta(ca):
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


def _nk_powers_chain(ks):
    """Kernel and image chains of N_K over K, as K-subspaces."""
    nk = ks.nk
    K = nk.field
    m = nk.nrows
    r = ks.segre[0] if ks.segre else 0
    kers = [zero_subspace(K, m)]
    ims = [span(Matrix.identity(K, m).rows, K, m)]
    P = Matrix.identity(K, m)
    for _ in range(r):
        P = P @ nk
        kers.append(kernel_basis(P))
        ims.append(image_basis(P))
    return kers, ims


def _k_members_to_f(ca, members_k):
    """K-subspaces of the component -> F-subspaces of F^n."""
    return [ca.component.lift_subspace(ca.kstruct.k_subspace_to_f(w)) for w in members_k]


def _closure(subspaces):
    """Closure of a finite set of subspaces under sum and intersection."""
    current = set(subspaces)
    frontier = list(current)
    while frontier:
        new = []
        items = list(current)
        for a in frontier:
            for b in items:
                for c in (a.sum(b), a.intersect(b)):
                    if c not in current:
                        current.add(c)
                        new.append(c)
        frontier = new
    return current


def _combine_components(per_comp_members, per_comp_flags, field, n):
    """All direct sums W_1 + ... + W_r, with combined flags."""
    members = []
    flags = {} if per_comp_flags is not None else None
    for combo in product(*per_comp_members):
        rows = []
        total = 0
        for w in combo:
            rows.extend(w.basis)
            total += w.dim
        s = span(rows, field, n)
        if s.dim != total:
            raise InvariantError("component subspaces are not independent")
        members.append(s)
        if flags is not None:
            labels = [fl[w] for fl, w in zip(per_comp_flags, combo)]
            flags[s] = (
                "characteristic-only" if "characteristic-only" in labels else "hyperinvariant"
            )
    return members, flags


def _finalize(members, flags, detail_cap, notes):
    """Sorted member tuple, aligned flags, and (when small) a full Lattice."""
    members = sorted(set(members), key=lambda s: s.sort_key())
    flag_tuple = tuple(flags[s] for s in members) if flags is not None else None
    lattice = None
    if len(members) <= detail_cap:
        lattice = build_lattice(members, flags=flags)
    else:
        notes.append(
            f"Hasse structure and closure re-check skipped for {len(members)} members "
            f"(detail cap {detail_cap}); member list is complete"
        )
    return tuple(members), flag_tuple, lattice


def inv_lattice(
    A,
    *,
    hint=None,
    seed=0,
    cap_subspaces=DEFAULT_SUBSPACE_CAP,
    detail_cap=DETAIL_CAP,
    analysis=None,
):
    """Lattice of A-invariant subspaces of F^n."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)
    provenance = []
    notes = []
    if len(ana.components) > 1:
        provenance.append(
            "coprime primary factors: the lattice is the direct sum of the component lattices"
        )
    per_comp = []
    finite_flags = []
    for ca in ana.components:
        ks = ca.kstruct
        pname = format_poly(ca.component.factor)
        provenance.append(
            f"component {pname}: invariant subspaces are the "
            "K-subspaces invariant under the nilpotent part, K the field generated by the "
            "semisimple part"
        )
        if ks.field_k.is_finite and subspace_count(ks.k_dim, ks.field_k.order) <= cap_subspaces:
            members_k = enumerate_all_subspaces(ks.nk.field, ks.nk.nrows, cap_subspaces, [ks.nk])
            per_comp.append(_k_members_to_f(ca, members_k))
            finite_flags.append(True)
            continue
        # the kernel chain: all of the lattice when N_K is cyclic, a part otherwise
        if len(ks.segre) <= 1:
            provenance.append(
                f"component {pname}: nilpotent part is cyclic over K, "
                "so its invariant subspaces form the kernel chain"
            )
            finite_flags.append(True)
        elif ks.field_k.is_finite:
            notes.append(
                f"component {pname}: finite lattice not materialized "
                f"(subspace count exceeds cap {cap_subspaces}); kernel chain reported"
            )
            finite_flags.append(None)
        else:
            notes.append(
                f"component {pname}: infinitely many invariant "
                "subspaces (several Jordan blocks over an infinite field); kernel chain reported"
            )
            finite_flags.append(False)
        kers, _ = _nk_powers_chain(ks)
        per_comp.append(_k_members_to_f(ca, list(dict.fromkeys(kers))))
    if all(f is True for f in finite_flags):
        finite, complete = True, True
    elif any(f is False for f in finite_flags):
        finite, complete = False, False
    else:
        finite, complete = None, False
    members, _ = _combine_components(per_comp, None, A.field, A.nrows)

    def predicate(W):
        return W.is_invariant_under(A)

    for s in members:
        if not predicate(s):
            raise InvariantError("engine produced a non-invariant subspace")
    members, _, lat = _finalize(members, None, detail_cap, notes)
    return LatticeReport(
        kind="invariant",
        finite=finite,
        complete=complete,
        members=members,
        lattice=lat,
        components=tuple(_component_meta(ca) for ca in ana.components),
        provenance=tuple(provenance),
        notes=tuple(notes),
        member_predicate=predicate,
    )


def _hinv_k_members(ks):
    """Hyperinvariant K-subspaces of one component, canonically sorted: the
    closure of the kernel and image chains of N_K under sum and intersection."""
    kers, ims = _nk_powers_chain(ks)
    return sorted(_closure(set(kers) | set(ims)), key=lambda s: s.sort_key())


def hinv_lattice(A, *, hint=None, seed=0, detail_cap=DETAIL_CAP, analysis=None):
    """Lattice of subspaces invariant under everything commuting with A."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)
    provenance = []
    notes = []
    if len(ana.components) > 1:
        provenance.append(
            "coprime primary factors: the lattice is the direct sum of the component lattices"
        )
    per_comp = []
    for ca in ana.components:
        provenance.append(
            f"component {format_poly(ca.component.factor)}: hyperinvariant subspaces over F "
            "equal those of the nilpotent part over K; computed as the closure of the kernel "
            "and image chains under sum and intersection"
        )
        per_comp.append(_k_members_to_f(ca, _hinv_k_members(ca.kstruct)))
    members, _ = _combine_components(per_comp, None, A.field, A.nrows)
    Z = centralizer_basis(A)
    for s in members:
        if not is_hyperinvariant(s, A, Z):
            raise InvariantError("engine produced a non-hyperinvariant subspace")
    members, _, lat = _finalize(members, None, detail_cap, notes)
    return LatticeReport(
        kind="hyperinvariant",
        finite=True,
        complete=True,
        members=members,
        lattice=lat,
        components=tuple(_component_meta(ca) for ca in ana.components),
        provenance=tuple(provenance),
        notes=tuple(notes),
    )


def chinv_lattice(
    A,
    *,
    hint=None,
    seed=0,
    cap_subspaces=DEFAULT_SUBSPACE_CAP,
    cap_units=DEFAULT_UNIT_CAP,
    detail_cap=DETAIL_CAP,
    analysis=None,
):
    """Lattice of subspaces invariant under A and all invertible commutants."""
    ana = analysis if analysis is not None else analyze_operator(A, hint=hint, seed=seed)
    provenance = []
    notes = []
    complete = True
    if len(ana.components) > 1:
        provenance.append(
            "coprime primary factors: characteristic lattices combine as direct sums "
            "(commuting automorphisms of the sum are block diagonal)"
        )
    per_comp = []
    per_flags = []
    for ca in ana.components:
        ks = ca.kstruct
        pname = format_poly(ca.component.factor)
        # in component coordinates, then lifted to F^n
        local = [ks.k_subspace_to_f(w) for w in _hinv_k_members(ks)]
        members = local  # the characteristic members, unless a witness adds some
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
            Ai = ca.component.restriction
            try:
                invariant = list(enumerate_all_subspaces(Ai.field, Ai.nrows, cap_subspaces, [Ai]))
                units = unit_span(centralizer_basis(Ai), cap_units)
            except (CapExceededError, UndecidedError) as exc:
                notes.append(
                    f"component {pname}: characteristic-only portion not computed at this "
                    f"scale ({exc}); hyperinvariant members reported"
                )
                complete = False
            else:
                members = [W for W in invariant if all(W.is_invariant_under(B) for B in units)]
        hset = set(local)
        lifted = [ca.component.lift_subspace(w) for w in members]
        per_comp.append(lifted)
        per_flags.append(
            {lw: "hyperinvariant" if w in hset else "characteristic-only"
             for lw, w in zip(lifted, members)}
        )
    members, flags = _combine_components(per_comp, per_flags, A.field, A.nrows)
    members, flag_tuple, lat = _finalize(members, flags, detail_cap, notes)
    return LatticeReport(
        kind="characteristic",
        finite=True,
        complete=complete,
        members=members,
        lattice=lat,
        components=tuple(_component_meta(ca) for ca in ana.components),
        provenance=tuple(provenance),
        notes=tuple(notes),
        member_flags=flag_tuple,
    )


def direct_sum_lattices(lattices, matrices=None, check_closure=True):
    """Product lattice of operators acting on independent blocks.

    Members of the i-th lattice are embedded into the block of
    coordinates belonging to the i-th summand; every member of the result
    is a direct sum of members.  When ``matrices`` is given, the blocks'
    minimal polynomials must be pairwise coprime (the decomposition laws
    need it), otherwise an error is raised.
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
    n = sum(dims)
    zero = field.zero()
    per = []
    per_flags = []
    any_flags = any(lat.flags is not None for lat in lattices)
    offset = 0
    for lat, d in zip(lattices, dims):
        embedded = []
        flags = {}
        for idx, w in enumerate(lat.members):
            rows = [
                (zero,) * offset + tuple(row) + (zero,) * (n - offset - d) for row in w.basis
            ]
            e = span(rows, field, n)
            embedded.append(e)
            if any_flags:
                flags[e] = lat.flags[idx] if lat.flags is not None else "hyperinvariant"
        per.append(embedded)
        per_flags.append(flags)
        offset += d
    members, flags = _combine_components(per, per_flags if any_flags else None, field, n)
    return build_lattice(members, flags=flags, check_closure=check_closure)
