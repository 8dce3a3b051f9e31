import itertools
import random

import pytest

from invlat.centralizer import centralizer_basis
from invlat.decomposition import KStructure, analyze_operator
from invlat.errors import ClosureError, InvariantError
from invlat.fields import QQ, gf_build
from invlat.kernels import row_kernel
from invlat.lattices import (
    characteristic_dispatch,
    chinv_lattice,
    direct_sum_lattices,
    hinv_lattice,
    inv_lattice,
    shoda_witness,
)
from invlat.matrix import Matrix, block_diag, companion, inverse, rank
from invlat.oracle import random_instance
from invlat.poly import parse_poly
from invlat.subspace import Lattice, Subspace, build_lattice, full_space, span, zero_subspace

from fixtures import (
    GOLD_4_A,
    GOLD_8_A,
    GOLD_RAT_A,
    e_rows,
    F2,
    F3,
    pairwise_lattice,
    per_member_centralizer_check,
    zassenhaus_fhl_walk,
)


def members_of(report):
    return set(report.members)


def test_inv_lattice_rational_golden():
    rep = inv_lattice(GOLD_RAT_A)
    assert rep.finite is True and rep.complete
    assert members_of(rep) == {
        zero_subspace(QQ, 4),
        span(e_rows(4, [3, 4], QQ), QQ, 4),
        full_space(QQ, 4),
    }


def test_hinv_lattice_rational_golden():
    rep = hinv_lattice(GOLD_RAT_A)
    assert members_of(rep) == {
        zero_subspace(QQ, 4),
        span(e_rows(4, [3, 4], QQ), QQ, 4),
        full_space(QQ, 4),
    }
    # by definition, against Z(A) solved as a 16-unknown system
    Z = centralizer_basis(GOLD_RAT_A)
    assert all(W.is_invariant_under(B) for W in rep.members for B in Z.elements)


def test_inv_lattice_single_jordan_block_chain():
    J3 = Matrix(F2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    rep = inv_lattice(J3)
    assert rep.finite is True
    assert len(rep.members) == 4  # chain 0 < ker N < ker N^2 < V
    dims = sorted(w.dim for w in rep.members)
    assert dims == [0, 1, 2, 3]


def test_inv_lattice_infinite_case_two_blocks_over_extension():
    # A = diag(C, C) with C the rotation companion of x^2+1 over Q:
    # m_A = x^2+1 (r = 1), K = Q[t]/(x^2+1), N_K = 0 on K^2
    C = companion(parse_poly("x^2+1", QQ))
    A = block_diag(QQ, [C, C])
    rep = inv_lattice(A)
    assert rep.finite is False and not rep.complete
    assert members_of(rep) == {zero_subspace(QQ, 4), full_space(QQ, 4)}
    # two visibly distinct invariant lines witness the infinite family
    w1 = span([(1, 0, 0, 0), (0, 1, 0, 0)], QQ, 4)
    w2 = span([(0, 0, 1, 0), (0, 0, 0, 1)], QQ, 4)
    assert w1.is_invariant_under(A) and w2.is_invariant_under(A)


HINV_8 = None


def expected_hinv_8():
    n = 8
    return {
        zero_subspace(F2, n),
        span(e_rows(n, [5, 6], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6], F2), F2, n),
        span(e_rows(n, [5, 6, 7, 8], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6, 7, 8], F2), F2, n),
        full_space(F2, n),
    }


def expected_hinv_4():
    n = 4
    return {
        zero_subspace(F2, n),
        span(e_rows(n, [3], F2), F2, n),
        span(e_rows(n, [2, 3], F2), F2, n),
        span(e_rows(n, [3, 4], F2), F2, n),
        span(e_rows(n, [2, 3, 4], F2), F2, n),
        full_space(F2, n),
    }


def test_hinv_lattice_8x8_golden_exact():
    rep = hinv_lattice(GOLD_8_A)
    assert members_of(rep) == expected_hinv_8()


def test_hinv_lattice_4x4_golden_exact():
    rep = hinv_lattice(GOLD_4_A)
    assert members_of(rep) == expected_hinv_4()


def test_hinv_lattice_zero_matrix():
    rep = hinv_lattice(Matrix.zeros(F2, 3))
    assert members_of(rep) == {zero_subspace(F2, 3), full_space(F2, 3)}


def test_shoda_witness_cases():
    w = shoda_witness((3, 1))
    assert (w.big, w.small) == (3, 1)
    assert shoda_witness((3, 3, 1, 1)) is None
    assert shoda_witness((2, 1)) is None  # gap must be >= 2
    assert shoda_witness((4, 1)) is not None
    assert shoda_witness((5,)) is None
    w2 = shoda_witness((5, 3, 1))
    assert (w2.big, w2.small) == (5, 3)


def test_characteristic_dispatch():
    d = characteristic_dispatch(F2, (3, 1))
    assert d["possible"]
    assert not characteristic_dispatch(F3, (3, 1))["possible"]
    assert not characteristic_dispatch(gf_build(2, 2), (3, 1))["possible"]
    assert not characteristic_dispatch(F2, (3, 3))["possible"]


def test_chinv_lattice_8x8_equals_hinv():
    rep = chinv_lattice(GOLD_8_A)
    assert members_of(rep) == expected_hinv_8()
    assert all(f == "hyperinvariant" for f in rep.lattice.flags)


def test_chinv_lattice_4x4_has_exactly_one_extra():
    rep = chinv_lattice(GOLD_4_A)
    extra = members_of(rep) - expected_hinv_4()
    assert extra == {span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)}
    flagged = {
        rep.lattice.members[i]
        for i, f in enumerate(rep.lattice.flags)
        if f == "characteristic-only"
    }
    assert flagged == extra


def test_chinv_lattice_gf3_nilpotent_equals_hinv():
    N3 = block_diag(
        F3,
        [
            Matrix(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
            Matrix(F3, [[0]]),
        ],
    )
    rep = chinv_lattice(N3)
    hrep = hinv_lattice(N3)
    assert members_of(rep) == members_of(hrep)
    assert any("more than two elements" in p for p in rep.provenance)


def test_direct_sum_lattices_product_counts():
    # invariant lattices: J2 gives a 3-chain, the 1x1 identity gives {0, V}
    J2 = Matrix(F2, [[0, 0], [1, 0]])
    one = Matrix(F2, [[1]])
    lat1 = inv_lattice(J2).lattice
    lat2 = inv_lattice(one).lattice
    prod = direct_sum_lattices([lat1, lat2], matrices=[J2, one])
    assert len(prod) == 6
    # and it matches the engine on the block-diagonal matrix
    rep = inv_lattice(block_diag(F2, [J2, one]))
    assert set(prod.members) == members_of(rep)


def test_direct_sum_lattices_single_component_identity():
    lat = inv_lattice(GOLD_4_A).lattice
    again = direct_sum_lattices([lat])
    assert set(again.members) == set(lat.members)


def test_direct_sum_rejects_non_coprime():
    J2 = Matrix(F2, [[0, 0], [1, 0]])
    lat = inv_lattice(J2).lattice
    with pytest.raises(ValueError, match="non-coprime"):
        direct_sum_lattices([lat, lat], matrices=[J2, J2])


def test_multi_component_chinv_direct_sum():
    # 4x4 golden block (factor (x+1)^3, Shoda witness) plus a 1x1 zero
    # block (factor x): characteristic members multiply out
    A = block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])])
    rep = chinv_lattice(A)
    assert rep.complete
    assert len(rep.members) == 14  # 7 characteristic members x 2
    flags = dict(zip(rep.lattice.members, rep.lattice.flags))
    extra = [s for s, f in flags.items() if f == "characteristic-only"]
    assert len(extra) == 2


def test_inv_lattice_members_all_invariant_by_construction():
    rep = inv_lattice(GOLD_8_A)
    assert rep.finite is True
    # spot totals: every member is invariant (engine asserts too)
    assert all(w.is_invariant_under(GOLD_8_A) for w in rep.members)


def test_chinv_incomplete_notes_pinned():
    # GOLD_4 is a GF(2) witness component, and GF(2)^4 has 67 subspaces;
    # the notes are those of the per-candidate unit scan this engine
    # replaced, byte for byte
    witness = (
        "component x+1: K = GF(2) with block sizes (3,1) each of multiplicity one and "
        "gap >= 2: characteristic non-hyperinvariant subspaces exist; found by "
        "exhaustive invariant-subspace filtering"
    )
    cases = (
        ({"cap_subspaces": 66}, "subspace count 67 exceeds cap 66"),
        ({"cap_subspaces": 5}, "subspace count 67 exceeds cap 5"),
    )
    for caps, reason in cases:
        rep = chinv_lattice(GOLD_4_A, **caps)
        assert rep.complete is False and rep.finite is True, caps
        assert rep.notes == (
            f"component x+1: characteristic-only portion not computed at this scale "
            f"({reason}); hyperinvariant members reported",
        ), caps
        assert rep.provenance == (witness,)
        assert members_of(rep) == expected_hinv_4()
        assert rep.member_flags == ("hyperinvariant",) * 6
    assert chinv_lattice(GOLD_4_A, cap_subspaces=67).complete


def test_chinv_without_certified_units_is_incomplete(monkeypatch):
    # every seeded draw singular: the closed-form span is not certified, so
    # only the hyperinvariant members are reported, never a guessed list
    import invlat.lattices

    monkeypatch.setattr(invlat.lattices, "_unit_draws", lambda L, K, m, seed: iter(()))
    rep = chinv_lattice(GOLD_4_A)
    assert rep.complete is False and rep.finite is True
    assert rep.notes == (
        "component x+1: characteristic-only portion not computed at this scale "
        "(undecided at this scale: 2000 seeded draws found units spanning 0 of the 5 "
        "dimensions of the unit span); hyperinvariant members reported",
    )
    assert members_of(rep) == expected_hinv_4()
    assert rep.member_flags == ("hyperinvariant",) * 6


def test_chinv_scans_units_once_per_witness_component(monkeypatch):
    import invlat.centralizer

    calls = []
    original = invlat.centralizer.unit_elements

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(invlat.centralizer, "unit_elements", counted)
    # two witness components, (3,1) at x+1 and (3,1) at x: their unit spans
    # are read off the kernel chains, so no unit group is walked
    A = block_diag(F2, [GOLD_4_A, Matrix(F2, [[0, 0, 0, 0], [1, 0, 0, 0],
                                               [0, 1, 0, 0], [0, 0, 0, 0]])])
    rep = chinv_lattice(A)
    assert rep.complete
    assert len(rep.members) == 49  # 7 characteristic members per component
    assert calls == []
    chinv_lattice(GOLD_8_A)  # K = GF(4): no unit scan at all
    assert calls == []


def q_three_components():
    """Companions of x^2+1 and x^3-2 around a Jordan block of (x-1)^2 over
    Q, with the factorization hint the degree-5 root-free part needs."""
    A = block_diag(QQ, [companion(parse_poly("x^2+1", QQ)), Matrix(QQ, [[1, 0], [1, 1]]),
                        companion(parse_poly("x^3-2", QQ))])
    return A, [(parse_poly(p, QQ), k) for p, k in (("x^2+1", 1), ("x-1", 2), ("x^3-2", 1))]


def test_assembled_lattices_match_a_full_build():
    # the product assembled per component has the members, covers and
    # flags that building the combined member list from scratch gives
    q3, hint = q_three_components()
    cases = (
        ("Q", q3, hint),
        ("GOLD_4 + [0]", block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])]), None),
        ("GF(3)", random_instance(F3, 4, "general", 1).matrix, None),
        ("GF(4)", random_instance(gf_build(2, 2), 4, "general", 13).matrix, None),
    )
    for name, A, hint in cases:
        ana = analyze_operator(A, hint=hint)
        assert len(ana.components) >= 2, name
        for fn in (inv_lattice, hinv_lattice, chinv_lattice):
            rep = fn(A, analysis=ana)
            flags = None
            if rep.member_flags is not None:
                flags = dict(zip(rep.members, rep.member_flags))
            assert rep.lattice == build_lattice(rep.members, flags=flags), (name, fn.__name__)
    rep = chinv_lattice(block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])]))
    assert rep.lattice.flags.count("characteristic-only") == 2
    prod = direct_sum_lattices(
        [chinv_lattice(GOLD_4_A).lattice, chinv_lattice(Matrix(F2, [[0]])).lattice]
    )
    assert prod == rep.lattice
    assert prod == build_lattice(prod.members, flags=dict(zip(prod.members, prod.flags)))


def test_build_lattice_matches_the_pairwise_reference():
    # the containment-order certificate against a sum and an intersection
    # per pair on every engine lattice of the fixtures, and, on the smaller
    # ones, on each member list with one inner member dropped: both refuse
    # the same lists, and accept the others with the same covers and flags
    q3, hint = q_three_components()
    F4 = gf_build(2, 2)
    cases = [
        ("GOLD_4", GOLD_4_A, None),
        ("GOLD_8", GOLD_8_A, None),
        ("GOLD_RAT", GOLD_RAT_A, None),
        ("Q, three components", q3, hint),
        ("GF(2) (3,2)", random_instance(F2, 5, "nilpotent-partition", 1, partition=(3, 2)).matrix, None),
        ("GF(2) (2,2,1)", random_instance(F2, 5, "nilpotent-partition", 2, partition=(2, 2, 1)).matrix, None),
        ("GF(2)", random_instance(F2, 5, "general", 3).matrix, None),
        ("GF(3)", random_instance(F3, 4, "general", 1).matrix, None),
        ("GF(4)", random_instance(F4, 4, "general", 13).matrix, None),
    ]

    def outcome(build, members, flags):
        try:
            return build(members, flags=flags)
        except ClosureError:
            return None

    checked = 0
    for name, A, hint in cases:
        ana = analyze_operator(A, hint=hint)
        for fn in (inv_lattice, hinv_lattice, chinv_lattice):
            rep = fn(A, analysis=ana)
            flags = None
            if rep.member_flags is not None:
                flags = dict(zip(rep.members, rep.member_flags))
            lat = build_lattice(rep.members, flags=flags)
            assert lat == pairwise_lattice(rep.members, flags=flags), (name, fn.__name__)
            checked += 1
            if len(lat) > 12:
                continue
            for k in range(1, len(lat) - 1):
                dropped = lat.members[:k] + lat.members[k + 1 :]
                assert outcome(build_lattice, dropped, flags) == outcome(
                    pairwise_lattice, dropped, flags), (name, fn.__name__, k)
    assert checked == 3 * len(cases)


def test_direct_sum_rechecks_each_factor():
    # a factor whose members miss <e1> + <e2> is refused, whatever its covers say
    lines = [span(e_rows(3, [i], F2), F2, 3) for i in (1, 2)]
    bad = Lattice((zero_subspace(F2, 3), *lines, full_space(F2, 3)), ((0, 1), (0, 2)))
    good = inv_lattice(Matrix(F2, [[1]])).lattice
    with pytest.raises(ClosureError, match="not closed under sum"):
        direct_sum_lattices([good, bad])


def test_hinv_solves_no_centralizer_system(monkeypatch):
    # hinv, and chinv's unit span, read Z_K(N_K) off the Jordan chains: no
    # n^2-unknown solve of AX = XA runs, on any component
    import sys

    from invlat import centralizer

    def refused(M):
        raise AssertionError("centralizer_basis was called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("invlat") and vars(mod).get("centralizer_basis") is not None:
            monkeypatch.setattr(mod, "centralizer_basis", refused)
    assert centralizer.centralizer_basis is refused
    A = block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])])
    assert len(hinv_lattice(A).members) == 12  # 6 hyperinvariant members x 2
    chinv = chinv_lattice(A)
    assert chinv.complete and chinv.member_flags.count("characteristic-only") == 2


def test_inv_combines_finiteness_and_completeness_per_component():
    # GOLD_4's component is over the cap and not cyclic, [0]'s is enumerated:
    # the whole lattice is finite but not materialized
    rep = inv_lattice(block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])]), cap_subspaces=5)
    assert rep.finite is None and rep.complete is False
    assert rep.notes == (
        "component x+1: finite lattice not materialized (subspace count exceeds cap 5); "
        "kernel chain reported",
    )
    assert len(rep.members) == 4 * 2  # the kernel chain 0 < ker N < ker N^2 < V, times 2
    # over Q, one infinite component makes the whole lattice infinite, though
    # the Jordan block of x-1 is cyclic
    rep = inv_lattice(block_diag(QQ, [Matrix.zeros(QQ, 2), Matrix(QQ, [[1, 0], [1, 1]])]))
    assert rep.finite is False and rep.complete is False
    assert (
        "component x-1: nilpotent part is cyclic over K, so its invariant subspaces form "
        "the kernel chain"
    ) in rep.provenance
    assert len(rep.notes) == 1 and "infinitely many" in rep.notes[0]


# ----------------------------------------------------------------------
# The Fillmore-Herrero-Longstaff tuple walk against the sum/intersection
# closure of the kernel and image chains it replaced.


def _closure(subspaces):
    """Closure of a finite set of subspaces under sum and intersection: the
    frontier loop the engine ran before the tuple walk, kept as the reference."""
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


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for t in range(min(n, largest), 0, -1):
        for rest in _partitions(n - t, t):
            yield (t,) + rest


def _conjugated_primary(field, block, sizes, rng):
    """Jordan-type blocks C(p^t) of ``block`` = C(p) for t in ``sizes``
    (superdiagonal identities), conjugated by a seeded invertible matrix."""
    s = block.nrows
    n = s * sum(sizes)
    rows = [[field.zero()] * n for _ in range(n)]
    at = 0
    for t in sizes:
        for b in range(t):
            for i in range(s):
                for j in range(s):
                    rows[at + b * s + i][at + b * s + j] = block.rows[i][j]
                if b + 1 < t:
                    rows[at + b * s + i][at + (b + 1) * s + i] = field.one()
        at += s * t
    J = Matrix(field, rows)
    while True:
        P = Matrix(field, [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
        if rank(P) == n:
            return P @ J @ inverse(P)


def _walk_against_closure(field, block, sizes, rng):
    A = _conjugated_primary(field, block, sizes, rng)
    (ca,) = analyze_operator(A).components
    ks = ca.kstruct
    assert tuple(sorted(ks.segre)) == tuple(sorted(sizes))
    closed = set(_closure(ks.kernels + ks.images))
    walk = ks.hyperinvariant
    assert len(walk) == len(closed) and set(walk) == closed, sizes


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=repr)
def test_fhl_walk_matches_the_closure_on_every_small_partition(field):
    rng = random.Random(101)
    zero = Matrix.zeros(field, 1)
    for n in range(1, 9):
        for sizes in _partitions(n):
            _walk_against_closure(field, zero, sizes, rng)


def test_fhl_walk_matches_the_closure_over_an_extension():
    # K = F[S] of degree 2: the walk runs on the S-closed chains of N_K
    rng = random.Random(103)
    for field, p in ((QQ, "x^2+1"), (F2, "x^2+x+1"), (F3, "x^2+1")):
        block = companion(parse_poly(p, field))
        for sizes in ((1,), (2, 1), (3, 1), (2, 1, 1), (3, 2, 1)):
            _walk_against_closure(field, block, sizes, rng)


def test_fhl_walk_is_formed_once_per_analysis():
    ana = analyze_operator(GOLD_4_A)
    ks = ana.components[0].kstruct
    assert "hyperinvariant" not in vars(ks)  # the analysis (so shoda) does not walk
    hinv = hinv_lattice(GOLD_4_A, analysis=ana)
    walked = vars(ks)["hyperinvariant"]
    chinv = chinv_lattice(GOLD_4_A, analysis=ana)
    assert vars(ks)["hyperinvariant"] is walked
    assert set(walked) == members_of(hinv)
    assert chinv.member_flags.count("hyperinvariant") == len(hinv.members)


def test_fhl_walk_refuses_two_tuples_with_one_subspace(monkeypatch):
    # with ker N corrupted to 0, W(0,0) = W(0,1) = 0 for the sizes (1, 2)
    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (2, 1), random.Random(7))
    ks = analyze_operator(A).components[0].kstruct
    kernels = list(ks.kernels)
    kernels[1] = kernels[0]
    monkeypatch.setitem(vars(ks), "kernels", tuple(kernels))
    with pytest.raises(InvariantError, match="ker N_K\\^1 is not the span of its Jordan chain"):
        ks.hyperinvariant


def test_fhl_walk_refuses_two_tuples_with_one_index_set(monkeypatch):
    # image index sets that ignore b make W(r) = ker N^(max r): for the
    # sizes (1, 2) the tuples (0, 1) and (1, 1) both give ker N
    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (2, 1), random.Random(7))
    ks = analyze_operator(A).components[0].kstruct
    ks.chain_rows  # certified on the true index sets
    image_index = KStructure.image_index
    monkeypatch.setattr(KStructure, "image_index", lambda self, b: image_index(self, 0))
    with pytest.raises(InvariantError, match="two Fillmore-Herrero-Longstaff tuples give one"):
        ks.hyperinvariant


# ----------------------------------------------------------------------
# The closed forms read off the Jordan chain basis against the references
# they replaced: Z(A_i) solved as an n_i^2-unknown system with every member
# checked against it, and the FHL walk on Zassenhaus intersections.


def _conjugated(J, rng):
    """J conjugated by a seeded invertible matrix with entries over all of F."""
    field, n = J.field, J.nrows
    draw = ((lambda: field.element_from_index(rng.randrange(field.order))) if field.is_finite
            else (lambda: rng.randrange(-2, 3)))
    while True:
        P = Matrix(field, [[draw() for _ in range(n)] for _ in range(n)])
        if rank(P) == n:
            return P @ J @ inverse(P)


def _closed_forms_match_the_references(A):
    for ca in analyze_operator(A).components:
        ks = ca.kstruct
        Z = per_member_centralizer_check(ca)  # the members pass the old check
        assert ks.hyperinvariant == zassenhaus_fhl_walk(ks), ks.segre
        # Z_F(A_i) = Z_K(N_K), of F-dimension s times its K-dimension
        assert Z.dim == ks.commutant.dim == ks.s * sum(min(a, b) for a in ks.segre
                                                       for b in ks.segre), ks.segre
        F, n = Z.matrix.field, Z.matrix.nrows
        flat = lambda Xs: span([[e for row in X.rows for e in row] for X in Xs], F, n * n)
        assert flat(ks.commutant.elements) == flat(Z.elements), ks.segre
        # the kernels, images and members are K-subspaces: S maps them into themselves
        assert all(W.is_invariant_under(ks.S)
                   for W in (*ks.kernels, *ks.images, *ks.hyperinvariant)), ks.segre


@pytest.mark.parametrize("field", [F2, F3, gf_build(2, 2), QQ], ids=repr)
def test_closed_forms_match_the_references_on_every_small_partition(field):
    rng = random.Random(109)
    for n in range(1, 7):
        for sizes in _partitions(n):
            _closed_forms_match_the_references(
                _conjugated(_conjugated_primary(field, Matrix.zeros(field, 1), sizes, rng), rng))


def test_closed_forms_match_the_references_over_an_extension():
    # s = 2: K = GF(4) from x^2+x+1 over GF(2), K = Q(sqrt 2) from x^2-2
    rng = random.Random(113)
    for field, p in ((F2, "x^2+x+1"), (QQ, "x^2-2")):
        block = companion(parse_poly(p, field))
        for sizes in ((1,), (2,), (1, 1), (2, 1), (3, 1), (2, 1, 1), (2, 2), (3, 2)):
            _closed_forms_match_the_references(_conjugated_primary(field, block, sizes, rng))


def _mutated_commutant(monkeypatch, mutate):
    """The commutant of a conjugated (3, 2, 1) nilpotent over GF(3), with
    ``mutate`` applied to the closed-form elements before they are certified."""
    import invlat.decomposition

    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (3, 2, 1), random.Random(127))
    ks = analyze_operator(A).components[0].kstruct
    real = invlat.decomposition._chain_commutant
    monkeypatch.setattr(invlat.decomposition, "_chain_commutant",
                        lambda S, rows: mutate(ks, real(S, rows)))
    return lambda: ks.commutant


def _non_commuting(ks, X):
    """X plus the first unit matrix E_ij that does not commute with A_i = S + N."""
    F, n, Ai = ks.N.field, ks.N.nrows, ks.S + ks.N
    for i in range(n):
        for j in range(n):
            E = Matrix(F, [[int(r == i and c == j) for c in range(n)] for r in range(n)])
            if E @ Ai != Ai @ E:
                return X + E
    raise AssertionError("every unit matrix commutes with A_i")


@pytest.mark.parametrize("mutate, match", [
    (lambda ks, Xs: Xs[:-1], "13 centralizer elements, but dim Z = 14"),
    (lambda ks, Xs: Xs[:-1] + [_non_commuting(ks, Xs[-1])], "does not commute"),
    (lambda ks, Xs: Xs[:-1] + [Xs[0]], "dependent"),
], ids=["dropped", "non-commuting", "dependent"])
def test_commutant_certificate_refuses_a_mutated_basis(monkeypatch, mutate, match):
    commutant = _mutated_commutant(monkeypatch, mutate)
    with pytest.raises(InvariantError, match=match):
        commutant()


@pytest.mark.parametrize("A", [GOLD_8_A, GOLD_RAT_A], ids=["GOLD_8", "GOLD_RAT"])
def test_commutant_certificate_refuses_a_corrupted_element_over_an_extension(monkeypatch, A):
    # s = 2: the second element, S X for the first X, made not to commute with A_i
    import invlat.decomposition

    ks = analyze_operator(A).components[0].kstruct
    assert ks.s == 2
    real = invlat.decomposition._chain_commutant
    monkeypatch.setattr(invlat.decomposition, "_chain_commutant", lambda S, rows: [
        _non_commuting(ks, X) if t == 1 else X for t, X in enumerate(real(S, rows))])
    with pytest.raises(InvariantError, match="does not commute"):
        ks.commutant


def test_corrupted_chains_are_refused(monkeypatch):
    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (3, 2, 1), random.Random(127))
    ana = analyze_operator(A)
    ks = ana.components[0].kstruct
    kern = row_kernel(F3)
    plus = lambda v, w: kern.submul(v, kern.scalar(-F3.one()), w)  # v + w, reduced mod 3
    (g,), (Ng,), (NNg,) = ks.chains[0]  # s = 1: each vector is its own S-closure
    # N g + g is not in ker N^2: the chain spans no longer match the kernels
    monkeypatch.setitem(vars(ks), "chains", (((g,), (plus(Ng, g),), (NNg,)), *ks.chains[1:]))
    with pytest.raises(InvariantError, match="ker N_K\\^2 is not the span"):
        ks.commutant
    # 2 N g keeps every span but breaks N g -> N^2 g: the maps built on it do
    # not commute with A_i
    monkeypatch.setitem(vars(ks), "chains", (((g,), (plus(Ng, Ng),), (NNg,)), *ks.chains[1:]))
    with pytest.raises(InvariantError, match="does not commute"):
        ks.commutant
    with pytest.raises(InvariantError, match="does not commute"):
        hinv_lattice(A, analysis=ana)


def test_generator_certificate_refuses_a_corrupted_kernel(monkeypatch):
    # with the chain check passed, a kernel that Z_K(N_K) moves is refused:
    # span(g) for g the top of the longest chain (N g is outside it)
    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (3, 2, 1), random.Random(127))
    ks = analyze_operator(A).components[0].kstruct
    ks.commutant  # certified on the true chains
    line = ks.chain_span({(0, 0)})
    monkeypatch.setitem(vars(ks), "kernels", (ks.kernels[0], line, *ks.kernels[2:]))
    with pytest.raises(InvariantError, match="not invariant under Z_K"):
        ks.hyperinvariant


def test_hinv_checks_its_members_against_A(monkeypatch):
    # a fault in forming the members off the chain basis (here the coordinates
    # reversed, which keeps the lattice closed) is refused against A itself
    A = _conjugated_primary(F3, Matrix.zeros(F3, 1), (3, 2, 1), random.Random(127))
    chain_span = KStructure.chain_span
    monkeypatch.setattr(KStructure, "chain_span", lambda self, index: span(
        [v[::-1] for v in chain_span(self, index).basis], F3, A.nrows))
    with pytest.raises(InvariantError, match="non-invariant subspace"):
        hinv_lattice(A)


def test_chinv_checks_its_members_against_A(monkeypatch):
    # the lattice driver checks every kind of report against A: an inner
    # hyperinvariant member that N moves, with its Lattice rebuilt (a chain
    # stays closed), is refused by chinv as by hinv, not reported
    ana = analyze_operator(GOLD_RAT_A)
    ks = ana.components[0].kstruct
    zero, inner, full = ks.hyperinvariant
    planes = (span(e_rows(4, pair, QQ), QQ, 4) for pair in itertools.combinations(range(1, 5), 2))
    moved = next(W for W in planes if not W.is_invariant_under(ks.N))
    assert moved.dim == inner.dim
    monkeypatch.setitem(vars(ks), "hyperinvariant", (zero, moved, full))
    monkeypatch.delitem(vars(ks), "hyperinvariant_lattice", raising=False)
    for lattice in (chinv_lattice, hinv_lattice):
        with pytest.raises(InvariantError, match="engine produced a non-invariant subspace"):
            lattice(GOLD_RAT_A, analysis=ana)


def _matrix_sum_draws(L, K, m, seed, draws):
    """Reference for ``_unit_draws``: each draw summed as a Matrix of field
    elements, its rank taken by ``matrix.rank``."""
    rng, accepted = random.Random(seed), []
    for _ in range(draws):
        c = [rng.randrange(2) for _ in L]
        if rank(sum((B for B, x in zip(L, c) if x), Matrix.zeros(K, m))) == m:
            accepted.append(c)
    return accepted


def test_encoded_unit_draws_match_the_matrix_sums(monkeypatch):
    # the first DRAWS of each seed's stream: the element-level reference
    # costs about a millisecond a draw
    import invlat.lattices

    rng = random.Random(107)
    witnesses = [s for n in range(1, 9) for s in _partitions(n) if shoda_witness(s)]
    assert len(witnesses) == 15
    spans = []
    for sizes in witnesses:
        A = _conjugated_primary(F2, Matrix.zeros(F2, 1), sizes, rng)
        ks = analyze_operator(A).components[0].kstruct
        spans.append((sizes, invlat.lattices._unit_span(ks, 0), ks.N.nrows))
    DRAWS = 40
    monkeypatch.setattr(invlat.lattices, "UNIT_DRAWS", DRAWS)
    for sizes, L, m in spans:
        for seed in range(21):
            got = list(invlat.lattices._unit_draws(L, F2, m, seed))
            assert got == _matrix_sum_draws(L, F2, m, seed, DRAWS), (sizes, seed)
            assert 0 < len(got) < DRAWS, (sizes, seed)  # both outcomes are tested


def test_component_lattice_is_built_once_per_analysis(monkeypatch):
    # hinv and chinv share each non-witness component's Lattice, and inv shares
    # it where N_K is cyclic (the kernel chain, or a walk that finds no more);
    # a witness component's characteristic lattice and a larger walk are their own
    import invlat.decomposition

    built = []

    def counted(members, flags=None):
        built.append(len(members))
        return build_lattice(members, flags)

    monkeypatch.setattr(invlat.lattices, "build_lattice", counted)
    monkeypatch.setattr(invlat.decomposition, "build_lattice", counted)
    x2 = companion(parse_poly("x^2+1", QQ))
    for A, witnesses, inv_own in (
        (block_diag(QQ, [GOLD_RAT_A, x2, Matrix(QQ, [[2]])]), 0, 1),  # blocks (2,1) over Q(i)
        (block_diag(QQ, [GOLD_RAT_A, Matrix(QQ, [[2]])]), 0, 0),  # every N_K cyclic
        (block_diag(F3, [companion(parse_poly("x^2", F3)), Matrix(F3, [[1]])]), 0, 0),
        (block_diag(F2, [GOLD_4_A, GOLD_8_A]), 1, 0),  # inv over the detail cap builds none
    ):
        ana = analyze_operator(A)
        built.clear()
        hinv = hinv_lattice(A, analysis=ana)
        chinv = chinv_lattice(A, analysis=ana)
        inv = inv_lattice(A, analysis=ana)
        assert len(built) == len(ana.components) + witnesses + inv_own
        assert hinv.lattice is not None and chinv.lattice is not None
        if not witnesses:
            assert chinv.lattice.members == hinv.lattice.members
            assert chinv.lattice.covers == hinv.lattice.covers
            assert inv.lattice is not None
        if all(len(ca.kstruct.segre) == 1 for ca in ana.components):
            assert inv.lattice.members == hinv.lattice.members
            assert inv.lattice.covers == hinv.lattice.covers


def test_reports_sharing_a_product_match_fresh_analyses(monkeypatch):
    # one analysis, the three reports in every order: each equals the report of
    # a fresh analysis (members, flags, covers, provenance, notes, completeness),
    # so chinv's flags never reach hinv through the product they share; a product
    # is assembled, and its members checked against A, once per distinct tuple
    # of component members
    import invlat.lattices

    assemble, is_invariant_under = invlat.lattices._assemble, Subspace.is_invariant_under
    assembled, checked = [], []

    def counted_assemble(*args, **kwargs):
        assembled.append(assemble(*args, **kwargs))
        return assembled[-1]

    def counted_check(W, B):
        if B is A:
            checked.append(W)
        return is_invariant_under(W, B)

    N3 = block_diag(F3, [Matrix(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]), Matrix(F3, [[0]])])
    q3, q3_hint = q_three_components()
    kinds = (inv_lattice, hinv_lattice, chinv_lattice)
    for name, A, hint, products in (
        ("GOLD_4", GOLD_4_A, None, 3),  # inv's walk, hinv, chinv with a witness
        ("GOLD_8", GOLD_8_A, None, 2),  # K = GF(4): chinv is hinv's
        ("GOLD_RAT", GOLD_RAT_A, None, 1),  # cyclic: inv is hinv's too
        ("GF(3) (3,1)", N3, None, 2),
        ("Q, three components", q3, q3_hint, 1),
    ):
        fresh = {fn: fn(A, hint=hint) for fn in kinds}
        for order in itertools.permutations(kinds):
            ana = analyze_operator(A, hint=hint)
            assembled.clear()
            checked.clear()
            with monkeypatch.context() as m:
                m.setattr(invlat.lattices, "_assemble", counted_assemble)
                m.setattr(Subspace, "is_invariant_under", counted_check)
                reports = {fn: fn(A, analysis=ana) for fn in order}
            for fn in kinds:
                assert reports[fn] == fresh[fn], (name, order, fn.__name__)
            assert len(assembled) == products, (name, order)
            assert sorted(checked, key=Subspace.sort_key) == sorted(
                (W for _, members, _, _ in assembled for W in members), key=Subspace.sort_key)
            assert set(checked) == {W for rep in reports.values() for W in rep.members}


@pytest.mark.parametrize("F, t", [(F2, 6), (F3, 5), (gf_build(5), 4)],
                         ids=["GF(2) J6", "GF(3) J5", "GF(5) J4"])
def test_inv_on_a_cyclic_component_reports_hinv_without_a_walk(F, t):
    # hinv's kernel chain has as many members as the Segre count gives, so it is
    # the whole invariant lattice, and no invariant subspace is walked
    J = Matrix(F, [[F.one() if i == j + 1 else F.zero() for j in range(t)] for i in range(t)])
    ana = analyze_operator(J)
    ks = ana.components[0].kstruct
    rep = inv_lattice(J, analysis=ana)
    assert rep.members == ks.hyperinvariant and len(rep.members) == t + 1 and rep.complete
    assert "invariant" not in vars(ks)


def test_inv_refuses_counts_off_by_one_on_a_cyclic_component(monkeypatch):
    # with one member too many counted, hinv's chain no longer proves itself
    # complete, and the walk it falls back on is refused by the same counts
    import invlat.decomposition as decomposition
    import invlat.lattices as lattices

    J3 = Matrix(F2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    counts = decomposition.invariant_counts

    def off_by_one(segre, Q):
        members, edges = counts(segre, Q)
        return (members[0], members[1] + 1, *members[2:]), edges

    for module in (decomposition, lattices):
        monkeypatch.setattr(module, "invariant_counts", off_by_one)
    with pytest.raises(InvariantError, match="not as many, by dimension"):
        inv_lattice(J3)


def test_one_analysis_walks_a_witness_component_once(monkeypatch):
    # chinv keeps the members of inv's walk that the unit span L preserves,
    # with no walk or cap probe of its own
    import sys

    from invlat import subspace

    walks = []

    def counted(*args, **kwargs):
        walks.append(args[:2])
        return real(*args, **kwargs)

    real = subspace.enumerate_all_subspaces
    for name, mod in list(sys.modules.items()):
        if name.startswith("invlat.") and getattr(mod, "enumerate_all_subspaces", None) is real:
            monkeypatch.setattr(mod, "enumerate_all_subspaces", counted)
    ana = analyze_operator(GOLD_4_A)
    inv, _, chinv = (fn(GOLD_4_A, analysis=ana)
                     for fn in (inv_lattice, hinv_lattice, chinv_lattice))
    assert walks == [(F2, 4)]
    assert chinv.complete and chinv.member_flags.count("characteristic-only") == 1
    assert set(chinv.members) <= set(inv.members)
