import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from invlat.errors import (
    CapExceededError,
    ClosureError,
    FieldMismatchError,
    InfiniteFieldError,
    InvariantError,
)
from invlat.fields import QQ, ExtensionField, gf_build
from invlat.kernels import TABLE_LIMIT, _ElementRows, row_kernel
from invlat.matrix import Matrix, rref
from invlat.subspace import (
    Subspace,
    build_lattice,
    enumerate_all_subspaces,
    full_space,
    gaussian_binomial,
    image_basis,
    kernel_basis,
    span,
    subspace_count,
    subspace_label,
    to_dot,
    zero_subspace,
)

from fixtures import GOLD_4_N, GOLD_RAT_N, e_rows, F2, F3


def test_span_examples():
    W = span(e_rows(4, [3, 4], F2), F2, 4)
    assert W.dim == 2
    assert W.basis == tuple(e_rows(4, [3, 4], F2))
    assert span([], F2, 4) == zero_subspace(F2, 4)
    v = (1, 2, 3)
    W = span([v, [2, 4, 6]], QQ, 3)
    assert W.dim == 1


def test_span_canonical_for_random_generating_sets():
    rng = random.Random(9)
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
        W = span(rows, F3, 4)
        # random invertible recombinations give the identical object
        a, b = rng.randrange(1, 3), rng.randrange(3)
        mixed = [
            [(a * x) % 3 for x in rows[0]],
            [(x + b * y) % 3 for x, y in zip(rows[1], rows[0])],
        ]
        assert span(mixed, F3, 4) == W
        assert hash(span(mixed, F3, 4)) == hash(W)


def test_sum_and_intersection_examples():
    U = span(e_rows(4, [1, 2], F2), F2, 4)
    W = span(e_rows(4, [2, 3], F2), F2, 4)
    assert U.intersect(W) == span(e_rows(4, [2], F2), F2, 4)
    A = span(e_rows(8, [5, 6], F2), F2, 8)
    B = span(e_rows(8, [7, 8], F2), F2, 8)
    assert A.sum(B) == span(e_rows(8, [5, 6, 7, 8], F2), F2, 8)
    assert U.intersect(U) == U


def test_modular_dimension_law_randomized():
    rng = random.Random(21)
    for field in (F2, F3, QQ):
        for _ in range(20):
            n = 5
            mk = lambda: [
                [rng.randrange(5) if field is QQ else rng.randrange(field.order) for _ in range(n)]
                for _ in range(rng.randrange(4))
            ]
            U = span(mk(), field, n)
            W = span(mk(), field, n)
            assert U.sum(W).dim + U.intersect(W).dim == U.dim + W.dim


def test_contains_and_member():
    small = span(e_rows(4, [3], F2), F2, 4)
    big = span(e_rows(4, [2, 3], F2), F2, 4)
    assert big.contains(small)
    assert not small.contains(big)
    assert not zero_subspace(F2, 4).contains(full_space(F2, 4))
    # <e3> + (e2+e4) contains e2+e4
    W = span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)
    assert W.member((0, 1, 0, 1))
    assert not W.member((0, 1, 0, 0))


def test_kernel_and_image_examples():
    assert kernel_basis(GOLD_RAT_N) == span(e_rows(4, [3, 4], QQ), QQ, 4)
    assert image_basis(GOLD_4_N) == span(e_rows(4, [2, 3], F2), F2, 4)
    assert kernel_basis(Matrix.identity(F2, 3)) == zero_subspace(F2, 3)


def test_enumeration_small_counts():
    subs = list(enumerate_all_subspaces(F2, 2))
    assert len(subs) == 5
    assert set(subs) == {
        zero_subspace(F2, 2),
        span([(1, 0)], F2, 2),
        span([(0, 1)], F2, 2),
        span([(1, 1)], F2, 2),
        full_space(F2, 2),
    }
    assert len(list(enumerate_all_subspaces(F2, 4))) == 67


def test_enumeration_rejects_infinite_field_and_cap():
    with pytest.raises(InfiniteFieldError, match="infinite field"):
        list(enumerate_all_subspaces(QQ, 2))
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_all_subspaces(F2, 4, cap=10))
    assert exc.value.count == 67


def test_enumeration_matches_gaussian_binomials():
    # every (q, n) from the q^n <= 2^12 family whose total count is
    # within the default cap; see the ledger note on the (2,12) literal
    cases = [(F2, n) for n in range(1, 8)] + [(F3, n) for n in range(1, 6)]
    cases += [(gf_build(2, 2), n) for n in range(1, 5)] + [(gf_build(5), n) for n in range(1, 5)]
    for field, n in cases:
        q = field.order
        seen = list(enumerate_all_subspaces(field, n))
        assert len(seen) == len(set(seen)) == subspace_count(n, q)
        by_dim = {}
        for s in seen:
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        for d in range(n + 1):
            assert by_dim.get(d, 0) == gaussian_binomial(n, d, q)


def _reference_walk(field, n, mats):
    """Every subspace as element-tuple RREF shapes, in (dim, pivot set, free
    entries) order, filtered by ``Subspace.is_invariant_under``."""
    elems = tuple(field.elements())
    zero, one = field.zero(), field.one()
    out = [zero_subspace(field, n)]
    for d in range(1, n + 1):
        for piv in combinations(range(n), d):
            slots = [(i, j) for i, p in enumerate(piv) for j in range(p + 1, n) if j not in piv]
            for values in product(elems, repeat=len(slots)):
                rows = [[zero] * n for _ in range(d)]
                for i, p in enumerate(piv):
                    rows[i][p] = one
                for (i, j), x in zip(slots, values):
                    rows[i][j] = x
                out.append(Subspace(field, n, tuple(map(tuple, rows)), piv))
    return [W for W in out if all(W.is_invariant_under(M) for M in mats)]


def test_filtered_enumeration_matches_reference_walk():
    # a random matrix, two random upper triangular ones (they share the
    # flag of span(e1..ek), so pairs keep more than 0 and V) and a nilpotent
    rng = random.Random(5)
    for field in (F2, F3, gf_build(2, 2), gf_build(5), gf_build(3, 2)):
        elems = tuple(field.elements())
        for n in range(1, 5):
            def rand(lower=True):
                return Matrix(field, [[rng.choice(elems) if lower or j >= i else 0
                                       for j in range(n)] for i in range(n)])

            M, U1, U2 = rand(), rand(False), rand(False)
            N = Matrix(field, [[1 if i == j + 1 and j != 1 else 0 for j in range(n)]
                               for i in range(n)])
            for mats in ((), (M,), (U1,), (N,), (U1, U2), (M, N)):
                got = list(enumerate_all_subspaces(field, n, invariant_under=mats))
                assert got == _reference_walk(field, n, mats), (field, n, mats)


def test_enumeration_checks_walked_count(monkeypatch):
    import invlat.subspace

    monkeypatch.setattr(invlat.subspace, "subspace_count", lambda n, q: 68)
    with pytest.raises(InvariantError, match="miscount"):
        list(enumerate_all_subspaces(F2, 4))


def test_filtered_enumeration_rejects_foreign_matrices():
    with pytest.raises(FieldMismatchError):
        list(enumerate_all_subspaces(F2, 3, invariant_under=[Matrix.identity(F3, 3)]))
    with pytest.raises(FieldMismatchError):
        list(enumerate_all_subspaces(F2, 3, invariant_under=[Matrix.identity(F2, 2)]))


def test_build_lattice_chain():
    members = [zero_subspace(QQ, 4), span(e_rows(4, [3, 4], QQ), QQ, 4), full_space(QQ, 4)]
    lat = build_lattice(members)
    assert len(lat) == 3
    assert lat.covers == ((0, 1), (1, 2))
    lat2 = build_lattice([zero_subspace(F2, 2), full_space(F2, 2)])
    assert lat2.covers == ((0, 1),)


def test_build_lattice_detects_closure_violation():
    U = span(e_rows(3, [1], F2), F2, 3)
    W = span(e_rows(3, [2], F2), F2, 3)
    with pytest.raises(ClosureError, match="sum"):
        build_lattice([zero_subspace(F2, 3), U, W, full_space(F2, 3)])


def test_hinv_shape_hasse_edges():
    # six-element lattice of the 8x8 golden instance: <e5,e6> is covered by
    # <e3,e4,e5,e6> and by <e5,e6,e7,e8>
    n = 8
    members = [
        zero_subspace(F2, n),
        span(e_rows(n, [5, 6], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6], F2), F2, n),
        span(e_rows(n, [5, 6, 7, 8], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6, 7, 8], F2), F2, n),
        full_space(F2, n),
    ]
    lat = build_lattice(members)
    i = lat.members.index(span(e_rows(n, [5, 6], F2), F2, n))
    ups = {lat.members[b] for a, b in lat.covers if a == i}
    assert ups == {
        span(e_rows(n, [3, 4, 5, 6], F2), F2, n),
        span(e_rows(n, [5, 6, 7, 8], F2), F2, n),
    }


def test_dot_output_stable_and_acyclic():
    members = [zero_subspace(F2, 2), span([(1, 0)], F2, 2), span([(0, 1)], F2, 2),
               span([(1, 1)], F2, 2), full_space(F2, 2)]
    lat = build_lattice(members)
    d1, d2 = to_dot(lat), to_dot(lat)
    assert d1 == d2
    assert d1.startswith("digraph hasse {")
    # transitive closure of covers equals inclusion
    order = {(i, j) for i, u in enumerate(lat.members) for j, w in enumerate(lat.members)
             if i != j and w.contains(u) and u.dim < w.dim}
    closure = set(lat.covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    assert closure == order


def test_labels():
    assert subspace_label(zero_subspace(F2, 3)) == "0"
    assert subspace_label(full_space(F2, 3)) == "V"
    assert subspace_label(span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)) == "<e2+e4, e3>"


IDENTITY_FIELDS = [
    (F2, 3), (F3, 3), (gf_build(2, 2), 3), (gf_build(3, 2), 3),
    (gf_build(2, 9), 2),  # beyond TABLE_LIMIT: the element-list kernel
    (QQ, 3), (ExtensionField((-2, 0, 1)), 3),  # Q[t]/(t^2 - 2)
]


@pytest.mark.parametrize("field, n", IDENTITY_FIELDS, ids=lambda x: repr(x)[:24])
def test_subspace_identity_on_every_row_kernel(field, n):
    # whichever construction made them, two subspaces are equal, and hash
    # equal, exactly when their decoded bases are
    if field.is_finite:
        entries = list(field.elements())[:4] + [field.zero()] * 3
    else:
        entries = [field.element(v) for v in (0, 0, 0, 1, -1, 2, Fraction(1, 2))]
        if field != QQ:
            entries.append(field.generator())
    rng = random.Random(12)

    def reduced(rows):  # eagerly decoded RREF rows and pivots, for comparison
        R, rk, piv = rref(Matrix(field, rows)) if rows else (None, 0, ())
        return (R.rows[:rk] if rk else ()), piv

    spans = []
    for _ in range(40):
        gens = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randrange(n + 1))]
        W = span(gens, field, n)
        assert (W.basis, W.pivots) == reduced(gens)
        spans.append(W)
    sums = [U.sum(W) for U, W in zip(spans, spans[1:])]
    for S, U, W in zip(sums, spans, spans[1:]):
        assert (S.basis, S.pivots) == reduced(U.basis + W.basis)
    made = spans + sums + [U.intersect(W) for U, W in zip(spans, spans[2:])]
    made += [zero_subspace(field, n), full_space(field, n)]
    made += [Subspace(field, n, W.basis, W.pivots) for W in made]  # from a basis alone
    if field.is_finite:
        made += enumerate_all_subspaces(field, n)
    if field.is_finite and field.order > TABLE_LIMIT:
        assert type(row_kernel(field)) is _ElementRows
    first = {}
    for W in made:
        U = first.setdefault(W.basis, W)
        assert U == W and hash(U) == hash(W)
    assert len(set(made)) == len(first)
    distinct = list(first.values())
    assert all(U != W for U, W in combinations(distinct, 2))
