import pytest

from invlat.errors import CapExceededError, InfiniteFieldError

from invlat.lattices import chinv_lattice, hinv_lattice, inv_lattice
from invlat.matrix import Matrix, block_diag, rank
from invlat.oracle import classify_all, random_instance
from invlat.poly import parse_poly
from invlat.subspace import full_space, span, zero_subspace

from fixtures import GOLD_4_A, GOLD_4_N, e_rows, F2, F3


def test_oracle_4x4_golden_full_classification():
    expected_h = {
        zero_subspace(F2, 4),
        span(e_rows(4, [3], F2), F2, 4),
        span(e_rows(4, [2, 3], F2), F2, 4),
        span(e_rows(4, [3, 4], F2), F2, 4),
        span(e_rows(4, [2, 3, 4], F2), F2, 4),
        full_space(F2, 4),
    }
    # GOLD_4_A = I + GOLD_4_N: one centralizer, so the same three classes
    for A in (GOLD_4_A, GOLD_4_N):
        rep = classify_all(A)
        assert rep.total_subspaces == 67
        assert len(rep.invariant) >= 7
        assert set(rep.hyperinvariant) == expected_h
        assert set(rep.characteristic) == expected_h | {
            span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)  # <e2+e4, e3>
        }
        assert set(rep.characteristic) <= set(rep.invariant)
        assert all(W.is_invariant_under(A) for W in rep.invariant)
        assert rep.findings == ()


def test_oracle_identity_matrix():
    rep = classify_all(Matrix.identity(F2, 3))
    assert rep.total_subspaces == 16
    assert len(rep.invariant) == 16  # everything is invariant
    assert set(rep.hyperinvariant) == {zero_subspace(F2, 3), full_space(F2, 3)}
    assert set(rep.characteristic) == set(rep.hyperinvariant)
    assert rep.findings == ()


def test_oracle_rejects_infinite_field_and_cap():
    from fixtures import GOLD_RAT_A

    with pytest.raises(InfiniteFieldError):
        classify_all(GOLD_RAT_A)
    with pytest.raises(CapExceededError):
        classify_all(GOLD_4_A, cap_subspaces=10)


def test_oracle_nesting_on_gf3():
    N3 = block_diag(
        F3,
        [Matrix(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]), Matrix(F3, [[0]])],
    )
    rep = classify_all(N3)
    assert set(rep.hyperinvariant) <= set(rep.characteristic) <= set(rep.invariant)
    # over GF(3) no characteristic non-hyperinvariant members: <e2+e4, e3>,
    # characteristic for this shape over GF(2), is invariant only
    assert set(rep.characteristic) == set(rep.hyperinvariant)
    odd3 = span([(0, 1, 0, 1), (0, 0, 1, 0)], F3, 4)
    assert odd3 in rep.invariant and odd3 not in rep.characteristic
    assert rep.findings == ()


def test_oracle_agrees_with_engine_on_goldens():
    for A in (GOLD_4_A,):
        rep = classify_all(A)
        assert set(inv_lattice(A).members) == set(rep.invariant)
        assert set(hinv_lattice(A).members) == set(rep.hyperinvariant)
        assert set(chinv_lattice(A).members) == set(rep.characteristic)


def test_oracle_zero_matrix_tier2_path():
    # zero 5x5 over GF(2): centralizer is all of M_5 (dim 25 > tier-1 cap);
    # only 0 and V are characteristic
    Z5 = Matrix.zeros(F2, 5)
    rep = classify_all(Z5)
    assert rep.centralizer_dim == 25
    assert rep.unit_mode == "stabilizer-subalgebra"
    assert rep.total_subspaces == 374
    assert len(rep.invariant) == 374
    assert set(rep.characteristic) == {zero_subspace(F2, 5), full_space(F2, 5)}
    assert rep.findings == ()


def test_oracle_direct_sum_law_and_noncoprime_failure():
    # coprime: the golden 4x4 ((x+1)-primary) plus a 1x1 zero (x-primary)
    A = block_diag(F2, [GOLD_4_A, Matrix(F2, [[0]])])
    rep = classify_all(A)
    rep4 = classify_all(GOLD_4_A)
    rep1 = classify_all(Matrix(F2, [[0]]))

    def sums(left, right, n_left, n_total):
        out = set()
        zero = F2.zero()
        for u in left:
            for w in right:
                rows = [tuple(r) + (zero,) * (n_total - n_left) for r in u.basis]
                rows += [(zero,) * n_left + tuple(r) for r in w.basis]
                out.add(span(rows, F2, n_total))
        return out

    assert set(rep.characteristic) == sums(rep4.characteristic, rep1.characteristic, 4, 5)
    assert set(rep.hyperinvariant) == sums(rep4.hyperinvariant, rep1.hyperinvariant, 4, 5)
    assert set(rep.invariant) == sums(rep4.invariant, rep1.invariant, 4, 5)

    # non-coprime: [0] + [0] has minimal polynomial x on both blocks; the
    # direct-sum law fails for characteristic subspaces
    B = Matrix.zeros(F2, 2)
    repB = classify_all(B)
    rep_block = classify_all(Matrix(F2, [[0]]))
    product_set = sums(rep_block.characteristic, rep_block.characteristic, 1, 2)
    assert set(repB.characteristic) != product_set
    assert set(repB.characteristic) == {zero_subspace(F2, 2), full_space(F2, 2)}


def test_random_instance_nilpotent_partition_similar_to_golden():
    inst = random_instance(F2, 4, "nilpotent-partition", 7, partition=(3, 1))
    assert inst.segre == (3, 1)
    # similarity invariant: equal rank sequences of powers
    M, N = inst.matrix, GOLD_4_N
    for j in range(1, 5):
        assert rank(M**j) == rank(N**j)
    assert inst.min_poly == parse_poly("x^3", F2)
    # determinism
    again = random_instance(F2, 4, "nilpotent-partition", 7, partition=(3, 1))
    assert again.matrix == inst.matrix


def test_random_instance_companion_primary():
    p = parse_poly("x^2+x+1", F2)
    inst = random_instance(F2, 6, "companion-primary", 3, factor_poly=p, blocks=(3,))
    assert inst.min_poly == p**3
    from invlat.decomposition import analyze_operator

    ana = analyze_operator(inst.matrix)
    assert len(ana.components) == 1
    assert ana.components[0].kstruct.segre == (3,)
    assert ana.components[0].kstruct.field_k.order == 4


def test_random_instance_general_1x1():
    inst = random_instance(F3, 1, "general", 0)
    assert inst.matrix.nrows == 1
    assert inst.min_poly.degree == 1


def test_tier2_sampling_does_not_depend_on_candidate_order():
    from invlat.centralizer import centralizer_basis
    from invlat.oracle import _classify_characteristic
    from invlat.subspace import enumerate_all_subspaces

    from fixtures import GOLD_8_A

    # cap_units 8 puts GOLD_8's 2^d-element centralizer on tier 2
    Z = centralizer_basis(GOLD_8_A)
    invariant = enumerate_all_subspaces(F2, 8, 10**6, [GOLD_8_A])
    candidates = [W for W in invariant if not all(W.is_invariant_under(B) for B in Z.elements)]
    listed = _classify_characteristic(GOLD_8_A, Z, candidates, 8, 0)
    reversed_ = _classify_characteristic(GOLD_8_A, Z, candidates[::-1], 8, 0)
    assert listed[1][0] == "stabilizer-subalgebra" and listed[1][1] > 0
    assert listed == reversed_


def test_tier2_exhaustive_scan_certifies_gold_4():
    from invlat.errors import UndecidedError

    # Z(GOLD_4_A) has q^d = 64 elements, 32 of them outside the stabilizer of
    # the one characteristic, non-hyperinvariant candidate: cap 40 puts the
    # whole centralizer on tier 2, and the scan of those 32 certifies it
    rep = classify_all(GOLD_4_A, cap_units=40)
    assert rep.unit_mode == "stabilizer-subalgebra"
    assert rep.units_tested == 1040
    assert rep.characteristic == classify_all(GOLD_4_A).characteristic
    assert len(rep.characteristic) == 7
    # a cap of exactly the 32 scanned elements still decides
    assert classify_all(GOLD_4_A, cap_units=32).characteristic == rep.characteristic
    with pytest.raises(UndecidedError) as info:
        classify_all(GOLD_4_A, cap_units=31)
    assert str(info.value) == ("undecided at this scale: 32 centralizer elements outside the "
                               "stabilizer of a candidate exceed cap 31")


def _findings_with_one_dropped(monkeypatch, A):
    """k -> classify_all(A)'s findings when its walk loses the k-th invariant
    subspace, for each k in walk order."""
    import invlat.oracle as oracle

    walk = list(oracle.enumerate_all_subspaces(A.field, A.nrows, 10**6, [A]))
    findings = {}
    for k in range(len(walk)):
        monkeypatch.setattr(oracle, "enumerate_all_subspaces",
                            lambda *args, k=k: iter(walk[:k] + walk[k + 1:]))
        findings[k] = classify_all(A).findings
    return findings


def test_closure_findings_on_a_walk_missing_an_inner_member(monkeypatch):
    # GOLD_4_A's 11 invariant subspaces in walk order have dimensions
    # 0,1,1,1,2,2,2,3,3,3,4; a walk that drops an inner one leaves each class
    # either closed or missing a meet or a join, which its finding names
    every = tuple(f"{label}: not closed under" for label in
                  ("invariant", "hyperinvariant", "characteristic"))
    expected = {
        1: tuple(f"{f} intersection" for f in every),
        4: ("invariant: not closed under intersection",),
        6: ("invariant: not closed under sum",),
        9: tuple(f"{f} sum" for f in every),
    }
    findings = _findings_with_one_dropped(monkeypatch, GOLD_4_A)
    assert len(findings) == 11
    for k in range(1, 10):
        assert findings[k] == expected.get(k, ()), k


def test_a_walk_repeating_a_member_is_a_closure_finding(monkeypatch):
    # build_lattice refuses a repeated member as it refuses a missing meet:
    # with a ClosureError, which the oracle reports as a finding
    import invlat.oracle as oracle

    walk = list(oracle.enumerate_all_subspaces(F2, 4, 10**6, [GOLD_4_A]))
    monkeypatch.setattr(oracle, "enumerate_all_subspaces", lambda *args: iter(walk + walk[3:4]))
    assert classify_all(GOLD_4_A).findings == (
        "invariant: duplicate subspaces in lattice construction",)


def test_closure_findings_on_a_walk_missing_zero_or_the_full_space(monkeypatch):
    # every class holds 0 and V, so each one lacking it says so, the chain-
    # shaped hyperinvariant and characteristic classes included
    findings = _findings_with_one_dropped(monkeypatch, GOLD_4_A)
    for k, bound in ((0, "zero subspace"), (10, "full space")):
        assert findings[k] == tuple(f"{label}: lattice misses the {bound}" for label in
                                    ("invariant", "hyperinvariant", "characteristic")), k


def test_build_lattice_and_the_pairwise_reference_judge_oracle_lists_alike():
    # the oracle's invariant lists of seeded operators, whole and with each
    # member dropped in turn: the one-sum-per-pair certificate and the
    # sum-and-intersection reference accept and refuse the same lists, with
    # the same covers, so the engine and the oracle can share the certificate
    from invlat.errors import ClosureError
    from invlat.subspace import build_lattice

    from fixtures import pairwise_lattice

    def outcome(build, members):
        try:
            return build(members)
        except ClosureError:
            return None

    cases = [(F2, 4, "general", seed) for seed in (0, 1, 3, 5)]
    cases += [(F2, 4, "nilpotent-partition", seed) for seed in (1, 4)]
    cases += [(F3, 3, "general", 2)] + [(F3, 3, "nilpotent-partition", seed) for seed in (0, 1)]
    accepted = refused = 0
    for field, n, style, seed in cases:
        walk = list(classify_all(random_instance(field, n, style, seed).matrix).invariant)
        for k in range(-1, len(walk)):
            members = walk if k < 0 else walk[:k] + walk[k + 1:]
            got = outcome(build_lattice, members)
            assert got == outcome(pairwise_lattice, members), (field, style, seed, k)
            accepted += got is not None
            refused += got is None
    assert accepted > 2 * len(cases) and refused > 2 * len(cases)
