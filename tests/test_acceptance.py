"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions are exact (no tolerances: everything is exact
arithmetic) and the stated runtime budgets are enforced with
``time.perf_counter``.
"""

import json
import time
from itertools import product
from random import Random

from invlat import (
    Matrix,
    block_diag,
    chinv_lattice,
    companion,
    classify_all,
    full_space,
    gf_build,
    hinv_lattice,
    inv_lattice,
    jordan_chevalley,
    poly_at_matrix,
    span,
    zero_subspace,
)
from invlat.cli import main
from invlat.decomposition import analyze_operator, build_k_structure
from invlat.fields import QQ, FiniteField
from invlat.jsonio import matrix_to_json
from invlat.oracle import _jordan_nilpotent, random_instance
from invlat.poly import Poly, is_irreducible, parse_poly

from fixtures import (
    GOLD_4_A,
    GOLD_4_N,
    GOLD_4_S,
    GOLD_8_A,
    GOLD_8_N,
    GOLD_8_S,
    GOLD_RAT_A,
    GOLD_RAT_N,
    GOLD_RAT_S,
    e_rows,
    F2,
    F3,
    newton_semisimple,
    partitions,
)

F5 = gf_build(5)


def _expected_hinv_4():
    return {
        zero_subspace(F2, 4),
        span(e_rows(4, [3], F2), F2, 4),
        span(e_rows(4, [2, 3], F2), F2, 4),
        span(e_rows(4, [3, 4], F2), F2, 4),
        span(e_rows(4, [2, 3, 4], F2), F2, 4),
        full_space(F2, 4),
    }


def _expected_hinv_8():
    n = 8
    return {
        zero_subspace(F2, n),
        span(e_rows(n, [5, 6], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6], F2), F2, n),
        span(e_rows(n, [5, 6, 7, 8], F2), F2, n),
        span(e_rows(n, [3, 4, 5, 6, 7, 8], F2), F2, n),
        full_space(F2, n),
    }


def test_criterion_1_rational_golden():
    t0 = time.perf_counter()
    p = parse_poly("x^2+1", QQ)
    dec = jordan_chevalley(GOLD_RAT_A, p, 2)
    assert dec.S == GOLD_RAT_S
    assert dec.N == GOLD_RAT_N
    expected = {
        zero_subspace(QQ, 4),
        span(e_rows(4, [3, 4], QQ), QQ, 4),
        full_space(QQ, 4),
    }
    assert inv_lattice(GOLD_RAT_A).member_set() == expected
    assert hinv_lattice(GOLD_RAT_A).member_set() == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS - rational golden: printed S,N exact; "
          f"Inv = Hinv = {{0, <e3,e4>, V}} ({elapsed:.2f}s)")


def test_criterion_2_gf2_8x8_golden():
    t0 = time.perf_counter()
    p = parse_poly("x^2+x+1", F2)
    dec = jordan_chevalley(GOLD_8_A, p, 3)
    assert dec.S == GOLD_8_S
    assert dec.N == GOLD_8_N
    ks = build_k_structure(dec.S, dec.N, p)
    assert isinstance(ks.field_k, FiniteField) and ks.field_k.order == 4
    assert ks.segre == (3, 1)
    hrep = hinv_lattice(GOLD_8_A)
    crep = chinv_lattice(GOLD_8_A)
    assert hrep.member_set() == _expected_hinv_8()
    assert crep.member_set() == _expected_hinv_8()
    engine_elapsed = time.perf_counter() - t0
    assert engine_elapsed < 5.0
    t1 = time.perf_counter()
    oracle = classify_all(GOLD_8_A)
    oracle_elapsed = time.perf_counter() - t1
    assert oracle.total_subspaces == 417199
    assert set(oracle.hyperinvariant) == _expected_hinv_8()
    assert set(oracle.characteristic) == _expected_hinv_8()
    assert set(oracle.invariant) == inv_lattice(GOLD_8_A).member_set()
    assert oracle.findings == ()
    assert oracle_elapsed < 600.0
    print(f"\n[criterion 2] PASS - 8x8 GF(2) golden: printed S,N exact, K = GF(4), "
          f"K-Segre (3,1), Hinv = Chinv = 6 members; engine {engine_elapsed:.2f}s, "
          f"oracle over {oracle.total_subspaces} subspaces {oracle_elapsed:.2f}s")


def test_criterion_3_gf2_4x4_golden():
    t0 = time.perf_counter()
    ana = analyze_operator(GOLD_4_A)
    assert ana.S == GOLD_4_S and ana.N == GOLD_4_N
    assert ana.components[0].kstruct.segre == (3, 1)
    hrep = hinv_lattice(GOLD_4_A)
    crep = chinv_lattice(GOLD_4_A)
    assert hrep.member_set() == _expected_hinv_4()
    extra = crep.member_set() - hrep.member_set()
    assert extra == {span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)}
    oracle = classify_all(GOLD_4_A)
    assert oracle.total_subspaces == 67
    assert set(oracle.hyperinvariant) == hrep.member_set()
    assert set(oracle.characteristic) == crep.member_set()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 3] PASS - 4x4 GF(2) golden: Segre (3,1), Hinv exact, "
          f"Chinv \\ Hinv = {{<e2+e4, e3>}}; full oracle on 67 subspaces ({elapsed:.2f}s)")


def _irreducible_pool(field, degree):
    pool = []
    q = field.order
    for idx in range(q**degree):
        digits = []
        i = idx
        for _ in range(degree):
            digits.append(field.element_from_index(i % q))
            i //= q
        f = Poly(field, digits + [field.one()])
        if degree == 1 or is_irreducible(f):
            pool.append(f)
    return pool


_POOLS = {}


def _pool(field, degree):
    key = (field, degree)
    if key not in _POOLS:
        _POOLS[key] = _irreducible_pool(field, degree)
    return _POOLS[key]


def test_criterion_4_jordan_chevalley_property_suite():
    t0 = time.perf_counter()
    fields = (F2, F3, F5)
    failures = 0
    for seed in range(200):
        field = fields[seed % 3]
        rng = Random(1000 + seed)
        s = rng.choice((1, 1, 2, 2, 3))
        p = rng.choice(_pool(field, s))
        total = rng.randrange(1, 8 // s + 1)
        blocks = []
        left = total
        while left:
            b = rng.randrange(1, left + 1)
            blocks.append(b)
            left -= b
        blocks = tuple(sorted(blocks, reverse=True))
        r = blocks[0]
        n = s * total
        inst = random_instance(field, n, "companion-primary", seed, factor_poly=p, blocks=blocks)
        A = inst.matrix
        assert inst.min_poly == (p**r).monic()
        dec = jordan_chevalley(A, p, r)
        assert dec.S + dec.N == A
        assert dec.S @ dec.N == dec.N @ dec.S
        assert (dec.N ** n).is_zero
        assert poly_at_matrix(p, dec.S).is_zero
        assert poly_at_matrix(dec.certificate, A) == dec.S
        if newton_semisimple(A, p) != dec.S:
            failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 4] PASS - 200 seeded p-primary instances over GF(2)/GF(3)/GF(5): "
          f"all five decomposition properties and agreement with the matrix Newton iteration "
          f"started at A + p(A) hold, zero failures ({elapsed:.1f}s)")


def _engine_oracle_match(A):
    ri = inv_lattice(A)
    rh = hinv_lattice(A)
    rc = chinv_lattice(A)
    rep = classify_all(A)
    assert rep.findings == ()
    assert ri.member_set() == set(rep.invariant)
    assert rh.member_set() == set(rep.hyperinvariant)
    assert rc.member_set() == set(rep.characteristic)
    return rep


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for field, nmax in ((F2, 5), (F3, 4)):
        for n in range(1, nmax + 1):
            for lam in partitions(n):
                _engine_oracle_match(_jordan_nilpotent(field, lam))
                checked += 1
    for seed in range(50):
        field = F2 if seed % 2 == 0 else F3
        nmax = 5 if field is F2 else 4
        n = Random(seed).randrange(1, nmax + 1)
        inst = random_instance(field, n, "nilpotent-partition", seed)
        _engine_oracle_match(inst.matrix)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\n[criterion 5] PASS - engine Inv/Hinv/Chinv equal the oracle exactly on "
          f"{checked} instances (all partitions, GF(2) n<=5 and GF(3) n<=4, plus 50 "
          f"seeded conjugates); zero mismatches ({elapsed:.1f}s)")


def test_engine_matches_oracle_gf2_nilpotent_5_2():
    # n = 6-7, beyond criterion 5's n <= 5: witness components whose
    # characteristic members come from the span of the units; (3,2,1) and
    # (4,2,1) have three sizes of multiplicity one, so two conditions cut it
    for lam in ((5, 2), (3, 2, 1), (4, 2, 1)):
        A = _jordan_nilpotent(F2, lam)
        rep = classify_all(A)
        rc = chinv_lattice(A)
        assert rep.findings == (), lam
        assert inv_lattice(A).member_set() == set(rep.invariant), lam
        assert hinv_lattice(A).member_set() == set(rep.hyperinvariant), lam
        assert rc.member_set() == set(rep.characteristic), lam
        extra = {w for w, f in zip(rc.members, rc.member_flags) if f == "characteristic-only"}
        assert extra == set(rep.characteristic) - set(rep.hyperinvariant) != set(), lam


def test_engine_matches_oracle_gf2_nilpotent_5_3():
    # n = 8: the witness component enumerates its A-invariant subspaces
    # among all 417,199 of GF(2)^8 before the unit-span filter
    A = _jordan_nilpotent(F2, (5, 3))
    rc = chinv_lattice(A)
    assert rc.complete and len(rc.members) == 15
    assert rc.member_flags.count("characteristic-only") == 3
    assert rc.member_set() == set(classify_all(A).characteristic)


def test_chinv_complete_beyond_the_unit_cap():
    # dim Z = 22 and 26, over the 2^20 unit cap a unit walk would need
    for lam, members, extra in (((4, 2, 1, 1), 14, 2), ((3, 2, 2, 1), 9, 1)):
        A = _jordan_nilpotent(F2, lam)
        rc = chinv_lattice(A)
        assert rc.complete and len(rc.members) == members, lam
        assert rc.member_flags.count("characteristic-only") == extra, lam
        hinv, inv = hinv_lattice(A).member_set(), inv_lattice(A).member_set()
        assert hinv <= rc.member_set() <= inv, lam
        assert len(hinv) == members - extra, lam


def _least_irreducible(F, d):
    """The first monic irreducible of degree d over F, its lower coefficients
    in the order of ``F.elements()``."""
    for c in product(tuple(F.elements()), repeat=d):
        f = Poly(F, c + (F.one(),))
        if is_irreducible(f):
            return f


def test_engine_matches_oracle_over_a_gf4_and_a_gf9_base():
    # K = F[S] of degree 2 or 3 over F = GF(4) or GF(9): seeded conjugates of
    # the primary block structures with n <= 4, and a sum with a linear factor
    for F in (gf_build(2, 2), gf_build(3, 2)):
        p2, p3 = _least_irreducible(F, 2), _least_irreducible(F, 3)
        for p, blocks in ((p2, (1, 1)), (p2, (2,)), (p3, (1,))):
            inst = random_instance(F, p.degree * sum(blocks), "companion-primary", 5,
                                   factor_poly=p, blocks=blocks)
            (ca,) = analyze_operator(inst.matrix).components
            assert ca.kstruct.s == p.degree and ca.kstruct.segre == blocks
            _engine_oracle_match(inst.matrix)
        _engine_oracle_match(block_diag(F, [companion(p2), Matrix(F, [[F.one()]])]))


def test_criterion_6_extended_shoda_equivalence():
    from invlat.lattices import shoda_witness

    t0 = time.perf_counter()
    checked = 0

    def check(A, field, deg_p, segre_k):
        nonlocal checked
        rep = classify_all(A)
        actual = set(rep.characteristic) != set(rep.hyperinvariant)
        predicted = (
            field.order == 2 and deg_p == 1 and shoda_witness(segre_k) is not None
        )
        assert actual == predicted, (field, deg_p, segre_k)
        checked += 1

    # nilpotent family: p = x (degree 1)
    for field, nmax in ((F2, 5), (F3, 4)):
        for n in range(1, nmax + 1):
            for lam in partitions(n):
                check(_jordan_nilpotent(field, lam), field, 1, lam)
    # degree-2 primary family over GF(2): p = x^2+x+1, n <= 6
    p = parse_poly("x^2+x+1", F2)
    for total in (1, 2, 3):
        for blocks in partitions(total):
            inst = random_instance(
                F2, 2 * total, "companion-primary", 11, factor_poly=p, blocks=blocks
            )
            ana = analyze_operator(inst.matrix)
            assert ana.components[0].kstruct.segre == blocks
            check(inst.matrix, F2, 2, blocks)
            # the engine agrees as well
            assert chinv_lattice(inst.matrix).member_set() == hinv_lattice(
                inst.matrix
            ).member_set()
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 6] PASS - characteristic non-hyperinvariant subspaces exist "
          f"iff GF(2), linear factor, and block-size witness; exhaustive over "
          f"{checked} instances, zero counterexamples ({elapsed:.1f}s)")


def test_criterion_7_direct_sum_laws():
    from invlat.lattices import direct_sum_lattices

    t0 = time.perf_counter()

    def embed(left, right, n_left, n_total):
        out = set()
        zero = left[0].field.zero() if left else None
        for u in left:
            for w in right:
                rows = [tuple(r) + (zero,) * (n_total - n_left) for r in u.basis]
                rows += [(zero,) * n_left + tuple(r) for r in w.basis]
                out.add(span(rows, u.field, n_total))
        return out

    fields = {0: F2, 1: F3}
    done = 0
    for seed in range(30):
        field = fields[seed % 2]
        rng = Random(2000 + seed)
        pool1 = _pool(field, 1)
        p1, p2 = rng.sample(pool1, 2)
        n1 = rng.randrange(1, 4)
        n2 = rng.randrange(1, 3)
        b1 = random_instance(field, n1, "companion-primary", seed, factor_poly=p1).matrix
        b2 = random_instance(field, n2, "companion-primary", seed + 77, factor_poly=p2).matrix
        A = block_diag(field, [b1, b2])
        for kind, fn in (("invariant", inv_lattice), ("hyperinvariant", hinv_lattice),
                         ("characteristic", chinv_lattice)):
            whole = fn(A).member_set()
            left = fn(b1).members
            right = fn(b2).members
            assert whole == embed(left, right, n1, n1 + n2), (seed, kind)
        oracle = classify_all(A)
        assert inv_lattice(A).member_set() == set(oracle.invariant)
        assert hinv_lattice(A).member_set() == set(oracle.hyperinvariant)
        assert chinv_lattice(A).member_set() == set(oracle.characteristic)
        done += 1

    # the public product operation agrees on a golden-sized case
    J2 = Matrix(F2, [[0, 0], [1, 0]])
    one = Matrix(F2, [[1]])
    prod = direct_sum_lattices(
        [inv_lattice(J2).lattice, inv_lattice(one).lattice], matrices=[J2, one]
    )
    assert set(prod.members) == inv_lattice(block_diag(F2, [J2, one])).member_set()

    # non-coprime counterexample: [0] (+) [0]; the product set is NOT the
    # characteristic lattice of the sum
    B = Matrix.zeros(F2, 2)
    blocks_char = chinv_lattice(Matrix(F2, [[0]])).members
    product_set = embed(blocks_char, blocks_char, 1, 2)
    whole_char = chinv_lattice(B).member_set()
    assert whole_char != product_set
    assert set(classify_all(B).characteristic) == whole_char
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 7] PASS - {done} seeded coprime block constructions match the "
          f"direct-sum product for all three lattices (oracle-confirmed), and the "
          f"non-coprime instance [0](+)[0] breaks the characteristic direct-sum law "
          f"({elapsed:.1f}s)")


def _run_job(tmp_path, M, command, tag, extra=()):
    inp = tmp_path / f"in_{tag}.json"
    inp.write_text(json.dumps(matrix_to_json(M)))
    outs = []
    dots = []
    for run in (1, 2):
        out = tmp_path / f"out_{tag}_{run}.json"
        dot = tmp_path / f"dot_{tag}_{run}.dot"
        argv = ["--input", str(inp), "--command", command, "--out", str(out),
                "--dot", str(dot), *extra]
        assert main(argv) == 0
        outs.append(out.read_bytes())
        dots.append(dot.read_bytes() if dot.exists() else b"")
    assert outs[0] == outs[1], f"JSON output differs between runs for {tag}"
    assert dots[0] == dots[1], f"DOT output differs between runs for {tag}"
    return outs[0], dots[0]


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    jobs = 0
    for M, name in ((GOLD_RAT_A, "rat"), (GOLD_8_A, "g8"), (GOLD_4_A, "g4")):
        _run_job(tmp_path, M, "analyze", f"analyze_{name}")
        _run_job(tmp_path, M, "lattice-chinv", f"chinv_{name}")
        _run_job(tmp_path, M, "lattice-hinv", f"hinv_{name}")
        jobs += 3
    _run_job(tmp_path, GOLD_4_A, "verify", "verify_g4")
    jobs += 1
    # dot round trip: re-rendering a stored lattice report reproduces the DOT
    inp = tmp_path / "in_chinv.json"
    inp.write_text(json.dumps(matrix_to_json(GOLD_4_A)))
    stored = tmp_path / "stored.json"
    dot1 = tmp_path / "direct.dot"
    assert main(["--input", str(inp), "--command", "lattice-chinv",
                 "--out", str(stored), "--dot", str(dot1)]) == 0
    dot2 = tmp_path / "rerendered.dot"
    assert main(["--input", str(stored), "--command", "dot",
                 "--out", str(tmp_path / "ignored.json"), "--dot", str(dot2)]) == 0
    assert dot1.read_bytes() == dot2.read_bytes()
    jobs += 1
    elapsed = time.perf_counter() - t0
    print(f"\n[criterion 8] PASS - {jobs} golden jobs re-run byte-identically "
          f"(JSON and DOT), dot command round-trips ({elapsed:.1f}s)")
