import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import product
from math import inf, prod
from pathlib import Path

import pytest

from invlat.decomposition import (
    analyze_operator,
    build_k_structure,
    invariant_counts,
    jordan_chevalley,
    primary_decomposition,
    segre_characteristic,
)
from invlat.errors import InfiniteFieldError, InseparableFactorError, InvariantError
from invlat.fields import QQ, ExtensionField, FiniteField, gf_build
from invlat.kernels import row_kernel
from invlat.matrix import Matrix, block_diag, companion, inverse, mat_vec, poly_at_matrix
from invlat.oracle import classify_all, random_instance
from invlat.poly import Factorization, Poly, factor, is_irreducible, parse_poly
from invlat.subspace import (build_lattice, enumerate_all_subspaces, image_basis, kernel_basis,
                             span, subspace_count)

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


def test_jordan_chevalley_rational_golden_exact():
    p = parse_poly("x^2+1", QQ)
    dec = jordan_chevalley(GOLD_RAT_A, p, 2)
    assert dec.S == GOLD_RAT_S
    assert dec.N == GOLD_RAT_N
    assert poly_at_matrix(dec.certificate, GOLD_RAT_A) == dec.S


def test_jordan_chevalley_gf2_8x8_golden_exact():
    p = parse_poly("x^2+x+1", F2)
    dec = jordan_chevalley(GOLD_8_A, p, 3)
    assert dec.S == GOLD_8_S
    assert dec.N == GOLD_8_N


def test_jordan_chevalley_gf2_4x4_golden_exact():
    p = parse_poly("x+1", F2)
    dec = jordan_chevalley(GOLD_4_A, p, 3)
    assert dec.S == GOLD_4_S
    assert dec.N == GOLD_4_N


def test_jordan_chevalley_nilpotent_input():
    N = Matrix(F2, [[0, 0], [1, 0]])
    dec = jordan_chevalley(N, parse_poly("x", F2), 2)
    assert dec.S.is_zero
    assert dec.N == N


def test_jordan_chevalley_uniqueness_probe():
    for A, p, r in (
        (GOLD_RAT_A, parse_poly("x^2+1", QQ), 2),
        (GOLD_8_A, parse_poly("x^2+x+1", F2), 3),
        (GOLD_4_A, parse_poly("x+1", F2), 3),
    ):
        dec = jordan_chevalley(A, p, r)
        S = newton_semisimple(A, p)
        assert dec.S == S and dec.N == A - S


def test_jordan_chevalley_rejects_inseparable():
    # over GF(2), p = x^2 is not separable (p' = 0); feed a matrix with p(A)^1 = 0
    A = Matrix(F2, [[0, 0], [1, 0]])
    with pytest.raises(InseparableFactorError, match="inseparable"):
        jordan_chevalley(A, parse_poly("x^2", F2), 1)


def test_jordan_chevalley_rejects_wrong_contract():
    with pytest.raises(ValueError, match="contract"):
        jordan_chevalley(GOLD_4_A, parse_poly("x+1", F2), 1)


def test_primary_decomposition_single_component():
    fact = factor(parse_poly("x^2+x+1", F2) ** 3)
    comps = primary_decomposition(GOLD_8_A, fact)
    assert len(comps) == 1 and comps[0].dim == 8
    fact4 = factor(parse_poly("x+1", F2) ** 3)
    comps4 = primary_decomposition(GOLD_4_A, fact4)
    assert len(comps4) == 1 and comps4[0].dim == 4


def test_primary_decomposition_two_components():
    A = block_diag(F2, [companion(parse_poly("x+1", F2)), companion(parse_poly("x", F2))])
    fact = factor(parse_poly("x^2+x", F2))
    comps = primary_decomposition(A, fact)
    assert [c.dim for c in comps] == [1, 1]
    assert {repr(c.factor) for c in comps} == {"x", "x+1"}


def test_primary_decomposition_rejects_inconsistent_factorization():
    x, x1 = parse_poly("x", F2), parse_poly("x+1", F2)
    # (x+1)^2: kernels miss a vector; (x+1)^4: restriction has a smaller
    # minimal polynomial; x: does not divide m_A at all
    for bad in ([(x1, 2)], [(x1, 4)], [(x, 1)]):
        with pytest.raises(ValueError):
            primary_decomposition(GOLD_4_A, Factorization(tuple(bad)))
    # two components, m_A = (x+1)^2 x, with the multiplicity of x+1 overstated:
    # every kernel is right, only p^(k-1)(A_i) = 0 gives it away
    A = block_diag(F2, [companion(x1 ** 2), companion(x)])
    for bad in ([(x1, 3), (x, 1)], [(x, 1), (x1, 3)]):
        with pytest.raises(ValueError, match="inconsistent"):
            primary_decomposition(A, Factorization(tuple(bad)))
    # a repeated factor: on diag(0, 1), ker A twice has the dimensions of F^2
    with pytest.raises(ValueError, match="inconsistent"):
        primary_decomposition(Matrix(F2, [[0, 0], [0, 1]]), Factorization(((x, 1), (x, 1))))


def test_jc_verify_rejects_tampered_s_under_python_O():
    # the invariant checks must not be bare asserts, which -O strips
    script = textwrap.dedent(
        """
        import sys
        from fixtures import GOLD_4_A, F2
        from invlat.decomposition import JCDecomposition, jordan_chevalley
        from invlat.matrix import Matrix
        from invlat.poly import parse_poly

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        p = parse_poly("x+1", F2)
        dec = jordan_chevalley(GOLD_4_A, p, 3)
        bad = JCDecomposition(dec.S + Matrix.identity(F2, 4), dec.N, dec.certificate)
        try:
            bad.verify(GOLD_4_A, p, 3)
        except AssertionError as exc:
            print("rejected:", exc)
        """
    )
    here = Path(__file__).resolve().parent
    import invlat

    path = [str(here), str(Path(invlat.__file__).resolve().parents[1])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:")


def test_k_structure_rational_golden():
    ks = analyze_operator(GOLD_RAT_A).components[0].kstruct
    assert ks.s == 2
    assert isinstance(ks.field_k, ExtensionField)
    assert ks.k_dim == 2
    assert ks.segre == (2,)
    # chain e1 -> e3 over K, each vector with its S-closure; K*e1 = span_F{e1, e2}
    e1, _, e3, _ = Matrix.identity(QQ, 4).rows
    assert ks.generators == (e1, e3)
    decode = row_kernel(QQ).decode
    (chain,) = ks.chains
    assert [[decode(v, 4) for v in block] for block in chain] == [
        [e1, mat_vec(ks.S, e1)], [e3, mat_vec(ks.S, e3)]]
    assert ks.chain_span({(0, 0)}) == span(e_rows(4, [1, 2], QQ), QQ, 4)


def _cases_over_an_extension():
    """Primary operators: K = GF(4) of GOLD_8, K = GF(9) from (x^2+1)^2 over
    GF(3), and K = Q(i) of GOLD_RAT."""
    return [GOLD_8_A, companion(parse_poly("x^4+2x^2+1", F3)), GOLD_RAT_A]


def _k_structure(A):
    return analyze_operator(A).components[0].kstruct


@pytest.mark.parametrize("A", _cases_over_an_extension(), ids=["GOLD_8", "GF(9)", "GOLD_RAT"])
def test_chain_rows_refuse_a_closure_that_drops_a_row(monkeypatch, A):
    # the bottom of the first chain loses S N^(t-1) g: ker N misses a dimension
    ks = _k_structure(A)
    (*top, bottom), *rest = ks.chains
    monkeypatch.setitem(vars(ks), "chains", ((*top, bottom[:-1]), *rest))
    with pytest.raises(InvariantError, match="ker N_K\\^1 is not the span of its Jordan chain"):
        ks.chain_rows


@pytest.mark.parametrize("dropped", ["first", "last"])
@pytest.mark.parametrize("A", [
    GOLD_8_A, block_diag(F3, [companion(parse_poly(f, F3)) for f in ("x^4+2x^2+1", "x^2+1")]),
], ids=["GOLD_8", "GF(9)"])
def test_walk_certificate_refuses_a_walk_that_drops_a_k_line(monkeypatch, A, dropped):
    # finite K, s = 2, segre (3,1) and (2,1): a walk that misses the first or
    # last K-line of N^-1 U / U wherever there are several reaches some member
    # from too few lower covers; the check raises, so it holds under python -O
    import invlat.decomposition as decomposition

    points, cut = decomposition._projective_points, {"first": slice(1, None), "last": slice(-1)}

    def fewer(*args):
        lines = points(*args)
        return lines[cut[dropped]] if len(lines) > 1 else lines

    monkeypatch.setattr(decomposition, "_projective_points", fewer)
    with pytest.raises(InvariantError, match="not reached from each of its lower covers"):
        _k_structure(A).invariant


def test_walk_certificate_refuses_a_walk_that_stops_below_the_full_space(monkeypatch):
    # N_K cyclic over K = GF(9): every member has one upper cover, and a walk
    # that drops it at {0} checks no count, so only the full space tells (the
    # walk is called itself: ``invariant`` reads a cyclic N_K off ``hyperinvariant``)
    import invlat.decomposition as decomposition

    monkeypatch.setattr(decomposition, "_projective_points", lambda *args: [])
    with pytest.raises(InvariantError, match="misses the full space"):
        _k_structure(_cases_over_an_extension()[1])._cover_walk()


def test_walk_over_an_infinite_k_is_refused():
    ks = _k_structure(GOLD_RAT_A)
    assert ks.s == 2
    with pytest.raises(InfiniteFieldError, match="infinite field"):
        ks.invariant


def _nilpotent_jordan(K, sizes):
    """The nilpotent Jordan matrix over K with blocks of ``sizes``."""
    m, start = sum(sizes), 0
    rows = [[K.zero()] * m for _ in range(m)]
    for t in sizes:
        for c in range(start, start + t - 1):
            rows[c + 1][c] = K.one()
        start += t
    return Matrix(K, rows)


_F4 = FiniteField(2, 2)


@pytest.mark.parametrize("F, p, sizes", [
    (F2, "x^2+x+1", (2, 1)), (F3, "x^2+1", (2,)), (F3, "x^2+1", (1, 1, 1)),
    (F3, "x^2+1", (2, 1, 1)), (F2, "x^3+x+1", (2, 1)), (F2, "x^2+x+1", (3, 2, 1)),
    (FiniteField(5), "x^2+2", (1, 1)), (_F4, Poly(_F4, (_F4.element([0, 1]), 1, 1)), (2, 1)),
], ids=["GF(4) (2,1)", "GF(9) (2)", "GF(9) (1,1,1)", "GF(9) (2,1,1)", "GF(8) (2,1)",
        "GF(4) (3,2,1)", "GF(25) (1,1)", "GF(16) over GF(4) (2,1)"])
def test_walk_over_k_gives_the_invariant_subspaces_over_f(F, p, sizes):
    # the K-subspaces that N maps into themselves are the F-subspaces that S
    # and N, so A, map into themselves, and they are as many as the subspaces
    # of K^m that the Jordan matrix of the block sizes maps into themselves
    p = parse_poly(p, F) if isinstance(p, str) else p
    A = block_diag(F, [companion(p**t) for t in sizes])
    (ca,) = analyze_operator(A).components
    ks, n = ca.kstruct, A.nrows
    assert ks.s == p.degree > 1 and ks.segre == sizes
    members = set(ks.invariant)
    assert len(members) == len(ks.invariant)
    assert all(W.is_invariant_under(A) for W in members)
    assert set(ks._cover_walk()) == members  # also where ``invariant`` reads a cyclic N_K off hinv
    K = FiniteField(F.p, F.k * ks.s)
    assert ks.field_k.order == K.order
    assert len(members) == sum(1 for _ in enumerate_all_subspaces(
        K, ks.k_dim, inf, [_nilpotent_jordan(K, sizes)]))
    if subspace_count(n, F.order) <= 5000:
        assert members == set(enumerate_all_subspaces(F, n, inf, [A]))


@pytest.mark.parametrize("F, nmax", [(F2, 6), (F3, 4), (_F4, 4)], ids=["GF(2)", "GF(3)", "GF(4)"])
def test_invariant_counts_match_the_oracle(F, nmax):
    # the Segre counts against classify_all, which shares no code with them, on
    # every partition: the invariant members by dimension and, where the
    # pairwise certificate is cheap, the covers among them
    for n in range(1, nmax + 1):
        for lam in partitions(n):
            A = random_instance(F, n, "nilpotent-partition", n, partition=lam).matrix
            members, edges = invariant_counts(lam, F.order)
            invariant = classify_all(A).invariant
            by_dim = tuple(sum(1 for W in invariant if W.dim == d) for d in range(n + 1))
            assert by_dim == members, lam
            if len(invariant) <= 300:
                assert len(build_lattice(invariant).covers) == edges, lam


@pytest.mark.parametrize("q, lam", [
    (2, (2, 2, 2, 1)), (2, (3, 2, 1, 1)), (2, (3, 3, 1)), (2, (2, 1, 1, 1, 1)),
    (2, (2, 2, 1, 1, 1)), (2, (3, 1, 1, 1, 1)), (2, (2, 1, 1, 1, 1, 1)), (2, (1,) * 6),
    (2, (1,) * 7), (3, (3, 2, 1)), (3, (1,) * 4), (3, (2, 1, 1)), (3, (1,) * 5), (3, (2, 2, 1)),
    (3, (2, 1, 1, 1)),
], ids=str)
def test_cover_walk_over_f_matches_the_enumeration(q, lam):
    # s = 1: the cover walk, whichever method invariant picks for the shape,
    # gives the N-invariant subspaces, as many as the Segre counts, each once
    F, n = FiniteField(q), sum(lam)
    ks = analyze_operator(random_instance(F, n, "nilpotent-partition", 1, partition=lam)
                          .matrix).components[0].kstruct
    assert ks.s == 1 and ks.segre == lam
    walk = ks._cover_walk()
    assert len(set(walk)) == len(walk) == sum(invariant_counts(lam, q)[0])
    assert set(walk) == set(enumerate_all_subspaces(F, n, inf, [ks.N])) == set(ks.invariant)


@pytest.mark.parametrize("A, branch", [
    (random_instance(F2, 8, "nilpotent-partition", 1, partition=(5, 3)).matrix, "walk"),
    (GOLD_4_A, "enumeration"),  # (3,1): E = 16 >= 67 / 8
    (GOLD_8_A, "walk"),  # s = 2
], ids=["GF(2) (5,3)", "GOLD_4", "GOLD_8"])
def test_invariant_refuses_a_walk_that_drops_one_member(monkeypatch, A, branch):
    # each branch is checked against the Segre counts by dimension with a plain
    # raise, so the check holds under python -O; only the branch the shape takes
    # drops a member, so the test also pins the choice
    import invlat.decomposition as decomposition

    drop = lambda members: members[:3] + members[4:]
    if branch == "walk":
        walk = decomposition.KStructure._cover_walk
        monkeypatch.setattr(decomposition.KStructure, "_cover_walk", lambda ks: drop(walk(ks)))
    else:
        monkeypatch.setattr(decomposition, "enumerate_all_subspaces",
                            lambda *args: iter(drop(list(enumerate_all_subspaces(*args)))))
    with pytest.raises(InvariantError, match="not as many, by dimension"):
        analyze_operator(A).components[0].kstruct.invariant


@pytest.mark.parametrize("A", [
    Matrix(F3, [[1 if i == j + 1 else 0 for j in range(4)] for i in range(4)]),
    companion(parse_poly("x^4+2x^2+1", F3)),
], ids=["GF(3) J4", "GF(9) (2)"])
def test_invariant_refuses_a_cyclic_chain_that_drops_one_member(monkeypatch, A):
    # on a cyclic N_K, invariant reads the kernel chain off hyperinvariant and
    # certifies it by the same Segre counts as the walk and the enumeration
    ks = analyze_operator(A).components[0].kstruct
    assert len(ks.segre) == 1
    zero, dropped, *rest = ks.hyperinvariant
    monkeypatch.setitem(vars(ks), "hyperinvariant", (zero, *rest))
    with pytest.raises(InvariantError, match="not as many, by dimension"):
        ks.invariant


def test_k_structure_8x8_golden():
    ks = _k_structure(GOLD_8_A)
    assert ks.s == 2
    assert isinstance(ks.field_k, FiniteField)
    assert ks.field_k.order == 4  # K isomorphic to GF(4)
    assert ks.k_dim == 4
    assert ks.segre == (3, 1)
    # F-chains pair up: K-basis generators are e1, e3, e5, e7
    assert ks.generators == tuple(e_rows(8, [1, 3, 5, 7], F2))


def test_k_structure_4x4_golden():
    ks = _k_structure(GOLD_4_A)
    assert ks.s == 1
    assert ks.field_k == F2
    assert ks.segre == (3, 1)


def test_f_segre_is_k_segre_repeated_s_times():
    ks = _k_structure(GOLD_8_A)
    f_segre = segre_characteristic(ks.N)
    assert f_segre == (3, 3, 1, 1)
    expected = tuple(sorted([part for part in ks.segre for _ in range(ks.s)], reverse=True))
    assert f_segre == expected


def test_k_linearity_of_nilpotent_part():
    # K = F[S] acts as the polynomials in S: N(a v) = a(N v) for a = c_0 + c_1 S,
    # and the kernels and images of N are K-subspaces, the ones S maps into itself
    rng = random.Random(17)
    ks = _k_structure(GOLD_8_A)
    I = Matrix.identity(F2, 8)
    for _ in range(50):
        lam = I * rng.randrange(2) + ks.S * rng.randrange(2)
        v = tuple(F2.element(rng.randrange(2)) for _ in range(8))
        assert mat_vec(ks.N, mat_vec(lam, v)) == mat_vec(lam, mat_vec(ks.N, v))
    assert all(W.is_invariant_under(ks.S) for W in (*ks.kernels, *ks.images))


def test_segre_consistency_invariants():
    for A, r in ((GOLD_RAT_A, 2), (GOLD_8_A, 3), (GOLD_4_A, 3)):
        ks = _k_structure(A)
        assert ks.s * sum(ks.segre) == A.nrows
        assert ks.segre[0] == r


def test_analyze_operator_multi_component_global_parts():
    # (x+1)-primary 2x2 block plus x-primary 1x1 block
    J = Matrix(F2, [[1, 0], [1, 1]])
    A = block_diag(F2, [J, Matrix(F2, [[0]])])
    ana = analyze_operator(A)
    assert len(ana.components) == 2
    assert ana.S + ana.N == A
    assert ana.S @ ana.N == ana.N @ ana.S
    assert (ana.N ** 3).is_zero
    assert ana.min_poly == parse_poly("x^2+x", F2) * parse_poly("x+1", F2)


def _gf3_three_components():
    """(x+1)^2, x^2+1 and x^2 over GF(3), mixed by a conjugation so that the
    pivots of the components are not their leading columns."""
    blocks = [companion(parse_poly(f, F3)) for f in ("x^2+2x+1", "x^2+1", "x^2")]
    B = block_diag(F3, blocks)
    P = Matrix(F3, [[1 if j <= i else 0 for j in range(6)] for i in range(6)])
    return inverse(P) @ B @ P


def _q_with_a_quadratic_factor():
    """(x^2+1)^2 (x-2) over Q, conjugated: one s = 2 and one s = 1 component."""
    B = block_diag(QQ, [GOLD_RAT_A, companion(parse_poly("x-2", QQ))])
    P = Matrix(QQ, [[1 if j <= i else 0 for j in range(5)] for i in range(5)])
    return inverse(P) @ B @ P


def test_analyze_operator_components_and_certificates():
    A = _gf3_three_components()
    ana = analyze_operator(A)
    rad = parse_poly("1", F3)
    for ca in ana.components:
        comp, p, k = ca.component, ca.component.factor, ca.component.multiplicity
        basis = Matrix.from_cols(F3, comp.subspace.basis)
        assert A @ basis == basis @ comp.restriction
        # q mod p^k is the least-degree certificate, as for the primary matrix alone
        assert ca.jc.certificate.degree < k * p.degree
        assert ca.jc == jordan_chevalley(comp.restriction, p, k)
        rad = rad * p
    assert ana.S == newton_semisimple(A, rad) and ana.N == A - ana.S


@pytest.mark.parametrize("A", [_gf3_three_components(), _q_with_a_quadratic_factor()],
                         ids=["GF(3) three components", "Q with s = 2"])
def test_analyze_operator_splits_and_finds_m_once(monkeypatch, A):
    # one minimal polynomial and one verified split per operator; the
    # components read S_i off S, and none changes basis
    import invlat.decomposition as decomposition

    calls = {"_krylov_minimal_polynomial": 0, "verify": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_krylov_minimal_polynomial", "inverse"):
        monkeypatch.setattr(decomposition, name, counted(name, getattr(decomposition, name)))
    monkeypatch.setattr(decomposition.JCDecomposition, "verify",
                        counted("verify", decomposition.JCDecomposition.verify))
    ana = analyze_operator(A)
    wide = sum(1 for ca in ana.components if ca.kstruct.s > 1)
    assert len(ana.components) > 1 and wide == 1
    assert calls == {"_krylov_minimal_polynomial": 1, "verify": 1, "inverse": 0}


def test_k_structure_over_k_equal_f_has_no_change_of_basis():
    # s = 1: N_K = N_i, the generators are the unit vectors, each chain vector
    # is its own S-closure, and inv walks N_i on F^n
    for A in (GOLD_4_A, _gf3_three_components(), _q_with_a_quadratic_factor()):
        narrow = [ca for ca in analyze_operator(A).components if ca.kstruct.s == 1]
        assert narrow
        for ca in narrow:
            ks, F, n = ca.kstruct, A.field, ca.component.dim
            assert ks.field_k == F and ks.k_dim == n
            assert ks.S == ca.jc.S and ks.N == ca.jc.N
            assert ks.generators == Matrix.identity(F, n).rows
            assert all(len(block) == 1 for chain in ks.chains for block in chain)
            if F.is_finite:
                Ai = ca.component.restriction
                assert set(ks.invariant) == {W for W in enumerate_all_subspaces(F, n)
                                             if W.is_invariant_under(Ai)}


def _tampered_read_off(monkeypatch, S):
    """Make the component read-off add 1 to entry (0, 0) of every restriction
    of S, and leave the restrictions of A alone."""
    import invlat.decomposition as decomposition

    restriction = decomposition._restriction

    def tampered(M, V):
        R = restriction(M, V)
        if M != S:
            return R
        rows = [list(r) for r in R.rows]
        rows[0][0] += M.field.one()
        return Matrix(M.field, rows)

    monkeypatch.setattr(decomposition, "_restriction", tampered)


def test_component_read_off_fault_is_refused_by_the_certificate(monkeypatch, tmp_path, capsys):
    import json

    from invlat.cli import main
    from invlat.jsonio import matrix_to_json

    path = tmp_path / "m.json"
    for A in (_gf3_three_components(), _q_with_a_quadratic_factor()):
        S = analyze_operator(A).S
        assert S != A
        path.write_text(json.dumps(matrix_to_json(A)))
        capsys.readouterr()
        assert main(["--input", str(path), "--command", "shoda"]) == 0
        shoda = capsys.readouterr().out
        with monkeypatch.context() as m:
            _tampered_read_off(m, S)
            # the certificate runs wherever S_i is formed: on the first read of jc
            ana = analyze_operator(A)
            assert ana.S == S
            for ca in ana.components:
                with pytest.raises(InvariantError, match="certificate"):
                    ca.jc
            # through the command line: an internal invariant (5), not input (2)
            for command in ("analyze", "lattice-hinv"):
                assert main(["--input", str(path), "--command", command]) == 5, command
                err = capsys.readouterr().err
                assert err.startswith("internal invariant violated: certificate"), err
            # shoda forms no S_i, and reports what it does untampered
            assert main(["--input", str(path), "--command", "shoda"]) == 0
            assert capsys.readouterr().out == shoda


def test_analyze_operator_rational_golden():
    ana = analyze_operator(GOLD_RAT_A)
    assert ana.S == GOLD_RAT_S and ana.N == GOLD_RAT_N
    assert ana.single_component


def test_segre_characteristic_basics():
    Z = Matrix.zeros(F2, 3)
    assert segre_characteristic(Z) == (1, 1, 1)
    J3 = Matrix(F2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert segre_characteristic(J3) == (3,)
    with pytest.raises(ValueError, match="not nilpotent"):
        segre_characteristic(Matrix.identity(F2, 2))


def test_k_structure_kernel_and_image_chains():
    for A in (GOLD_4_A, GOLD_8_A, GOLD_RAT_A):
        ks = analyze_operator(A).components[0].kstruct
        powers = [Matrix.identity(A.field, A.nrows)]
        while not powers[-1].is_zero:
            powers.append(powers[-1] @ ks.N)
        assert ks.kernels == tuple(kernel_basis(P) for P in powers)
        assert ks.images == tuple(image_basis(P) for P in powers)
        # over F each block size of N_K occurs s times
        assert ks.segre == segre_characteristic(ks.N)[:: ks.s]
        # sizes >= j count (dim ker N^j - dim ker N^(j-1)) / s
        for j in range(1, len(powers)):
            assert ks.s * sum(1 for t in ks.segre if t >= j) == (ks.kernels[j].dim
                                                                - ks.kernels[j - 1].dim)


def _unit_triangular_conjugator(field, n, rng):
    """L U with L, U unit triangular, entries in {-1, 0, 1}: invertible."""
    L = Matrix(field, [[1 if i == j else rng.randrange(-1, 2) if j < i else 0
                        for j in range(n)] for i in range(n)])
    U = Matrix(field, [[1 if i == j else rng.randrange(-1, 2) if j > i else 0
                        for j in range(n)] for i in range(n)])
    return L @ U


def _first_irreducible(field, d):
    """The first monic irreducible of degree d over the finite ``field``, in element order."""
    return next(f for cs in product(list(field.elements()), repeat=d)
                if is_irreducible(f := Poly(field, (*cs, field.one()))))


def _p_chain_cases():
    """Seeded conjugates of direct sums of companion matrices of prime powers,
    each with a factor of multiplicity k >= 2."""
    F4, F9 = gf_build(2, 2), gf_build(3, 2)
    cases = [
        (QQ, ["x^2+1", "x^2+1"], [2, 1]),
        (QQ, ["x^2-2", "x-1"], [2, 1]),
        (F2, ["x^2+x+1", "x^2+x+1", "x+1", "x+1"], [2, 1, 3, 1]),
        (F3, ["x^2+1", "x^2+1", "x+1"], [2, 2, 2]),
    ]
    cases = [(F, [parse_poly(f, F) for f in fs], ts) for F, fs, ts in cases]
    for F in (F4, F9):
        q = _first_irreducible(F, 2)
        cases.append((F, [q, q, parse_poly("x+1", F)], [2, 1, 3]))
    for seed, (F, fs, ts) in enumerate(cases):
        A0 = block_diag(F, [companion(f ** t) for f, t in zip(fs, ts)])
        P = _unit_triangular_conjugator(F, A0.nrows, random.Random(seed))
        yield P @ A0 @ inverse(P)


_over_p_chain_cases = pytest.mark.parametrize(
    "A", list(_p_chain_cases()),
    ids=["Q (x^2+1)^2", "Q (x^2-2)^2 (x-1)", "GF(2)", "GF(3) (x^2+1)^2", "GF(4)", "GF(9)"])


@_over_p_chain_cases
def test_p_chain_segre_matches_the_nilpotent_part(A):
    # the Segre characteristic read off ker p(A_i)^j in primary_decomposition is
    # the K-structure's and that of N_i over F, each size taken once of its s
    ana = analyze_operator(A)
    assert any(ca.component.multiplicity >= 2 for ca in ana.components)
    for ca in ana.components:
        comp, ks = ca.component, ca.kstruct
        assert comp.segre == ks.segre == segre_characteristic(ca.jc.N)[:: ks.s]
        assert comp.segre[0] == comp.multiplicity and ks.field_k is comp.field_k
        powers = [Matrix.identity(A.field, comp.dim)]
        while not powers[-1].is_zero:
            powers.append(powers[-1] @ ca.jc.N)
        assert ks.kernels == comp.kernels == tuple(kernel_basis(P) for P in powers)
        assert ks.images == tuple(image_basis(P) for P in powers)


def test_k_structure_refuses_a_tampered_p_chain():
    # the kernels are taken from the chain of p(A_i), not from N: a chain vector
    # g of length t with N^t g != 0, or a kernel missing a vector, is refused
    N = Matrix(F2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # N e1 = e2: blocks (2, 1)
    (comp,) = primary_decomposition(N, factor(parse_poly("x^2", F2)))
    S = Matrix.zeros(F2, 3)
    assert comp.segre == (2, 1) and comp.kernels[1] == span(e_rows(3, [2, 3], F2), F2, 3)
    assert build_k_structure(S, N, comp).chain_rows
    # ker N^1 = <e2, e3> replaced by <e1, e3>: the size-1 chain would start at e1;
    # the kernels are lazy, so the tampered ones are set on a fresh copy
    wrong = replace(comp)
    vars(wrong)["kernels"] = (comp.kernels[0], span(e_rows(3, [1, 3], F2), F2, 3),
                              comp.kernels[2])
    with pytest.raises(InvariantError, match="does not end in ker N"):
        build_k_structure(S, N, wrong)
    for A in (GOLD_4_A, GOLD_8_A, _gf3_three_components(), _q_with_a_quadratic_factor()):
        for ca in analyze_operator(A).components:
            comp = ca.component
            for j in range(1, comp.multiplicity):
                W = span(comp.kernels[j].basis[1:], A.field, comp.dim)
                short = replace(comp)
                vars(short)["kernels"] = (*comp.kernels[:j], W, *comp.kernels[j + 1:])
                with pytest.raises(InvariantError):
                    build_k_structure(ca.jc.S, ca.jc.N, short).chain_rows


@_over_p_chain_cases
def test_lazy_p_chain_is_checked_against_the_ranks(monkeypatch, A):
    # ker p(A_i)^j is formed on first read and must have the dimension of
    # ker p(A)^j that the rank chain gave: a kernel that loses a vector is
    # refused when first read, through ``kernels`` or ``powers`` alike
    import invlat.decomposition as decomposition

    power_chains = decomposition._power_chains

    def losing(P, k):
        powers, kernels = power_chains(P, k)
        lost = span(kernels[1].basis[1:], P.field, P.nrows)
        return powers, (kernels[0], lost, *kernels[2:])

    ana = analyze_operator(A)
    monkeypatch.setattr(decomposition, "_power_chains", losing)
    wide = [ca.component for ca in ana.components if ca.component.multiplicity >= 2]
    assert wide
    for comp in wide:
        for name in ("kernels", "powers"):
            with pytest.raises(InvariantError, match="disagrees with the rank of p"):
                getattr(replace(comp), name)


def test_jordan_chevalley_laws_on_several_components_hypothesis():
    # the global q of analyze_operator splits A = S + N on operators with two
    # or three primary components, and agrees with each component's S_i
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    factors = {
        QQ: ("x", "x-1", "x+2", "x^2+1", "x^2-2", "x^2+x+1"),
        F2: ("x", "x+1", "x^2+x+1"),
        F3: ("x", "x+1", "x+2", "x^2+1"),
        FiniteField(5, 1): ("x", "x+1", "x+3", "x^2+2"),
    }

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        field = data.draw(st.sampled_from(list(factors)))
        texts = data.draw(st.lists(st.sampled_from(factors[field]), min_size=2, max_size=3,
                                   unique=True))
        ps = [parse_poly(t, field) for t in texts]
        sizes = [data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)) for _ in ps]
        n = sum(p.degree * sum(ts) for p, ts in zip(ps, sizes))
        hypothesis.assume(n <= 9)
        A0 = block_diag(field, [companion(p ** t) for p, ts in zip(ps, sizes) for t in ts])
        P = _unit_triangular_conjugator(field, n, random.Random(data.draw(st.integers(0, 999))))
        A = P @ A0 @ inverse(P)
        hint = [(p, max(ts)) for p, ts in zip(ps, sizes)] if field == QQ else None
        ana = analyze_operator(A, hint=hint)
        S, N = ana.S, ana.N
        assert S + N == A and S @ N == N @ S and (N ** n).is_zero
        one = Poly.one(field)
        assert poly_at_matrix(prod(ps, start=one), S).is_zero  # S is semisimple
        expected = prod((p ** max(ts) for p, ts in zip(ps, sizes)), start=one)
        assert ana.min_poly == expected and len(ana.components) == len(ps)
        for ca in ana.components:
            V, jc = ca.component.subspace, ca.jc
            # the component's own split, with its own verify, is the reference
            assert jc == jordan_chevalley(ca.component.restriction, ca.component.factor,
                                          ca.component.multiplicity)
            assert jc.S + jc.N == ca.component.restriction and jc.S @ jc.N == jc.N @ jc.S
            SV = S @ Matrix.from_cols(field, V.basis)  # S on V_i, in V_i's coordinates
            assert Matrix(field, [SV.rows[c] for c in V.pivots]) == jc.S

    check()
