from itertools import product

import pytest

from invlat.centralizer import centralizer_basis, unit_elements
from invlat.decomposition import analyze_operator
from invlat.errors import InfiniteFieldError, UndecidedError
from invlat.fields import QQ, gf_build
from invlat.lattices import _unit_span, hinv_lattice
from invlat.matrix import Matrix, block_diag, companion, inverse, rank
from invlat.oracle import classify_all, random_instance
from invlat.poly import parse_poly
from invlat.subspace import enumerate_all_subspaces, full_space, span, zero_subspace

from fixtures import GOLD_4_N, GOLD_RAT_A, e_rows, F2, F3, partitions


def nilpotent_jordan(field, partition):
    blocks = []
    for t in partition:
        rows = [[field.zero()] * t for _ in range(t)]
        for i in range(1, t):
            rows[i][i - 1] = field.one()
        blocks.append(Matrix(field, rows))
    return block_diag(field, blocks)


def test_centralizer_of_identity_is_everything():
    Z = centralizer_basis(Matrix.identity(F2, 2))
    assert Z.dim == 4


def test_centralizer_of_single_jordan_block_matches_bruteforce():
    # brute force over all of M_n(GF(2)): count commuting matrices; the
    # classical value for a cyclic nilpotent is dim = n
    for n in range(1, 5):
        J = nilpotent_jordan(F2, (n,))
        Z = centralizer_basis(J)
        assert Z.dim == n
        count = 0
        for bits in product((0, 1), repeat=n * n):
            B = Matrix(F2, [bits[i * n : (i + 1) * n] for i in range(n)])
            if B @ J == J @ B:
                count += 1
        assert count == 2**Z.dim


def test_centralizer_dimension_formula_small_partitions():
    # dim Z(J_lambda) = sum_{i,j} min(lambda_i, lambda_j)
    for field in (F2, F3):
        for n in range(1, 7):
            for lam in partitions(n):
                J = nilpotent_jordan(field, lam)
                expected = sum(min(a, b) for a in lam for b in lam)
                assert centralizer_basis(J).dim == expected


def test_golden_4x4_centralizer_dimension():
    assert centralizer_basis(GOLD_4_N).dim == 6  # sum of min over (3,1)


def test_unit_elements_trivial_case():
    Z = centralizer_basis(Matrix(F2, [[0]]))
    units = list(unit_elements(Z))
    assert units == [Matrix.identity(F2, 1)]


def test_unit_elements_of_golden_nilpotent():
    Z = centralizer_basis(GOLD_4_N)
    scanned = 2**Z.dim
    assert scanned == 64
    units = list(unit_elements(Z))
    # regression value: units are the elements invertible mod the radical
    assert len(units) == 16
    seen = set(units)
    assert len(seen) == len(units)
    assert all(rank(B) == 4 for B in units)


def test_unit_elements_in_coordinate_order():
    # the walk over coordinates yields what filtering every combination does
    Z = centralizer_basis(GOLD_4_N)
    elems = tuple(F2.elements())
    expected = [
        B for B in (Z.combination(c) for c in product(elems, repeat=Z.dim)) if rank(B) == 4
    ]
    assert list(unit_elements(Z)) == expected
    Z3 = centralizer_basis(nilpotent_jordan(F3, (2, 1)))
    elems = tuple(F3.elements())
    expected = [
        B for B in (Z3.combination(c) for c in product(elems, repeat=Z3.dim)) if rank(B) == 3
    ]
    assert list(unit_elements(Z3)) == expected


def unit_walk_span(Z, stop=None):
    """Span of the units of Z, flattened, by the definition: one walk over
    ``unit_elements``, cut short once the span has dimension ``stop``."""
    field, m = Z.matrix.field, Z.matrix.nrows
    found = span((), field, m * m)
    for B in unit_elements(Z):
        v = [e for row in B.rows for e in row]
        if not found.member(v):
            found = found.sum(span([v], field, m * m))
            if found.dim == stop:
                break
    return found


def test_closed_form_unit_span_matches_unit_walk():
    # Z/J(Z) is the product of M_m(K) over the block sizes, m the multiplicity.
    # Over GF(2) a factor with m = 1 is GF(2), whose only unit is 1, so the
    # units span dim Z - max(u - 1, 0), u the number of sizes with m = 1;
    # the closed form spans what the units do.  Over GF(3) they span all of Z.
    for n in range(1, 14):
        for lam in partitions(n):
            dim_z = sum(min(a, b) for a in lam for b in lam)
            if dim_z > 13:
                continue
            u = sum(1 for t in set(lam) if lam.count(t) == 1)
            ks = analyze_operator(nilpotent_jordan(F2, lam)).components[0].kstruct
            basis = _unit_span(ks, seed=0)
            flat = span([[e for row in B.rows for e in row] for B in basis], F2, n * n)
            assert flat.dim == len(basis) == dim_z - max(u - 1, 0), lam
            assert flat == unit_walk_span(centralizer_basis(ks.N)), lam
            if dim_z <= 9:
                Z3 = centralizer_basis(nilpotent_jordan(F3, lam))
                assert unit_walk_span(Z3, stop=dim_z).dim == dim_z, lam


def test_characteristic_beyond_cap_is_undecided():
    # characteristic membership is decided by the oracle alone; <e2+e4, e3> is
    # its one characteristic, non-hyperinvariant candidate for GOLD_4_N, with
    # 32 centralizer elements outside its stabilizer
    odd = span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)
    with pytest.raises(UndecidedError) as exc:
        classify_all(GOLD_4_N, cap_units=31)
    assert str(exc.value) == ("undecided at this scale: 32 centralizer elements outside the "
                              "stabilizer of a candidate exceed cap 31")
    assert odd in classify_all(GOLD_4_N, cap_units=32).characteristic
    # <e1> is invariant under the zero map but not under all of Z = M_2(Q)
    with pytest.raises(InfiniteFieldError):
        classify_all(Matrix.zeros(QQ, 2))


def test_unit_elements_rejects_infinite_field():
    Z = centralizer_basis(GOLD_RAT_A)
    with pytest.raises(InfiniteFieldError, match="infinite field"):
        next(unit_elements(Z))


def test_hyperinvariant_examples():
    W = span(e_rows(4, [3, 4], QQ), QQ, 4)
    assert W in hinv_lattice(GOLD_RAT_A).members
    assert all(W.is_invariant_under(B) for B in centralizer_basis(GOLD_RAT_A).elements)
    rep = classify_all(GOLD_4_N)
    assert full_space(F2, 4) in rep.hyperinvariant
    odd = span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)  # <e2+e4, e3>
    assert odd not in rep.hyperinvariant


def test_characteristic_examples():
    odd = span([(0, 1, 0, 1), (0, 0, 1, 0)], F2, 4)
    rep = classify_all(GOLD_4_N)
    assert odd in rep.characteristic
    # same shape over GF(3): no longer characteristic
    N3 = nilpotent_jordan(F3, (3, 1))
    odd3 = span([(0, 1, 0, 1), (0, 0, 1, 0)], F3, 4)
    assert odd3 not in classify_all(N3).characteristic
    assert zero_subspace(F2, 4) in rep.characteristic
    assert full_space(F2, 4) in rep.characteristic


def test_hinv_subset_chinv_subset_inv_small():
    from invlat.matrix import mat_vec

    N = GOLD_4_N
    rep = classify_all(N)
    hinv, chinv = set(rep.hyperinvariant), set(rep.characteristic)
    # the invariant class, by definition over all 67 subspaces of GF(2)^4
    inv = {W for W in enumerate_all_subspaces(F2, 4)
           if all(W.member(mat_vec(N, r)) for r in W.basis)}
    assert set(rep.invariant) == inv
    assert hinv <= chinv <= inv
    assert len(hinv) == 6 and len(chinv) == 7


def test_centralizer_unchanged_by_adding_semisimple_constraint():
    # on a primary instance, {AX=XA} already implies {SX=XS}
    from invlat.decomposition import jordan_chevalley
    from invlat.poly import parse_poly
    from fixtures import GOLD_8_A

    p = parse_poly("x^2+x+1", F2)
    dec = jordan_chevalley(GOLD_8_A, p, 3)
    Z = centralizer_basis(GOLD_8_A)
    assert Z.dim == 12
    for B in Z.elements:
        assert B @ dec.S == dec.S @ B


def test_centralizer_dimension_adds_over_primary_components():
    # Z(A) is the direct sum of the Z(A_i): what lets hinv solve per component
    P = Matrix(QQ, [[1 if j <= i else 0 for j in range(7)] for i in range(7)])
    blocks = [companion(parse_poly("x^2+1", QQ)), Matrix(QQ, [[1, 0], [1, 1]]),
              companion(parse_poly("x^3-2", QQ))]
    hint = [(parse_poly(p, QQ), k) for p, k in (("x^2+1", 1), ("x-1", 2), ("x^3-2", 1))]
    cases = [(P @ block_diag(QQ, blocks) @ inverse(P), hint)]
    for field, n, seed in ((F2, 5, 1), (F2, 4, 10), (F3, 4, 1), (F3, 5, 10),
                           (gf_build(2, 2), 4, 13), (gf_build(2, 2), 3, 17)):
        cases.append((random_instance(field, n, "general", seed).matrix, None))
    for A, hint in cases:
        comps = analyze_operator(A, hint=hint).components
        assert len(comps) >= 2
        local = sum(centralizer_basis(ca.component.restriction).dim for ca in comps)
        assert local == centralizer_basis(A).dim
