"""Ground-truth classifier by exhaustive enumeration.

``classify_all`` accounts for every subspace of F^n and sorts it into the
invariant / hyperinvariant / characteristic classes by direct definition
checking: invariance is the cheap first gate, the centralizer basis
decides hyperinvariance, and unit checks run only on the invariant
non-hyperinvariant survivors.

Characteristic membership of such a survivor W is decided exactly.  The
elements of Z(A) carrying W into itself form a linear subspace U_W, and
the units violating W are precisely the units of Z(A) outside U_W; so

* with a small centralizer, all units are enumerated once and candidates
  are pruned against each (tier 1; survivors of the full scan are
  certified);
* otherwise Z(A) \\ U_W is searched for a unit: sampling seeded from the
  seed and W's ``sort_key`` (so the units tried do not depend on the order
  of the candidates) finds a violator quickly when one exists, and an
  exhaustive scan of the coordinate tuples outside U_W certifies the rest
  (tier 2; scans beyond the unit cap raise an explicit "undecided" error
  instead of guessing).

The invariance gate is ``enumerate_all_subspaces`` filtered by A, on the
encoded rows of the field's row kernel, for every finite field: it walks
every RREF shape, skips the row choices whose spin under A leaves the
pivot set (no A-invariant subspace holds them) and checks A on each
candidate left; all other row reduction runs in that kernel as well.
Closure of each class under sum and intersection is certified by the
subspace layer's ``build_lattice``, with one sum per pair of members, once
per distinct member list (classes that coincide share it); a class that
fails gets a finding naming the missing zero, full space, sum or meet.
"""

import time
from dataclasses import dataclass
from functools import cache
from itertools import product
from random import Random

from .centralizer import DEFAULT_UNIT_CAP, centralizer_basis, unit_elements
from .errors import ClosureError, InfiniteFieldError, UndecidedError
from .matrix import Matrix, inverse, mat_vec, minimal_polynomial, rank
from .poly import Poly
from .subspace import (
    DEFAULT_SUBSPACE_CAP,
    build_lattice,
    enumerate_all_subspaces,
    kernel_basis,
    subspace_count,
)

__all__ = [
    "OracleReport",
    "classify_all",
    "RandomInstance",
    "random_instance",
]

_TIER1_CAP_GF2 = 1 << 16
_TIER1_CAP_OTHER = 10_000
_SAMPLE_TRIES = 2_000
_CLOSURE_PAIR_CAP = 300_000


@dataclass(frozen=True)
class OracleReport:
    matrix: Matrix
    total_subspaces: int
    invariant: tuple
    hyperinvariant: tuple
    characteristic: tuple
    centralizer_dim: int
    unit_mode: str
    units_tested: int
    findings: tuple
    elapsed: float  # wall time, metadata only; never serialized

    def counts(self):
        return {
            "total": self.total_subspaces,
            "invariant": len(self.invariant),
            "hyperinvariant": len(self.hyperinvariant),
            "characteristic": len(self.characteristic),
        }


def _stabilizer_coords(Z, W):
    """U_W = {x in F^d : (sum x_t Z_t) W <= W} as a subspace of F^d."""
    field = Z.matrix.field
    n = Z.matrix.nrows
    rows = []
    for w in W.basis:
        residues = [W.reduce(mat_vec(B, w)) for B in Z.elements]
        for coord in range(n):
            rows.append(tuple(res[coord] for res in residues))
    M = Matrix(field, rows)
    return kernel_basis(M)


def _classify_characteristic(A, Z, candidates, cap_units, seed):
    """Subset of (invariant, non-hyperinvariant) candidates that are
    characteristic, plus scan metadata."""
    field = A.field
    d = Z.dim
    q = field.order
    tier1_cap = _TIER1_CAP_GF2 if q == 2 else _TIER1_CAP_OTHER
    if not candidates:
        return set(), ("none", 0)
    if q**d <= min(tier1_cap, cap_units):
        alive = set(candidates)
        tested = 0
        for B in unit_elements(Z, cap=cap_units):
            tested += 1
            alive = {W for W in alive if W.is_invariant_under(B)}
            if not alive:
                break
        return alive, ("full-enumeration", tested)
    # tier 2: per-candidate stabilizer subalgebra
    certified = set()
    tested = 0
    elems = tuple(field.elements())
    for W in candidates:
        UW = _stabilizer_coords(Z, W)
        if UW.dim == d:
            certified.add(W)  # all of Z stabilizes W
            continue
        rng = Random(f"{seed}:{W.sort_key()}")
        draws = (tuple(elems[rng.randrange(q)] for _ in range(d)) for _ in range(_SAMPLE_TRIES))
        found, count = _unit_outside(Z, UW, draws)
        tested += count
        if found:
            continue
        # exhaustive scan of Z \ U_W (every possible violator lives there)
        outside = q**d - q**UW.dim
        if outside > cap_units:
            raise UndecidedError(f"undecided at this scale: {outside} centralizer elements "
                                 f"outside the stabilizer of a candidate exceed cap {cap_units}")
        found, count = _unit_outside(Z, UW, product(elems, repeat=d))
        tested += count
        if not found:
            certified.add(W)
    return certified, ("stabilizer-subalgebra", tested)


def _unit_outside(Z, UW, tuples):
    """Whether one of the coordinate tuples outside U_W gives a unit of Z (a
    unit moving W), and how many such tuples were tested; stops at the first."""
    tested = 0
    for coords in tuples:
        if not UW.member(coords):
            tested += 1
            if rank(Z.combination(coords)) == Z.matrix.nrows:
                return True, tested
    return False, tested


def _closure_finding(members, n, field):
    """Certify closure under sum and intersection with ``build_lattice``, one
    sum per pair; the finding on failure, without its class label, else None."""
    if len(members) == subspace_count(n, field.order):
        return None  # the full lattice of subspaces is trivially closed
    pairs = len(members) * (len(members) - 1) // 2
    if pairs > _CLOSURE_PAIR_CAP:
        return f"closure check skipped ({pairs} pairs over budget)"
    try:
        build_lattice(members)
    except ClosureError as err:
        return str(err).split(":")[0]
    return None


def classify_all(A, *, cap_subspaces=DEFAULT_SUBSPACE_CAP, cap_units=DEFAULT_UNIT_CAP, seed=0):
    """Classify every subspace of F^n as invariant / hyperinvariant /
    characteristic with respect to A, by definition checking."""
    field = A.field
    if not field.is_finite:
        raise InfiniteFieldError("infinite field: the oracle needs a finite field")
    if not A.is_square:
        raise ValueError("square matrix required")
    t0 = time.perf_counter()
    n = A.nrows
    invariant = list(enumerate_all_subspaces(field, n, cap_subspaces, [A]))
    Z = centralizer_basis(A)
    hyper = [W for W in invariant if all(W.is_invariant_under(B) for B in Z.elements)]
    hset = set(hyper)
    candidates = [W for W in invariant if W not in hset]
    extra, (mode, tested) = _classify_characteristic(A, Z, candidates, cap_units, seed)
    char = [W for W in invariant if W in hset or W in extra]
    findings = []
    # self-consistency: the three classes nest and are closed
    if not (hset <= set(char) <= set(invariant)):
        findings.append("class nesting violated")
    closure = cache(lambda members: _closure_finding(members, n, field))  # once per list
    for label, members in (("invariant", invariant), ("hyperinvariant", hyper),
                           ("characteristic", char)):
        if finding := closure(tuple(members)):
            findings.append(f"{label}: {finding}")
    key = lambda s: s.sort_key()
    return OracleReport(
        matrix=A,
        total_subspaces=subspace_count(n, field.order),
        invariant=tuple(sorted(invariant, key=key)),
        hyperinvariant=tuple(sorted(hyper, key=key)),
        characteristic=tuple(sorted(char, key=key)),
        centralizer_dim=Z.dim,
        unit_mode=mode,
        units_tested=tested,
        findings=tuple(findings),
        elapsed=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# Seeded instance generators.


@dataclass(frozen=True)
class RandomInstance:
    matrix: Matrix
    style: str
    seed: int
    min_poly: object
    segre: tuple = None
    detail: dict = None


def _jordan_nilpotent(field, partition):
    return _canonical_primary(field, Poly.x(field), partition)  # companion(x) is (0)


def _canonical_primary(field, p, blocks):
    """Canonical p-primary matrix: per block, companion copies with identity
    subdiagonal blocks; block i contributes s*blocks[i] dimensions."""
    from .matrix import block_diag, companion

    s, C, one = p.degree, companion(p).rows, field.one()
    big_blocks = []
    for r_i in blocks:
        rows = [[field.zero()] * (s * r_i) for _ in range(s * r_i)]
        for b, i in product(range(r_i), range(s)):
            rows[b * s + i][b * s : b * s + s] = C[i]
            if b > 0:
                rows[b * s + i][(b - 1) * s + i] = one
        big_blocks.append(Matrix(field, rows))
    return block_diag(field, big_blocks)


def _random_invertible(field, n, rng):
    q = field.order
    while True:
        M = Matrix(field, [[field.element_from_index(rng.randrange(q)) for _ in range(n)]
                           for _ in range(n)])
        if rank(M) == n:
            return M


def _random_partition(n, rng):
    parts = []
    while n:
        p = rng.randrange(1, n + 1)
        parts.append(p)
        n -= p
    return tuple(sorted(parts, reverse=True))


def random_instance(field, n, style, seed, *, partition=None, factor_poly=None, blocks=None):
    """Deterministic test instance of one of three styles.

    ``nilpotent-partition``: nilpotent with the given (or random) Segre
    characteristic, conjugated by a random invertible matrix.
    ``companion-primary``: p-primary matrix built from companion blocks of
    ``factor_poly`` with ``blocks`` giving the multiplicities partition,
    conjugated likewise.  ``general``: a uniformly random matrix.
    """
    if not field.is_finite:
        raise InfiniteFieldError("infinite field: random instances need a finite field")
    rng = Random(seed)
    if style == "nilpotent-partition":
        part = tuple(partition) if partition else _random_partition(n, rng)
        if sum(part) != n:
            raise ValueError("partition does not sum to the dimension")
        J = _jordan_nilpotent(field, part)
        P = _random_invertible(field, n, rng)
        M = P @ J @ inverse(P)
        return RandomInstance(M, style, seed, minimal_polynomial(M), part, {"partition": part})
    if style == "companion-primary":
        if factor_poly is None:
            raise ValueError("companion-primary needs factor_poly")
        s = factor_poly.degree
        if blocks is None:
            if n % s:
                raise ValueError("dimension not a multiple of deg(factor)")
            blocks = _random_partition(n // s, rng)
        blocks = tuple(sorted(blocks, reverse=True))
        if s * sum(blocks) != n:
            raise ValueError("blocks do not fill the dimension")
        A0 = _canonical_primary(field, factor_poly, blocks)
        P = _random_invertible(field, n, rng)
        M = P @ A0 @ inverse(P)
        detail = {"factor": factor_poly, "blocks": blocks}
        return RandomInstance(M, style, seed, minimal_polynomial(M), blocks, detail)
    if style == "general":
        q = field.order
        M = Matrix(field, [[field.element_from_index(rng.randrange(q)) for _ in range(n)]
                           for _ in range(n)])
        return RandomInstance(M, style, seed, minimal_polynomial(M))
    raise ValueError(f"unknown style {style!r}")
