"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of slots, and every slot fixes one matrix A0:
its field, its dimension and its similarity class.  Over a finite field A0
is a ``random_instance`` drawn with a seed that belongs to the slot; over Q
it is a block diagonal of companion matrices.  The run's ``--seed`` picks
only conjugators P, and the program sees M = P A0 P^-1: CONJUGATES of them
per slot, one per pass, so that a run's latency percentiles average over
several P instead of resting on one.  A slot costs about the same under
every seed, and the lattices of M map back under P^-1 onto those of A0,
which is what lets one recorded digest per slot check the output under any
seed.

Shapes left out on purpose:

* factors of degree >= 2 over GF(p^k) with k > 1: the program does not
  support them yet (exit 2);
* the GF(2) witness shapes (3,2,1), (5,2) and (5,3): at the first commit of
  this benchmark chinv takes 55 s, 41 s and over 14 min on them.  They join
  in a follow-up benchmark change once the join-closure engine lands;
* instances whose single call takes seconds (GOLD_8 under ``verify``, n >= 9
  under ``analyze``): a run times at least 100 calls, so that the 90th
  latency percentile has ten samples beyond it, in well under a minute.
"""

import json
import os
from random import Random

from invlat import (
    QQ,
    Matrix,
    block_diag,
    companion,
    gf_build,
    inverse,
    parse_poly,
    random_instance,
    rank,
)
from invlat.jsonio import field_to_json, matrix_to_json


def _q(*factors, hint=None):
    """Companion blocks over Q.  ``hint`` is the factorization passed to
    --hint: True when every block's polynomial is irreducible and occurs once,
    else a tuple of (factor, multiplicity) pairs."""
    if hint is True:
        hint = tuple((f, 1) for f in factors)
    return {"field": "Q", "kind": "companions", "factors": factors, "hint": hint}


def _gen(p, n, base):
    return {"field": (p, 1), "kind": "general", "n": n, "base": base}


def _nil(partition, base):
    return {"field": (2, 1), "kind": "nilpotent", "partition": partition, "base": base}


def _primary(factor, blocks, base, p=2, k=1):
    return {"field": (p, k), "kind": "primary", "factor": factor, "blocks": blocks,
            "base": base}


def _sum(*parts):
    return {"field": parts[0]["field"], "kind": "sum", "parts": parts}


def _gf2_companions(*factors):
    return {"field": (2, 1), "kind": "companions", "factors": factors}


GOLD_4 = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))
CONJUGATES = 4

# Every list has 25 slots: 0.5 * 25 and 0.9 * 25 are not whole numbers, so
# the median and the 90th percentile fall inside one slot's group of calls
# rather than between two slots of different cost.
WORKLOADS = {
    "shoda_scan": {
        "command": "shoda",
        "slots": [
            _q("x^2+1", "x^3-2", "x^2-x+1", hint=True),
            _q("x^2+1", "x^3-2", "x^2-x+1", "x-3", hint=True),
            _q("x^2+1", "x^3-2", "x^2+x+3", "x^3+x+1", hint=True),
            _q("x^2-2", "x^3+x+1", "x^2+x+1", hint=True),
            _q("x^3-3", "x^2+3", "x-1", "x+2", hint=True),
            _q("x^3+2x+1", "x^2+5", "x^2-3", "x", hint=True),
            _q("x^3-x-1", "x^3-5", "x^2+2", hint=True),
            *[_gen(2, 8, b) for b in range(4)],
            *[_gen(3, 7, b) for b in range(4)],
            *[_gen(5, 7, b) for b in range(4)],
            _primary("x+[0,1]", (3, 2, 1), 0, k=2),
            _primary("x+[0,1]", (4, 2, 1), 1, k=2),
            _primary("x+[1,1]", (5, 1), 2, k=2),
            _primary("x+[0,1]", (3, 2, 1, 1), 0, p=3, k=2),
            _primary("x+[0,1]", (3, 3), 1, p=3, k=2),
            _primary("x+[1,1]", (5, 2), 2, p=3, k=2),
        ],
    },
    "analyze_rational": {
        "command": "analyze",
        "slots": [
            _q("x^4+2x^2+1"),
            _q("x^4+1", hint=True),
            _q("x^4+2x^2+1", "x-1"),
            _q("x^2+1", "x^3-2", hint=True),
            _q("x^3-2", "x^3+x+1", hint=True),
            _q("x^4-4x^2+4", "x+1"),
            _q("x^2+x+1", "x^2-2x+1"),
            _q("x^2+1", "x^2-2", "x-1", hint=True),
            _q("x^3-3", "x^2+x+1", hint=True),
            _q("x^4+x^2+1", hint=(("x^2+x+1", 1), ("x^2-x+1", 1))),
            _q("x^2+3", "x^2-2x+1", "x"),
            _q("x^4-2", hint=True),
            _q("x^2-5", "x^3-x-1", hint=True),
            _q("x^3-2", "x^2-2x+1"),
            _q("x^4+2x^2+1", "x^2-3", hint=(("x^2+1", 2), ("x^2-3", 1))),
            _q("x^4+6x^2+9", "x+2"),
            _q("x^2+x+1", "x^3+2x+1", hint=True),
            _q("x^5-2", hint=True),
            _q("x^2+2", "x^2+5", "x+1", hint=True),
            _q("x^3-x-1", "x-2", "x+2"),
            _q("x^4-10x^2+1", hint=True),
            _q("x^2+1", "x^2-2x+1", "x+3"),
            _q("x^3+x+1", "x^2+1", hint=True),
            _q("x^2-3", "x^2+x+1", "x-5", hint=True),
            _q("x^4+4", hint=(("x^2+2x+2", 1), ("x^2-2x+2", 1))),
        ],
    },
    "analyze_finite": {
        "command": "analyze",
        "slots": [
            *[_gen(3, 4, b) for b in range(6)],
            *[_gen(3, 5, b) for b in range(3)],
            *[_gen(5, 4, b) for b in range(6)],
            *[_gen(5, 5, b) for b in range(2)],
            _primary("x+[0,1]", (2, 1), 0, k=2),
            _primary("x+[1,1]", (3,), 1, k=2),
            _primary("x+[0,1]", (3, 1), 2, k=2),
            _primary("x+[1,1]", (4,), 3, k=2),
            _primary("x+[0,1]", (2,), 4, k=2),
            _primary("x+[0,1]", (2, 1), 0, p=3, k=2),
            _primary("x+[1,1]", (3,), 1, p=3, k=2),
            _primary("x+[1,2]", (1, 1), 2, p=3, k=2),
        ],
    },
    "chinv_gf2": {
        "command": "lattice-chinv",
        "slots": [
            *[_nil((3, 1), b) for b in range(6)],
            *[_primary("x+1", (3, 1), b) for b in range(6)],
            _nil((4, 1), 0),
            *[_sum(_nil((3, 1), b), _gf2_companions("x^2+x+1")) for b in range(3)],
            *[_sum(_nil((3, 1), b), _gf2_companions("x+1")) for b in range(3, 6)],
            *[_sum(_primary("x+1", (3, 1), b), _gf2_companions("x")) for b in range(3)],
            *[_sum(_primary("x+1", (3, 1), b), _gf2_companions("x^2+x+1")) for b in range(3, 6)],
        ],
    },
    "verify_gf2": {
        "command": "verify",
        "slots": [
            {"field": (2, 1), "kind": "rows", "name": "GOLD_4", "rows": GOLD_4},
            *[_gen(2, 4, b) for b in range(12)],
            *[_nil(part, b) for b, part in enumerate([(2, 2), (3, 1), (4,)])],
            *[_primary("x+1", blocks, b) for b, blocks in enumerate([(2, 2), (3, 1)])],
            # Cyclic n = 6: few invariant subspaces, so the oracle's walk over
            # all 2825 subspaces of GF(2)^6 is most of the call.
            _gf2_companions("x^6+x+1"),
            _gf2_companions("x^3+x+1", "x^3+x^2+1"),
            _gf2_companions("x^2+x+1", "x^4+x+1"),
            _gf2_companions("x+1", "x^5+x^2+1"),
            _gf2_companions("x^4+x^3+1", "x^2+x+1"),
            _gf2_companions("x^4+x^2+1", "x"),
            _gf2_companions("x^2", "x^4+x+1"),
        ],
    },
}


def field_of(spec):
    if spec == "Q":
        return QQ
    p, k = spec
    return gf_build(p, k)


def slot_name(slot):
    """Short stable name of a slot, used as its key in the recorded digests."""
    kind = slot["kind"]
    field = "Q" if slot["field"] == "Q" else "GF%d" % (slot["field"][0] ** slot["field"][1])
    if kind == "companions":
        return f"{field}:companions:" + ",".join(slot["factors"])
    if kind == "general":
        return f"{field}:general:n{slot['n']}:b{slot['base']}"
    if kind == "nilpotent":
        return f"{field}:nilpotent:{slot['partition']}:b{slot['base']}"
    if kind == "primary":
        return f"{field}:primary:{slot['factor']}:{slot['blocks']}:b{slot['base']}"
    if kind == "sum":
        return "+".join(slot_name(p) for p in slot["parts"])
    return f"{field}:{slot['name']}"


def base_matrix(slot):
    """A0 of a slot.  Depends on the slot only, never on the run's seed."""
    F = field_of(slot["field"])
    kind = slot["kind"]
    if kind == "companions":
        return block_diag(F, [companion(parse_poly(f, F)) for f in slot["factors"]])
    if kind == "general":
        return random_instance(F, slot["n"], "general", slot["base"]).matrix
    if kind == "nilpotent":
        part = slot["partition"]
        return random_instance(
            F, sum(part), "nilpotent-partition", slot["base"], partition=part
        ).matrix
    if kind == "primary":
        f = parse_poly(slot["factor"], F)
        n = f.degree * sum(slot["blocks"])
        return random_instance(
            F, n, "companion-primary", slot["base"], factor_poly=f, blocks=slot["blocks"]
        ).matrix
    if kind == "sum":
        return block_diag(F, [base_matrix(p) for p in slot["parts"]])
    if kind == "rows":
        return Matrix(F, [list(r) for r in slot["rows"]])
    raise ValueError(f"unknown slot kind {kind!r}")


def conjugator(field, n, rng):
    """Seeded invertible P.  Over Q it is unit lower times unit upper
    triangular with entries in {-1, 0, 1}, so P^-1 has integer entries too."""
    if field == QQ:
        L = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0) for j in range(n)]
             for i in range(n)]
        U = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
             for i in range(n)]
        return Matrix(QQ, L) @ Matrix(QQ, U)
    q = field.order
    while True:
        P = Matrix(field, [[field.element_from_index(rng.randrange(q)) for _ in range(n)]
                           for _ in range(n)])
        if rank(P) == n:
            return P


def generate(workload, seed, directory, count=None):
    """Write the inputs of one run to ``directory`` and return the manifest.

    The instance list holds CONJUGATES passes over the slots, each pass with
    its own conjugators.  ``count`` keeps only the first slots (the
    self-test uses it)."""
    spec = WORKLOADS[workload]
    os.makedirs(os.path.join(directory, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(directory, "outputs"), exist_ok=True)
    slots = spec["slots"][:count]
    bases = [base_matrix(slot) for slot in slots]
    instances = []
    for c in range(CONJUGATES):
        for i, (slot, A0) in enumerate(zip(slots, bases)):
            rng = Random(f"{workload}/{seed}/{i}/{c}")
            P = conjugator(A0.field, A0.nrows, rng)
            Pinv = inverse(P)
            M = P @ A0 @ Pinv
            name = f"{c}-{i:02d}.json"
            path = os.path.join(directory, "inputs", name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(matrix_to_json(M), fh)
            out = os.path.join(directory, "outputs", name)
            argv = ["--input", path, "--command", spec["command"], "--out", out]
            if slot.get("hint"):
                argv += ["--hint", json.dumps([list(h) for h in slot["hint"]])]
            instances.append({
                "slot": slot_name(slot),
                "argv": argv,
                "out": out,
                "field": field_to_json(A0.field),
                "p_inverse": matrix_to_json(Pinv)["rows"],
            })
    manifest = {"workload": workload, "seed": seed, "command": spec["command"],
                "pass_size": len(slots), "instances": instances}
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
