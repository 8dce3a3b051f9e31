"""Semantic digest of one CLI report, in the frame of the slot's A0.

The benchmark checks the program's output with its own arithmetic, so the
check does not lean on the code it measures.  Lattice members of M = P A0
P^-1 are P times members of A0; mapping each basis through P^-1 and taking
the reduced row echelon form gives labels that do not depend on the seed.

The digest covers the minimal polynomial, the factors, the Segre data, the
sorted member labels and flags of every lattice, and the ``finite`` and
``complete`` fields.  It leaves out provenance wording, notes, S, N and
component bases.
"""

import hashlib
import json
from fractions import Fraction


class Field:
    """Q or GF(p^k) from the program's field JSON.

    Elements are Fraction (Q), int (GF(p)) or a k-tuple of ints in ascending
    degree modulo the field's monic modulus (GF(p^k))."""

    def __init__(self, obj):
        self.rational = obj["kind"] == "rationals"
        if self.rational:
            self.zero = Fraction(0)
            return
        self.p = int(obj["p"])
        self.k = int(obj.get("k", 1))
        self.modulus = tuple(int(c) for c in obj["modulus"])
        self.zero = 0 if self.k == 1 else (0,) * self.k
        self.one = 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def parse(self, v):
        if self.rational:
            return Fraction(v)
        if self.k == 1:
            return int(v) % self.p
        return tuple(int(c) % self.p for c in v)

    def is_zero(self, a):
        return not a if (self.rational or self.k == 1) else not any(a)

    def add(self, a, b):
        if self.rational:
            return a + b
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.rational:
            return a - b
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if self.rational:
            return a * b
        p = self.p
        if self.k == 1:
            return a * b % p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                for i, m in enumerate(self.modulus):
                    prod[d - self.k + i] = (prod[d - self.k + i] - c * m) % p
        return tuple(prod[: self.k])

    def inv(self, a):
        if self.rational:
            return 1 / a
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        r, e = self.one, self.p ** self.k - 2
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def text(self, a):
        return str(a) if (self.rational or self.k == 1) else "[" + ",".join(map(str, a)) + "]"


def canonical(field, vectors):
    """Reduced row echelon basis of the span, as a tuple of text rows."""
    rows = [list(v) for v in vectors]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if not field.is_zero(r[col])), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        s = field.inv(pivot[col])
        pivot = [field.mul(s, x) for x in pivot]
        for r in rows + out:
            c = r[col]
            if not field.is_zero(c):
                r[:] = [field.sub(x, field.mul(c, y)) for x, y in zip(r, pivot)]
        out.append(pivot)
    return tuple(" ".join(field.text(x) for x in r) for r in out)


def back_map(field, p_inverse, basis):
    """P^-1 applied to every basis vector."""
    pinv = [[field.parse(x) for x in row] for row in p_inverse]
    out = []
    for row in basis:
        w = [field.parse(x) for x in row]
        v = []
        for prow in pinv:
            acc = field.zero
            for a, b in zip(prow, w):
                acc = field.add(acc, field.mul(a, b))
            v.append(acc)
        out.append(v)
    return out


def _lattice(field, p_inverse, rep):
    members = sorted(
        [list(canonical(field, back_map(field, p_inverse, m["basis"]))), m.get("flag")]
        for m in rep["members"]
    )
    return {
        "finite": rep["finite"],
        "complete": rep["complete"],
        "members": members,
        "segre": [[c["factor"], list(c["segre_k"]), list(c["segre_f"])]
                  for c in rep["components"]],
    }


def summary(command, report, field_json, p_inverse):
    """The seed-independent content of a report."""
    field = Field(field_json)
    if command == "shoda":
        keys = ("factor", "segre_k", "witness", "field_k_is_gf2", "deg_p_is_1",
                "characteristic_non_hyperinvariant_possible")
        return {
            "minimal_polynomial": report["minimal_polynomial"],
            "components": [{k: c[k] for k in keys} for c in report["components"]],
        }
    if command == "analyze":
        keys = ("factor", "multiplicity", "dim", "s", "segre_k", "segre_f", "shoda")
        return {
            "minimal_polynomial": report["minimal_polynomial"],
            "factors": report["factorization"]["factors"],
            "components": [{k: c[k] for k in keys} for c in report["components"]],
            "lattices": {kind: _lattice(field, p_inverse, rep)
                         for kind, rep in report["lattices"].items()},
        }
    if command.startswith("lattice-"):
        return {"report": _lattice(field, p_inverse, report["report"])}
    if command == "verify":
        oracle = report["oracle"]
        return {
            "match": report["match"],
            "engine_counts": report["engine_counts"],
            "oracle_counts": oracle["counts"],
            "centralizer_dim": oracle["centralizer_dim"],
            "findings": oracle["findings"],
        }
    raise ValueError(f"no digest for command {command!r}")


def digest(command, report, field_json, p_inverse):
    text = json.dumps(summary(command, report, field_json, p_inverse), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def lattice_reports(command, report):
    """The lattice reports a CLI report holds, for the completeness count."""
    if command == "analyze":
        return list(report["lattices"].values())
    if command.startswith("lattice-"):
        return [report["report"]]
    return []
