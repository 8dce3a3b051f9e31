"""JSON encoding and decoding for fields, matrices, subspaces and reports.

Wire formats:

* field: ``{"kind": "rationals"}`` or ``{"kind": "finite", "p": 2,
  "k": 2, "modulus": [1, 1, 1]}`` (modulus optional on input; the
  deterministic default is chosen when absent); a component's field
  K = Q[t]/(m) is written, never read, as ``{"kind": "extension",
  "modulus": [...]}`` with the coefficients of m as strings;
* matrix: ``{"field": {...}, "rows": [[...], ...]}`` with entries being
  integers (GF(p) residues), coefficient lists (GF(p^k)), or integers /
  "a/b" strings for the rationals;
* subspace: list of basis rows;
* lattice report / oracle report: plain dicts assembled here, stable
  under ``json.dumps(sort_keys=True)``; ``dumps`` writes them as that
  does with ``indent=2``.
"""

from json.encoder import encode_basestring_ascii as _quote

from .errors import ClosureError
from .fields import QQ, ExtensionField, FiniteField
from .matrix import Matrix
from .poly import _RATIONAL, parse_poly
from .subspace import build_lattice, span, subspace_label

__all__ = [
    "field_to_json",
    "field_from_json",
    "entry_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "lattice_to_json",
    "lattice_from_json",
    "lattice_report_to_json",
    "oracle_report_to_json",
    "dumps",
]


def dumps(obj):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, written in
    one pass.  ``obj`` holds dicts with str keys, lists, tuples, strs, ints,
    bools and None; anything else raises TypeError."""
    return _dumps(obj, "\n")


def _dumps(obj, indent):  # recursing by its private name, so a rebound dumps sees one call
    """``dumps`` at the depth whose lines open with ``indent``, a newline and spaces."""
    t = type(obj)  # exact types first; a subclass is written as its base, below
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if t is dict:
        if not obj:
            return "{}"
        items = [f"{inner}{_quote(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj)]
        return "{" + ",".join(items) + indent + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        return "[" + ",".join([inner + _dumps(v, inner) for v in obj]) + indent + "]"
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, (str, int)):
        return _quote(obj) if isinstance(obj, str) else int.__repr__(obj)
    if isinstance(obj, (dict, list, tuple)):
        return _dumps(dict(obj) if isinstance(obj, dict) else list(obj), indent)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def field_to_json(field):
    if field == QQ:
        return {"kind": "rationals"}
    if isinstance(field, FiniteField):
        return {"kind": "finite", "p": field.p, "k": field.k, "modulus": list(field.modulus)}
    if isinstance(field, ExtensionField):
        return {"kind": "extension", "modulus": [str(c) for c in field.modulus]}
    raise TypeError(f"cannot serialize field {field!r}")


def _scalar(x, kinds):
    """x is a JSON value of one of ``kinds`` (a JSON bool is not an int)."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _scalars(v, kinds):
    return isinstance(v, list) and all(_scalar(x, kinds) for x in v)


def _expect(ok, what, v):
    """Validation at the JSON boundary: ValueError naming the bad value."""
    if not ok:
        raise ValueError(f"{what}, not {v!r}")


def field_from_json(obj):
    _expect(isinstance(obj, dict), "a field must be a JSON object", obj)
    kind = obj.get("kind")
    if kind == "rationals":
        return QQ
    if kind == "finite":
        p, k, modulus = obj.get("p"), obj.get("k", 1), obj.get("modulus")
        _expect(_scalar(p, int) and _scalar(k, int), "p and k must be integers", (p, k))
        _expect(modulus is None or _scalars(modulus, int), "modulus must list integers", modulus)
        return FiniteField(p, k, modulus=tuple(modulus) if modulus else None)
    raise ValueError(f"unknown field kind {kind!r}")


def entry_to_json(field, e):
    if field == QQ:
        return e.numerator if e.denominator == 1 else str(e)
    if isinstance(field, FiniteField):
        return e.c[0] if field.k == 1 else list(e.c)
    raise TypeError(f"cannot serialize entries of {field!r}")


def _rational_text(x):
    return not isinstance(x, str) or _RATIONAL.fullmatch(x) is not None


def _entry_from_json(field, v):
    """Decode one entry: over GF(p^k) an int or a list of ints, over Q an int
    or an "a/b" string with b nonzero; else ValueError."""
    kinds = (int,) if field.is_finite else (int, str)
    if (_scalar(v, kinds) and _rational_text(v)) or (field.is_finite and _scalars(v, kinds)):
        try:
            return field.element(v)
        except ZeroDivisionError:
            raise ValueError(f"invalid entry {v!r} for {field!r}: zero denominator") from None
    raise ValueError(f"invalid entry {v!r} for {field!r}")


def _rows_from_json(rows, field):
    _expect(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
            "rows must be a list of lists", rows)
    return [[_entry_from_json(field, v) for v in row] for row in rows]


def matrix_to_json(M):
    return {
        "field": field_to_json(M.field),
        "rows": [[entry_to_json(M.field, e) for e in row] for row in M.rows],
    }


def matrix_from_json(obj, field=None):
    _expect(isinstance(obj, dict), "a matrix must be a JSON object", obj)
    if field is None:
        if "field" not in obj:
            raise ValueError("matrix JSON lacks a field and none was supplied")
        field = field_from_json(obj["field"])
    return Matrix(field, _rows_from_json(obj.get("rows"), field))


def subspace_to_json(W):
    return [[entry_to_json(W.field, e) for e in row] for row in W.basis]


def subspace_from_json(rows, field, n):
    return span(_rows_from_json(rows, field), field, n)


def _members_to_json(members, flags):
    out = []
    for i, w in enumerate(members):
        rec = {"dim": w.dim, "basis": subspace_to_json(w), "label": subspace_label(w)}
        if flags is not None:
            rec["flag"] = flags[i]
        out.append(rec)
    return out


def lattice_to_json(lat, field, n, records=None):
    """``records``, when given, are the member records of ``lat`` already made."""
    return {
        "field": field_to_json(field),
        "ambient_dim": n,
        "members": _members_to_json(lat.members, lat.flags) if records is None else records,
        "hasse_edges": [list(e) for e in lat.covers],
    }


def lattice_from_json(obj):
    _expect(isinstance(obj, dict), "a lattice must be a JSON object", obj)
    field = field_from_json(obj.get("field"))
    n, recs = obj.get("ambient_dim"), obj.get("members")
    _expect(_scalar(n, int) and n > 0, '"ambient_dim" must be a positive integer', n)
    _expect(isinstance(recs, list) and all(isinstance(rec, dict) for rec in recs),
            '"members" must be a list of objects', recs)
    members = [subspace_from_json(rec.get("basis"), field, n) for rec in recs]
    flags = None
    if any("flag" in rec for rec in recs):
        flags = {w: rec.get("flag", "") for w, rec in zip(members, recs)}
    try:
        return build_lattice(members, flags=flags)
    except ClosureError as exc:
        raise ValueError(f"the members do not form a lattice: {exc}") from exc


def lattice_report_to_json(report, field, n):
    """The report's member records are made once, and reused for its lattice
    when that holds the same members with the same flags."""
    records, lattice = _members_to_json(report.members, report.member_flags), None
    if lat := report.lattice:
        own = lat.members == report.members and lat.flags == report.member_flags
        lattice = lattice_to_json(lat, field, n, records if own else None)
    return {
        "kind": report.kind,
        "finite": report.finite,
        "complete": report.complete,
        "members": records,
        "lattice": lattice,
        "member_count": len(report.members),
        "components": [dict(m) for m in report.components],
        "provenance": list(report.provenance),
        "notes": list(report.notes),
    }


def oracle_report_to_json(rep):
    field = rep.matrix.field
    return {
        "matrix": matrix_to_json(rep.matrix),
        "counts": rep.counts(),
        "invariant": [subspace_label(w) for w in rep.invariant],
        "hyperinvariant": [subspace_to_json(w) for w in rep.hyperinvariant],
        "characteristic": [subspace_to_json(w) for w in rep.characteristic],
        "centralizer_dim": rep.centralizer_dim,
        "unit_mode": rep.unit_mode,
        "units_tested": rep.units_tested,
        "findings": list(rep.findings),
    }


def hint_from_json(obj, field, max_degree=None):
    """[["x^2+1", 2], ...] -> [(Poly, int), ...]; exponents above ``max_degree``
    (the matrix dimension bounds them) are refused before a polynomial is built."""
    _expect(isinstance(obj, list) and all(
        isinstance(x, list) and len(x) == 2 and _scalar(x[0], str) and _scalar(x[1], int)
        for x in obj
    ), 'a hint must be a list of ["polynomial", multiplicity] pairs', obj)
    for _, mult in obj:
        _expect(max_degree is None or mult <= max_degree,
                f"a hint multiplicity must be at most {max_degree}", mult)
    return [(parse_poly(text, field, max_degree=max_degree), mult) for text, mult in obj]
