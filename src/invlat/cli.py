"""Command-line entry point.

One synchronous process: read a JSON matrix, run the requested command,
emit deterministic JSON (and optionally DOT).  Commands:

* ``analyze``        full pipeline report: minimal polynomial, factors,
                     per-component semisimple/nilpotent split with the
                     polynomial certificate, K description, Segre data,
                     witness dispatch, and all three lattice reports;
* ``lattice-inv`` / ``lattice-hinv`` / ``lattice-chinv``
                     one lattice report (``lattice inv`` also accepted);
* ``shoda``          witness and dispatch verdict per component;
* ``verify``         run the enumeration oracle and diff it against the
                     engine (exit 3 on mismatch);
* ``dot``            re-render a stored lattice JSON as DOT.

Exit codes: 0 success, 2 input error, 3 verification mismatch, 4 scale
cap exceeded, 5 internal invariant violated (a self-check on a computed
result, or the lattice certificate on the engine's output, failed: a defect
to report, never a property of the input).
"""

import argparse
import json
import sys
from functools import cache, partial

from .centralizer import DEFAULT_UNIT_CAP
from .decomposition import analyze_operator
from .errors import (
    CapExceededError,
    ClosureError,
    FactorHintError,
    FieldMismatchError,
    InfiniteFieldError,
    InseparableFactorError,
    InvariantError,
    UndecidedError,
)
from .jsonio import (
    dumps,
    entry_to_json,
    field_from_json,
    field_to_json,
    hint_from_json,
    lattice_from_json,
    lattice_report_to_json,
    matrix_from_json,
    matrix_to_json,
    oracle_report_to_json,
    subspace_to_json,
)
from .lattices import (
    characteristic_dispatch,
    chinv_lattice,
    component_meta,
    hinv_lattice,
    inv_lattice,
)
from .oracle import classify_all
from .poly import format_poly
from .subspace import DEFAULT_SUBSPACE_CAP, subspace_label, to_dot

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4
EXIT_INVARIANT = 5


@cache  # built once: a parser is a web of cycles the collector would free per call
def _parser():
    p = argparse.ArgumentParser(
        prog="invlat",
        description="Exact invariant / hyperinvariant / characteristic subspace lattices.",
    )
    p.add_argument("--input", required=True, help="path to input JSON ('-' for stdin)")
    p.add_argument("--field", help="inline field JSON overriding the input's field")
    p.add_argument("--hint", help='rational factorization hint JSON, e.g. [["x^2+1",2]]')
    p.add_argument(
        "--command",
        required=True,
        help="analyze | lattice-inv | lattice-hinv | lattice-chinv | shoda | verify | dot",
    )
    p.add_argument("--cap-subspaces", type=int, default=DEFAULT_SUBSPACE_CAP)
    p.add_argument("--cap-units", type=int, default=DEFAULT_UNIT_CAP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here (default stdout)")
    p.add_argument("--dot", help="write DOT output here (lattice and dot commands)")
    return p


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_matrix(args):
    obj = _read_json(args.input)
    field = field_from_json(json.loads(args.field)) if args.field else None
    return matrix_from_json(obj, field=field)


def _shoda(comp):
    """The Shoda witness and dispatch verdict of one primary component, off its K and Segre."""
    disp = characteristic_dispatch(comp.field_k, comp.segre)
    witness = disp["shoda_witness"]
    return {
        "witness": [witness.big, witness.small] if witness else None,
        "field_k_is_gf2": disp["field_k_is_gf2"],
        "deg_p_is_1": comp.factor.degree == 1,
        "characteristic_non_hyperinvariant_possible": disp["possible"],
    }


def _component_report(ca):
    ks = ca.kstruct
    field = ca.component.restriction.field
    return {
        **component_meta(ca),
        "field_k": field_to_json(ks.field_k),
        "basis": subspace_to_json(ca.component.subspace),
        "S": matrix_to_json(ca.jc.S)["rows"],
        "N": matrix_to_json(ca.jc.N)["rows"],
        "certificate": format_poly(ca.jc.certificate),
        "k_generators": [[entry_to_json(field, e) for e in g] for g in ks.generators],
        "shoda": _shoda(ca.component),
    }


_LATTICES = {"inv": "invariant", "hinv": "hyperinvariant", "chinv": "characteristic"}


def _engine_report(A, ana, args, kind):
    """One lattice report of the analysis, under the CLI caps and seed (the
    functions are looked up when called, so wrappers put on them are seen)."""
    if kind == "hinv":
        return hinv_lattice(A, analysis=ana, seed=args.seed)
    fn = inv_lattice if kind == "inv" else chinv_lattice
    return fn(A, analysis=ana, seed=args.seed, cap_subspaces=args.cap_subspaces)


def _engine_reports(A, ana, args):
    """The three lattice reports of one analysis, by kind."""
    return {name: _engine_report(A, ana, args, kind) for kind, name in _LATTICES.items()}


def _cmd_analyze(A, ana, args):
    reports = _engine_reports(A, ana, args)
    chinv = reports["characteristic"]
    extra = 0
    if chinv.member_flags is not None:
        extra = sum(1 for f in chinv.member_flags if f == "characteristic-only")
    payload = {
        "command": "analyze",
        "seed": args.seed,
        "field": field_to_json(A.field),
        "matrix": matrix_to_json(A)["rows"],
        "minimal_polynomial": format_poly(ana.min_poly),
        "factorization": {
            "factors": [[format_poly(p), m] for p, m in ana.factorization.factors],
            "trusted_hint": ana.factorization.trusted,
            "seed": ana.factorization.seed,
        },
        "S": matrix_to_json(ana.S)["rows"],
        "N": matrix_to_json(ana.N)["rows"],
        "components": [_component_report(ca) for ca in ana.components],
        "lattices": {
            kind: lattice_report_to_json(rep, A.field, A.nrows)
            for kind, rep in reports.items()
        },
        "characteristic_non_hyperinvariant_count": extra,
    }
    return payload, None


def _cmd_lattice(A, ana, args, kind):
    rep = _engine_report(A, ana, args, kind)
    payload = {
        "command": f"lattice-{kind}",
        "seed": args.seed,
        "report": lattice_report_to_json(rep, A.field, A.nrows),
    }
    dot = to_dot(rep.lattice) if rep.lattice is not None else None
    return payload, dot


def _cmd_shoda(A, ana, args):
    comps = [{"factor": format_poly(c.factor), "segre_k": c.segre, **_shoda(c)}
             for c in (ca.component for ca in ana.components)]
    payload = {
        "command": "shoda",
        "seed": args.seed,
        "minimal_polynomial": format_poly(ana.min_poly),
        "components": comps,
        "any_characteristic_non_hyperinvariant": any(
            c["characteristic_non_hyperinvariant_possible"] for c in comps
        ),
    }
    return payload, None


def _cmd_verify(A, ana, args):
    engine = _engine_reports(A, ana, args)
    for kind, rep in engine.items():
        if not rep.complete:
            if A.field.is_finite:
                raise CapExceededError(
                    f"cannot verify: engine {kind} lattice is not fully materialized "
                    "under the configured caps"
                )
            raise InfiniteFieldError(
                f"cannot verify: engine {kind} lattice is not fully materialized"
            )
    oracle = classify_all(
        A, cap_subspaces=args.cap_subspaces, cap_units=args.cap_units, seed=args.seed
    )
    print(f"oracle enumerated {oracle.total_subspaces} subspaces in "
          f"{oracle.elapsed:.2f}s", file=sys.stderr)
    diffs = {}
    pairs = {
        "invariant": oracle.invariant,
        "hyperinvariant": oracle.hyperinvariant,
        "characteristic": oracle.characteristic,
    }
    for kind, oracle_members in pairs.items():
        es = engine[kind].member_set()
        os_ = set(oracle_members)
        if es != os_:
            diffs[kind] = {
                "engine_only": sorted(subspace_label(w) for w in es - os_),
                "oracle_only": sorted(subspace_label(w) for w in os_ - es),
            }
    payload = {
        "command": "verify",
        "seed": args.seed,
        "match": not diffs and not oracle.findings,
        "engine_counts": {k: len(r.members) for k, r in engine.items()},
        "oracle": oracle_report_to_json(oracle),
        "diff": diffs,
    }
    return payload, None


def _cmd_dot(args):
    obj = _read_json(args.input)
    if isinstance(obj, dict) and "report" in obj:
        obj = obj["report"]
    if isinstance(obj, dict) and obj.get("lattice") is not None:
        obj = obj["lattice"]
    lat = lattice_from_json(obj)
    return {"command": "dot", "members": len(lat.members)}, to_dot(lat)


def _emit(payload, dot, args):
    text = dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if dot is not None and args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "shoda": _cmd_shoda,
    "verify": _cmd_verify,
    **{f"lattice-{kind}": partial(_cmd_lattice, kind=kind) for kind in _LATTICES},
}


def main(argv=None):
    args = _parser().parse_args(argv)
    command = args.command.replace(" ", "-")
    if args.cap_subspaces < 1 or args.cap_units < 1:
        print("input error: caps must be positive", file=sys.stderr)
        return EXIT_INPUT
    if command != "dot" and command not in _COMMANDS:
        print(f"unknown command: {args.command}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if command == "dot":
            payload, dot = _cmd_dot(args)
        else:
            A = _load_matrix(args)
            hint = None
            if args.hint:
                hint = hint_from_json(json.loads(args.hint), A.field, max_degree=A.nrows)
            ana = analyze_operator(A, hint=hint, seed=args.seed)
            payload, dot = _COMMANDS[command](A, ana, args)
    except (CapExceededError, UndecidedError) as exc:
        print(f"scale cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvariantError, ClosureError) as exc:  # dot wraps its own ClosureError
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (
        FactorHintError,
        FieldMismatchError,
        InfiniteFieldError,
        InseparableFactorError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(payload, dot, args)
    if command == "verify" and not payload["match"]:
        print("verification mismatch: engine != oracle", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
