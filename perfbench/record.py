"""Record the expected digest of every slot, at the default seed 0.

    python3 perfbench/run.py --record

Runs each workload's instances once through the CLI and writes
``expected.json``.  It refuses a nonzero exit and, for ``verify``, a
report without ``match: true``: there the engine's three lattices have been
compared with the brute-force oracle ``classify_all`` on the same matrix.
Every other finite-field lattice report whose space has at most
ORACLE_LIMIT subspaces is compared with ``classify_all`` here, and all the
conjugates of a slot must give the slot's digest.  Re-record
only when a slot list changes; a program change must not need it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import digest
import workloads
from invlat import classify_all, cli, subspace_count
from invlat.jsonio import matrix_from_json, subspace_to_json

HERE = Path(__file__).resolve().parent
ORACLE_LIMIT = 30_000


def _labels(field, p_inverse, bases):
    return sorted(digest.canonical(field, digest.back_map(field, p_inverse, b))
                  for b in bases)


def cross_check(inst, lattices):
    """Compare each lattice report with the oracle; return the kinds checked."""
    with open(inst["argv"][1], encoding="utf-8") as fh:
        M = matrix_from_json(json.load(fh))
    if not lattices or not M.field.is_finite or (
            subspace_count(M.nrows, M.field.order) > ORACLE_LIMIT):
        return []
    oracle = classify_all(M)
    field = digest.Field(inst["field"])
    for rep in lattices:
        want = [subspace_to_json(w) for w in getattr(oracle, rep["kind"])]
        if (_labels(field, inst["p_inverse"], want)
                != _labels(field, inst["p_inverse"], [m["basis"] for m in rep["members"]])):
            raise SystemExit(f"{inst['slot']}: {rep['kind']} lattice differs from the oracle")
    return sorted(rep["kind"] for rep in lattices)


def main():
    work = HERE.parent / ".perfbench" / "record"
    expected = {}
    for name, spec in workloads.WORKLOADS.items():
        manifest = workloads.generate(name, 0, str(work / name))
        slots = {}
        for inst in manifest["instances"]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(list(inst["argv"]))
            if rc != 0:
                raise SystemExit(f"{name} {inst['slot']}: exit {rc}: {err.getvalue()}")
            with open(inst["out"], encoding="utf-8") as fh:
                report = json.load(fh)
            if spec["command"] == "verify" and report["match"] is not True:
                raise SystemExit(f"{name} {inst['slot']}: engine and oracle differ")
            lattices = digest.lattice_reports(spec["command"], report)
            got = digest.digest(spec["command"], report, inst["field"], inst["p_inverse"])
            if inst["slot"] in slots:
                if slots[inst["slot"]]["digest"] != got:
                    raise SystemExit(f"{name} {inst['slot']}: conjugates disagree")
                continue
            slots[inst["slot"]] = {
                "digest": got,
                "members": {r["kind"]: len(r["members"]) for r in lattices} or None,
                "oracle_checked": cross_check(inst, lattices),
            }
            print(f"{name:18s} {inst['slot']:60s} oracle: "
                  f"{','.join(slots[inst['slot']]['oracle_checked']) or '-'}", flush=True)
        expected[name] = slots
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
