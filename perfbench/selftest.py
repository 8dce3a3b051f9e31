"""Self-test of the benchmark's own code, in about ten seconds.

    python3 perfbench/run.py --self-test

Checks the independent field arithmetic of the digest, that BENCHMARK.json
names exactly the metrics and workloads run.py reports, that the first two
slots of every workload, in all their conjugates, pass their recorded
digest under a seed other than the recorded one, that a changed report
fails it, and that a traced pass accounts for its wall time.
"""

import copy
import json
import sys

import digest
import run
import workloads
from tracer import Tracer

SEED = 7
COUNT = 2


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def arithmetic():
    for p, k, modulus in ((2, 2, [1, 1, 1]), (3, 2, [1, 0, 1]), (5, 1, [0, 1])):
        F = digest.Field({"kind": "finite", "p": p, "k": k, "modulus": modulus})
        elems = [F.parse(i) if k == 1 else (i % p, i // p) for i in range(p ** k)]
        nonzero = [a for a in elems if not F.is_zero(a)]
        check(all(F.mul(a, F.inv(a)) == F.one for a in nonzero),
              f"GF({p}^{k}): a * a^-1 = 1")
        check(len({F.mul(a, b) for a in nonzero for b in nonzero}) == len(nonzero),
              f"GF({p}^{k}): the nonzero elements are closed under product")
    Q = digest.Field({"kind": "rationals"})
    rows = [[Q.parse(x) for x in row] for row in ([2, 4, 0], [1, "1/2", 1])]
    check(digest.canonical(Q, rows) == ("1 0 4/3", "0 1 -2/3"),
          "Q: reduced row echelon form")


def benchmark_json():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("--  BENCHMARK.json not found next to perfbench/, skipped")
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end = run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer = run.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads = workloads.WORKLOADS")


def instances():
    expected = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        work = run.WORK / "selftest" / name
        manifest = workloads.generate(name, SEED, str(work), count=COUNT)
        runner = run.Runner(manifest, expected[name])
        for k in range(workloads.CONJUGATES):
            run.one_pass(runner, k)
        check(runner.failed == 0,
              f"{name}: {workloads.CONJUGATES} conjugates at seed {SEED} match the digests "
              "recorded at seed 0")

        inst = manifest["instances"][0]
        with open(inst["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        changed = copy.deepcopy(report)
        lattices = digest.lattice_reports(manifest["command"], changed)
        if lattices:
            lattices[-1]["members"].pop()
        elif manifest["command"] == "verify":
            changed["engine_counts"]["invariant"] += 1
        else:
            changed["components"][0]["segre_k"].append(1)
        args = (inst["field"], inst["p_inverse"])
        check(digest.digest(manifest["command"], changed, *args)
              != digest.digest(manifest["command"], report, *args),
              f"{name}: a changed report fails the digest")

        tracer = Tracer()
        tracer.install()
        walls = {}
        try:
            for i in range(len(runner.instances)):
                tracer.instance = i
                walls[i] = runner.call(i)
        finally:
            tracer.uninstall()
        ok, remainders = tracer.check_accounting(walls)
        check(ok and runner.failed == 0,
              f"{name}: traced self times + remainder = wall time "
              f"({len(tracer.s_name)} spans)")
        check("cli.main" in tracer.per_function(), f"{name}: cli.main was traced")
        if name == "chinv_gf2":
            check(tracer.counts["subspace.enumerate_all_subspaces.yielded"] > 0
                  and tracer.counts["lattices.char_only"] > 0,
                  f"{name}: enumeration yields and characteristic-only members counted")
        if name == "verify_gf2":
            check(tracer.counts["oracle.classify_all.subspaces"] > 0,
                  f"{name}: oracle subspaces counted")
    from invlat import cli
    check(not hasattr(cli.main, "__wrapped__"), "uninstall restores the original functions")


def main():
    arithmetic()
    benchmark_json()
    instances()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
