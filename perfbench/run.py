"""End-to-end benchmark of the invlat command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chinv_gf2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seconds 15     # every workload, traced and not
    python3 perfbench/run.py --self-test             # about ten seconds
    python3 perfbench/run.py --record                # re-record expected.json

One process and one thread drive ``invlat.cli.main([...])`` in process, as a
closed loop: one client, and the next call starts when the previous one
returns.  Calling in process keeps interpreter start-up out of the figures
while argument parsing, the JSON read and write and the report assembly stay
in.  Set-up writes the seeded inputs to files under ``.perfbench/`` in fresh
processes; the program only sees those files.

A pass calls the workload's slots in order, each pass with the next set of
conjugates (see workloads.py).  A run makes passes until it has timed
``--seconds`` seconds of calls, at least 100 calls (so that the 90th
latency percentile has ten samples beyond it) and one whole pass.  Times
are reported in nominal seconds (see ``reference``).  Every call is checked
outside the timed region: exit code 0, ``match: true`` for ``verify``, and
the output's semantic digest equal to the one recorded in ``expected.json``;
a repeat must also be byte-identical to the first output of its instance.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones (see tracer.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 5
MIN_CALLS = 100
# Time of reference() at the machine's nominal speed (its usual median on
# the 2-vCPU Xeon VM the benchmark was built on).  Times are reported in
# nominal seconds: measured seconds * REF_NOMINAL_S / reference() nearby.
REF_NOMINAL_S = 0.002

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics, averaged over the traced passes.  "calls" and "self_s"
# come from the spans, the others from counters (see tracer.HOOKS).
PER_LAYER = [
    ("poly.factor.calls", "count"),
    ("poly.factor.self_s", "s"),
    ("matrix.minimal_polynomial.calls", "count"),
    ("matrix.minimal_polynomial.self_s", "s"),
    ("matrix.rref.calls", "count"),
    ("matrix.rref.rows", "count"),
    ("matrix.rref.self_s", "s"),
    ("matrix.inverse.self_s", "s"),
    ("matrix.poly_at_matrix.self_s", "s"),
    ("decomposition.analyze_operator.self_s", "s"),
    ("decomposition.primary_decomposition.self_s", "s"),
    ("decomposition.jordan_chevalley.self_s", "s"),
    ("decomposition.build_k_structure.self_s", "s"),
    ("subspace.span.calls", "count"),
    ("subspace.span.self_s", "s"),
    ("subspace.kernel_basis.self_s", "s"),
    ("subspace.enumerate_all_subspaces.yielded", "count"),
    ("subspace.enumerate_all_subspaces.self_s", "s"),
    ("subspace.build_lattice.members", "count"),
    ("subspace.build_lattice.self_s", "s"),
    ("centralizer.centralizer_basis.calls", "count"),
    ("centralizer.centralizer_basis.self_s", "s"),
    ("centralizer.unit_elements.yielded", "count"),
    ("centralizer.unit_elements.self_s", "s"),
    ("centralizer.is_characteristic.calls", "count"),
    ("centralizer.is_characteristic.self_s", "s"),
    ("centralizer.is_hyperinvariant.calls", "count"),
    ("lattices.inv_lattice.self_s", "s"),
    ("lattices.hinv_lattice.self_s", "s"),
    ("lattices.chinv_lattice.self_s", "s"),
    ("lattices.members", "count"),
    ("lattices.char_only", "count"),
    ("lattices.enum_yield", "ratio"),
    ("oracle.classify_all.self_s", "s"),
    ("oracle.classify_all.subspaces", "count"),
    ("oracle.classify_all.units_tested", "count"),
    ("jsonio.lattice_report_to_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unwrapped_s", "s"),
]


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Set-up


def setup_child(args):
    """Body of one fresh set-up process: import, generate, write.  Prints
    the seconds it took and the median reference() time around it."""
    refs = [reference() for _ in range(5)]
    t0 = time.perf_counter()
    import workloads

    workloads.generate(args.workload, args.seed, args.dir)
    elapsed = time.perf_counter() - t0
    refs += [reference() for _ in range(5)]
    print(repr(elapsed), repr(statistics.median(refs)))
    return 0


def run_setup(workload, seed, directory):
    """Run set-up in a fresh process; return (seconds, reference seconds)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--dir", str(directory)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    elapsed, ref = proc.stdout.split()[-2:]
    return float(elapsed), float(ref)


# ----------------------------------------------------------------------
# The reference loop


def reference():
    """Time a fixed piece of pure-Python work (about REF_NOMINAL_S).

    It runs right after every call and around every set-up.  The machine's
    speed drifts by a quarter within seconds; dividing a time by this
    loop's time next to it cancels the drift.  Collection is off so that
    the program's heap cannot change the loop's cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
            key = tuple((i * j) % 11 for j in range(8))
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Calls and checks


class Runner:
    """Calls the CLI on each instance and checks every output."""

    def __init__(self, manifest, expected):
        from invlat import cli

        self.cli = cli
        self.command = manifest["command"]
        self.instances = manifest["instances"]
        self.pass_size = manifest["pass_size"]
        self.expected = expected
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.reports = 0
        self.complete = 0
        self.failures = []

    def call(self, i):
        """One timed call of instance ``i``; returns its duration."""
        argv = list(self.instances[i]["argv"])
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.instances[i]["out"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                outcome = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                outcome = exc
            dt = time.perf_counter() - t0
        self._check(i, outcome, err.getvalue())
        return dt

    def _fail(self, i, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{self.instances[i]['slot']}: {why}")

    def _check(self, i, outcome, stderr):
        self.attempted += 1
        if outcome != 0:
            if isinstance(outcome, BaseException):
                why = f"{type(outcome).__name__}: {outcome}"
            else:
                why = f"exit {outcome}: {stderr.strip()[-200:]}"
            self._fail(i, why)
            return
        try:
            with open(self.instances[i]["out"], "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self._fail(i, f"no report: {exc}")
            return
        h = hashlib.sha256(data).digest()
        if i not in self.seen:
            self.seen[i] = (h,) + self._judge(i, data)
        first, why, reports, complete = self.seen[i]
        self.reports += reports
        self.complete += complete
        if h != first:
            why = "output differs from the first call of this instance"
        if why:
            self._fail(i, why)

    def _judge(self, i, data):
        """(failure reason or None, lattice reports, complete reports)."""
        inst = self.instances[i]
        try:
            report = json.loads(data)
            lattices = digest.lattice_reports(self.command, report)
            reports = len(lattices)
            complete = sum(1 for r in lattices if r["complete"] is True)
            if self.command == "verify" and report["match"] is not True:
                return "verify reported match: false", reports, complete
            got = digest.digest(self.command, report, inst["field"], inst["p_inverse"])
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}", 0, 0
        want = self.expected.get(inst["slot"], {}).get("digest")
        if got != want:
            return f"digest {got} != recorded {want}", reports, complete
        return None, reports, complete


def calls(runner, start=0, tracer=None):
    """Call the instances from number ``start`` on, round and round, and
    yield (seconds, nominal seconds) per call.  A call's nominal time scales
    it by REF_NOMINAL_S over the mean of the reference() timings taken just
    before and just after it."""
    before = reference()
    for j in itertools.count(start):
        if tracer is not None:
            tracer.instance = j
        dt = runner.call(j % len(runner.instances))
        after = reference()
        yield dt, dt * 2.0 * REF_NOMINAL_S / (before + after)
        before = after


def one_pass(runner, index, tracer=None):
    """Pass number ``index``: every slot once, with that pass's conjugates."""
    n = runner.pass_size
    return list(itertools.islice(calls(runner, index * n, tracer), n))


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.  A slot
    list mixes instances of very different cost, and a plain percentile
    jumps from one instance's cost to the next as the seed moves a slot by a
    few per cent; this estimate moves smoothly."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def percentiles(samples):
    return quantile(samples, 0.5), quantile(samples, 0.9)


def measure_plain(runner, seconds):
    """Calls in list order until ``seconds`` of calls, MIN_CALLS calls and
    one whole pass."""
    n = runner.pass_size
    raw, nominal = [], []
    for dt, nom in calls(runner):
        raw.append(dt)
        nominal.append(nom)
        if sum(raw) >= seconds and len(raw) >= max(MIN_CALLS, n):
            break
    starts = range(0, len(raw) // n * n, n)
    p50, p90 = percentiles(nominal)
    raw_p50, raw_p90 = percentiles(raw)
    return {
        "wall_s": statistics.median(sum(nominal[k:k + n]) for k in starts),
        "latency_p50_ms": p50 * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
    }, {
        "samples": len(raw),
        "passes": len(starts),
        "raw_wall_s": statistics.median(sum(raw[k:k + n]) for k in starts),
        "raw_latency_p50_ms": raw_p50 * 1000.0,
        "raw_latency_p90_ms": raw_p90 * 1000.0,
        "raw_pass_walls_s": [sum(raw[k:k + n]) for k in starts],
    }


def measure_traced(runner, seconds, span_path):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, walls = [], [], {}
    while sum(dt for p in plain + traced for dt, _ in p) < seconds or not traced:
        plain.append(one_pass(runner, len(plain) + len(traced)))
        index = len(plain) + len(traced)
        tracer.install()
        try:
            durations = one_pass(runner, index, tracer)
        finally:
            tracer.uninstall()
        traced.append(durations)
        first = index * runner.pass_size
        walls.update((first + i, dt) for i, (dt, _) in enumerate(durations))
    accounting_ok, remainders = tracer.check_accounting(walls)
    tracer.write(span_path)

    k = len(traced)
    funcs = tracer.per_function()
    counts = tracer.counts
    metrics = {}
    for name, unit in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            value = funcs[fn][0] / k if fn in funcs else 0.0
        elif stat == "self_s":
            value = funcs[fn][1] / k if fn in funcs else 0.0
        else:
            value = counts.get(name, 0) / k
        metrics[name] = value
    attempts = counts.get("lattices.enum_attempts", 0)
    metrics["lattices.enum_yield"] = (
        counts.get("lattices.enum_members", 0) / attempts if attempts else 0.0)
    # Traced over untraced time of adjacent passes, both in nominal seconds.
    metrics["trace.overhead"] = statistics.median(
        sum(r for _, r in t) / sum(r for _, r in p) for p, t in zip(plain, traced))
    metrics["trace.unwrapped_s"] = sum(remainders.values()) / k
    info = {"passes": len(plain), "traced_passes": k, "spans": len(tracer.s_name),
            "accounting_ok": accounting_ok, "span_file": str(span_path)}
    return metrics, info


# ----------------------------------------------------------------------
# One run


def bench(workload, seed, seconds, trace):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups = [run_setup(workload, seed, work) for _ in range(1 if trace else SETUPS)]
    with open(work / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh).get(workload, {})
    runner = Runner(manifest, expected)

    if trace:
        metrics, info = measure_traced(runner, seconds, work / "spans.tsv")
        units = dict(PER_LAYER)
        correct = runner.failed == 0 and info["accounting_ok"]
    else:
        metrics, info = measure_plain(runner, seconds)
        metrics["setup_s"] = statistics.median(t * REF_NOMINAL_S / r for t, r in setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END
        correct = runner.failed == 0

    info.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "instances": len(runner.instances),
        "raw_setup_s": [t for t, _ in setups],
        "reference_ms": [r * 1000.0 for _, r in setups],
        "failed_frac": runner.failed / runner.attempted,
        "complete_frac": (runner.complete / runner.reports) if runner.reports else None,
        "environment": environment(),
    })
    for name in units:
        print(f"{name:45s} {metrics[name]!r} {units[name]}")
    for key, value in info.items():
        print(f"{key:45s} {value}")
    for line in runner.failures:
        print(f"FAILED {line}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(work / f"result-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description="invlat CLI benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, trace 0 and 1")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "invlat" / "__init__.py").is_file():
        print(f"perfbench: no invlat sources at {SRC}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_child(args)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.record:
        import record
        return record.main()
    import workloads

    if args.all:
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                print(f"== {name} trace={trace}")
                ok &= bench(name, args.seed, args.seconds, trace)["correct"]
        return 0 if ok else 1
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
