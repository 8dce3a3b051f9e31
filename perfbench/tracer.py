"""Outside-in tracing of the invlat modules, from the benchmark's own code.

``Tracer.install`` wraps every function named in the ``__all__`` list of an
``invlat.*`` module, plus ``cli.main``, and rebinds the name in every
``invlat`` namespace that holds the function, so calls between modules and
inside one module are caught alike.  ``fields`` is left alone: its
arithmetic is too fine-grained to wrap, and its time shows up in the self
time of its callers, mostly ``matrix.rref``.

Each span records its name, start, end, parent span and the instance it
belongs to.  A generator function gets one span whose active time is the
sum of its ``next()`` calls, and a count of what it yielded.  Self time is a
span's active time minus the active time of its children.  Spans stay in
memory, in flat arrays, until ``write`` puts them in a file.
"""

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

SKIPPED_MODULES = ("invlat.fields",)
ENUMERATED = "subspace.enumerate_all_subspaces.yielded"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.s_name = array("i")
        self.s_instance = array("i")
        self.s_parent = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_active = array("d")
        self.s_child = array("d")
        self.stack = []
        self.instance = -1
        self.counts = defaultdict(int)
        self._restore = []

    # -- span bookkeeping ---------------------------------------------

    def _new_span(self, name_idx, t):
        sid = len(self.s_name)
        self.s_name.append(name_idx)
        self.s_instance.append(self.instance)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_start.append(t)
        self.s_end.append(t)
        self.s_active.append(0.0)
        self.s_child.append(0.0)
        return sid

    def _close(self, sid, t0):
        """End one active interval of ``sid`` that began at ``t0``."""
        t1 = perf_counter()
        self.stack.pop()
        dt = t1 - t0
        self.s_end[sid] = t1
        self.s_active[sid] += dt
        if self.stack:
            self.s_child[self.stack[-1]] += dt

    def _wrap(self, qualname, fn):
        idx = self.name_id.setdefault(qualname, len(self.names))
        if idx == len(self.names):
            self.names.append(qualname)
        hook = HOOKS.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            counter = qualname + ".yielded"

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sid = None
                try:
                    while True:
                        t0 = perf_counter()
                        if sid is None:
                            sid = tracer._new_span(idx, t0)
                        tracer.stack.append(sid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(sid, t0)
                        tracer.counts[counter] += 1
                        yield item
                finally:
                    gen.close()

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            yielded = tracer.counts[ENUMERATED]
            t0 = perf_counter()
            sid = tracer._new_span(idx, t0)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0)
            if hook is not None:
                hook(tracer.counts, args, result, yielded)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "invlat" or name.startswith("invlat."))]
        originals = {}
        for mod in modules:
            if mod.__name__ in SKIPPED_MODULES:
                continue
            names = list(getattr(mod, "__all__", ()))
            if mod.__name__ == "invlat.cli":
                names.append("main")
            short = mod.__name__.split(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def self_times(self):
        return [a - c for a, c in zip(self.s_active, self.s_child)]

    def check_accounting(self, instance_walls):
        """For each instance: self times plus the unwrapped remainder must add
        up to the traced wall time of its call.  Returns the remainders."""
        selfs = defaultdict(float)
        top = defaultdict(float)
        ok = True
        for sid, st in enumerate(self.self_times()):
            inst = self.s_instance[sid]
            selfs[inst] += st
            if self.s_parent[sid] < 0:
                top[inst] += self.s_active[sid]
            if st < -1e-9:
                ok = False
        remainders = {}
        for inst, wall in instance_walls.items():
            rem = wall - top[inst]
            remainders[inst] = rem
            if rem < -1e-9 or abs(selfs[inst] + rem - wall) > 1e-6 * max(1.0, wall):
                ok = False
        return ok, remainders

    def per_function(self):
        """{qualname: [calls, self_s]} over every span recorded."""
        out = defaultdict(lambda: [0, 0.0])
        for sid, st in enumerate(self.self_times()):
            rec = out[self.names[self.s_name[sid]]]
            rec[0] += 1
            rec[1] += st
        return out

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tinstance\tparent\tname\tstart\tend\tactive\tself\n")
            for sid in range(len(selfs)):
                fh.write(f"{sid}\t{self.s_instance[sid]}\t{self.s_parent[sid]}\t"
                         f"{self.names[self.s_name[sid]]}\t{self.s_start[sid]!r}\t"
                         f"{self.s_end[sid]!r}\t{self.s_active[sid]!r}\t{selfs[sid]!r}\n")


# Counters read from arguments and results at the same boundaries.  A later
# version of the program may rename a field; a missing one counts as zero.

def _rref(counts, args, result, yielded):
    counts["matrix.rref.rows"] += getattr(args[0], "nrows", 0) if args else 0


def _build_lattice(counts, args, result, yielded):
    counts["subspace.build_lattice.members"] += len(args[0]) if args else 0


def _classify_all(counts, args, result, yielded):
    counts["oracle.classify_all.subspaces"] += getattr(result, "total_subspaces", 0)
    counts["oracle.classify_all.units_tested"] += getattr(result, "units_tested", 0)


def _lattice(counts, args, result, yielded):
    """``yielded`` is the enumeration count when the lattice call began; the
    members of calls that enumerated, over what they enumerated, is the
    ratio of useful results to attempts."""
    members = getattr(result, "members", ())
    flags = getattr(result, "member_flags", None) or ()
    counts["lattices.members"] += len(members)
    counts["lattices.char_only"] += sum(1 for f in flags if f == "characteristic-only")
    attempts = counts[ENUMERATED] - yielded
    if attempts:
        counts["lattices.enum_attempts"] += attempts
        counts["lattices.enum_members"] += len(members)


HOOKS = {
    "matrix.rref": _rref,
    "subspace.build_lattice": _build_lattice,
    "oracle.classify_all": _classify_all,
    "lattices.inv_lattice": _lattice,
    "lattices.hinv_lattice": _lattice,
    "lattices.chinv_lattice": _lattice,
}
