"""Per-layer tracing of hklat from outside the package.

Every public function of each hklat module is replaced by a wrapper
that records a span: function, start, end, the span that called it and
the query it belongs to. The wrappers are installed wherever the
function object is bound, so names copied into other modules by
``from .lattice import q_eval`` are traced too, and ``uninstall``
puts every original back. Spans stay in memory until the end of the
run. The wrappers pass arguments, results and exceptions through
untouched, so stdout bytes do not change.

A layer is a module. A span's self time is its duration minus the
durations of its direct children, and ``harness.self_s`` is the traced
wall time minus every layer's self time. That split counts each
instant once only if every child span lies inside its parent and the
children of one parent do not overlap; ``report`` checks both, and that
the harness's own time is not negative, and lists each violation in
``problems``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

from hklat.bounds import BoundValue

LAYERS = ("cli", "jsonio", "lattice", "linalg", "cones", "zariski", "bounds", "mld")

# per-function time metrics: metric name -> (qualified functions, "self" or "total")
FUNCTION_TIMES = {
    "jsonio.dump_s": (("jsonio.dump_canonical",), "total"),
    "lattice.make_lattice.self_s": (("lattice.make_lattice",), "self"),
    "lattice.smith_normal_form.self_s": (("lattice.smith_normal_form",), "self"),
    "linalg.ldl.self_s": (("linalg.ldl",), "self"),
    "linalg.solve_exact.self_s": (("linalg.solve_exact",), "self"),
    "cones.enumerate.self_s": (("cones.enumerate_negative_classes",), "self"),
    "cones.orbit.self_s": (("cones.monodromy_orbit",), "self"),
    # the orbit is a child span, so this is the wall scan alone
    "cones.wall_scan_s": (("cones.is_wall_divisor",), "self"),
    "zariski.decompose.self_s": (("zariski.zariski_decompose",), "self"),
    "zariski.audit.self_s": (("zariski.denominator_audit",), "self"),
    "mld.make_table.self_s": (("mld.make_table",), "self"),
    "mld.query.self_s": (("mld.mld_at", "mld.mld_along", "mld.log_discrepancy",
                          "mld.check_sequence_acc"), "self"),
}
FUNCTION_CALLS = {
    "lattice.q_eval.calls": "lattice.q_eval",
    "linalg.bareiss_det.calls": "linalg.bareiss_det",
    "linalg.is_negative_definite.calls": "linalg.is_negative_definite",
}
COUNTERS = (
    "jsonio.out_bytes", "lattice.snf_max_bits", "cones.classes_found", "cones.orbit_size",
    "cones.orbit_truncated", "zariski.support_size", "bounds.exact_calls",
    "bounds.log_calls", "bounds.exact_bits", "mld.closure_pairs",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith(("bytes", "bits")):
        return name.rsplit("_", 1)[-1]
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s", "share")]
    names += ["harness.self_s", "harness.share", "trace_overhead_ratio"]
    return names + list(FUNCTION_TIMES) + list(FUNCTION_CALLS) + list(COUNTERS)


# --- counters read off return values -------------------------------------

def _snf(rec, result, parent):
    bits = max((abs(x).bit_length() for m in (result.left, result.right) for row in m for x in row),
               default=0)
    rec.counters["lattice.snf_max_bits"] = max(rec.counters["lattice.snf_max_bits"], bits)


def _classes(rec, result, parent):
    rec.counters["cones.classes_found"] += len(result)


def _orbit(rec, result, parent):
    rec.counters["cones.orbit_size"] += len(result[0])
    rec.counters["cones.orbit_truncated"] += not result[1]


def _support(rec, result, parent):
    rec.counters["zariski.support_size"] += len(result.support)


def _bound(rec, result, parent):
    # count a bound once, at the outermost bounds call that produced it
    if not isinstance(result, BoundValue) or (parent >= 0 and rec.layer_of_span(parent) == "bounds"):
        return
    if result.exact_value is not None:
        rec.counters["bounds.exact_calls"] += 1
        rec.counters["bounds.exact_bits"] += result.exact_value.bit_length()
    else:
        rec.counters["bounds.log_calls"] += 1


def _table(rec, result, parent):
    rec.counters["mld.closure_pairs"] += len(result.contains)


def _dump(rec, result, parent):
    rec.counters["jsonio.out_bytes"] += len(result)  # json.dumps output is ASCII


HOOKS = {
    "lattice.smith_normal_form": _snf,
    "cones.enumerate_negative_classes": _classes,
    "cones.monodromy_orbit": _orbit,
    "zariski.zariski_decompose": _support,
    "bounds.birationality_bound": _bound,
    "bounds.moduli_bound": _bound,
    "bounds.factorial_of_power": _bound,
    "bounds.factorial_or_log": _bound,
    "mld.make_table": _table,
    "jsonio.dump_canonical": _dump,
}


class Recorder:
    """Spans in flat arrays: function id, parent span, query, start, end."""

    def __init__(self):
        self.functions: list[str] = []   # qualified "layer.name", by function id
        self.fid = array("i")
        self.parent = array("i")
        self.query_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.query = -1
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.problems: list[str] = []

    def layer_of_span(self, span: int) -> str:
        return self.functions[self.fid[span]].split(".", 1)[0]

    def _wrap(self, fn, fid: int, hook):
        fids, parents, queries = self.fid, self.parent, self.query_of
        starts, ends, stack = self.start, self.end, self.stack
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1]
            fids.append(fid)
            parents.append(parent)
            queries.append(rec.query)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hklat.{layer}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, FunctionType) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    self.functions.append(qual)
                    wrappers[obj] = self._wrap(obj, len(self.functions) - 1, HOOKS.get(qual))
        for modname, module in list(sys.modules.items()):
            if modname != "hklat" and not modname.startswith("hklat."):
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def report(self, traced_wall: float, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics. ``traced_wall`` is the measured wall time
        of the traced pass; ``overhead_ratio`` is its normalised time
        over the untraced pass's."""
        n = len(self.start)
        self._check_nesting()
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        for i in range(n):
            qual = self.functions[self.fid[i]]
            calls[qual] += 1
            self_s[qual] += dur[i] - child[i]
            total_s[qual] += dur[i]
        out: dict[str, float] = {}
        layer_self = 0.0
        for layer in LAYERS:
            quals = [q for q in calls if q.startswith(layer + ".")]
            s = sum(self_s[q] for q in quals)
            layer_self += s
            out[f"{layer}.calls"] = sum(calls[q] for q in quals)
            out[f"{layer}.self_s"] = s
            out[f"{layer}.share"] = s / traced_wall
        out["harness.self_s"] = traced_wall - layer_self
        if out["harness.self_s"] < 0:
            self._problem(f"layer self times exceed the traced wall time by "
                          f"{-out['harness.self_s']} s")
        out["harness.share"] = out["harness.self_s"] / traced_wall
        out["trace_overhead_ratio"] = overhead_ratio
        for name, (quals, kind) in FUNCTION_TIMES.items():
            out[name] = sum((self_s if kind == "self" else total_s)[q] for q in quals)
        for name, qual in FUNCTION_CALLS.items():
            out[name] = calls[qual]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out

    def _check_nesting(self) -> None:
        """Each span must lie inside its parent and start after the
        previous child of the same parent (or the previous top-level
        span) has ended. Spans are stored in start order."""
        last_end: dict[int, float] = {}
        for i in range(len(self.start)):
            p, start, end = self.parent[i], self.start[i], self.end[i]
            what = f"span {i} ({self.functions[self.fid[i]]})"
            if end < start:
                self._problem(f"{what} ends before it starts")
            if p >= 0 and not (self.start[p] <= start and end <= self.end[p]):
                self._problem(f"{what} is not inside its parent span {p}")
            if start < last_end.get(p, start):
                self._problem(f"{what} overlaps the previous span under parent {p}")
            last_end[p] = end

    def _problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def write_spans(self, path: str) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query\tspan\tparent\tfunction\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{self.query_of[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.functions[self.fid[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\n")
