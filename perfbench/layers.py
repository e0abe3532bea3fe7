"""Per-layer tracing, installed from the benchmark's own code.

:func:`install` wraps the public entry point of each layer of the
program (the table :data:`ENTRY_POINTS`) in a span recorder.  The
wrappers replace the entry points on their defining module or class and
on every already-imported ``repro`` module that bound them by name, so
calls from any thread of the process are recorded.  The program itself
is not changed.

Each span records its layer, start and end; per layer the recorder keeps
calls, busy time (wall time inside the layer, each nesting counted once)
and self time (busy time minus time spent in child spans of the same
thread).  The outermost spans of every thread are kept as intervals, so
the share of an operation's wall time that no layer covers can be
computed.  :func:`dump` writes everything as JSON when the process ends.

Process-wide counters the program already keeps (compile cache, the
interpreter's launch and trace totals, stream kernels) are read once at
dump time through their public snapshot functions.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

#: (layer, module, qualified name) of every wrapped entry point.  A
#: method named on a base class is wrapped on every subclass that
#: overrides it too.
ENTRY_POINTS = (
    ("scheduler", "repro.service.scheduler", "JobEngine.run_all"),
    ("core.probe", "repro.core.probes", "run_probe_suite"),
    ("core.probe", "repro.core.probes", "run_single_probe"),
    ("core.classify", "repro.core.classifier", "classify_route"),
    ("translate", "repro.translate.base", "SourceTranslator.translate_unit"),
    ("compile", "repro.compilers.toolchain", "Toolchain.compile"),
    ("compile.optimize", "repro.compilers.passes", "optimize_module"),
    ("compile.sanitize", "repro.compilers.passes", "sanitize_module"),
    ("compile.transval", "repro.analysis.transval", "validate_translation"),
    ("compile.legalize", "repro.isa.targets", "legalize"),
    ("launch", "repro.gpu.device", "Device.launch"),
    ("launch.trace", "repro.isa.tracing", "lookup"),
    ("launch.fingerprint", "repro.isa.tracing", "kernel_fingerprint"),
    ("perfstat", "repro.analysis.perfstat", "build_static_perf_matrix"),
    ("store.load", "repro.service.store", "ResultStore.load"),
    ("store.load", "repro.perfport.store", "PerfStore.load"),
    ("store.save", "repro.service.store", "ResultStore.save"),
    ("store.save", "repro.perfport.store", "PerfStore.save"),
    ("http.dispatch", "repro.service.server", "dispatch"),
    ("jit.frontend", "repro.jit.api", "from_source"),
    ("jit.row", "repro.jit.row", "build_row"),
)

#: Layers whose individual call durations are kept (per-call medians).
SAMPLED = frozenset({"http.dispatch", "jit.frontend", "jit.row"})


class _Span:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child = 0.0


class Recorder:
    """Span bookkeeping shared by every thread of one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.intervals: list[tuple[float, float]] = []
        self.extra: dict[str, float] = {}
        self.probe_routes: set[str] = set()
        self.optimized_ir: set[str] = set()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.extra[name] = self.extra.get(name, 0.0) + value

    def wrap(self, layer: str, fn, tag=None):
        """``fn`` recording one span of ``layer`` per outermost call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if any(s.layer == layer for s in stack):
                return fn(*args, **kwargs)  # re-entry: already inside
            label = tag(args, kwargs) if tag is not None else None
            span = _Span(layer, time.perf_counter())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - span.start
                if stack:
                    stack[-1].child += dur
                with self._lock:
                    self.calls[layer] = self.calls.get(layer, 0) + 1
                    self.busy[layer] = self.busy.get(layer, 0.0) + dur
                    self.self_time[layer] = (
                        self.self_time.get(layer, 0.0) + dur - span.child)
                    if layer in SAMPLED:
                        self.samples.setdefault(layer, []).append(
                            [label, dur * 1e3])
                    if not stack:
                        self.intervals.append((span.start, end))

        return traced

    def covered_s(self) -> float:
        """Length of the union of every thread's outermost spans."""
        with self._lock:
            spans = sorted(self.intervals)
        total, cur_start, cur_end = 0.0, None, None
        for start, end in spans:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total


def _scheduler_run_all(rec: Recorder, fn):
    """``JobEngine.run_all`` plus its job count and worker wait.

    Wait is the engine's worker time not spent inside a job:
    ``workers x wall`` minus the jobs' summed latency, read from the
    engine's own ``job_latency_*`` histograms before and after.
    """

    def job_totals(engine) -> tuple[int, float]:
        hists = engine.metrics.snapshot()["histograms"]
        picked = [h for name, h in hists.items()
                  if name.startswith("job_latency_")]
        return (sum(h["count"] for h in picked),
                sum(h["sum"] for h in picked))

    @functools.wraps(fn)
    def run_all(self, *args, **kwargs):
        n0, busy0 = job_totals(self)
        start = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            n1, busy1 = job_totals(self)
            rec.add("scheduler.jobs", n1 - n0)
            rec.add("scheduler.wait_s",
                    max(0.0, self.jobs * wall - (busy1 - busy0)))

    return run_all


def _tags(rec: Recorder) -> dict:
    """Per-layer hooks that note something about the call's arguments."""
    from repro.isa import tracing

    fingerprint = tracing.kernel_fingerprint  # the unwrapped original

    def probe(args, kwargs):
        route = args[0] if args else kwargs.get("route")
        with rec._lock:
            rec.probe_routes.add(getattr(route, "route_id", repr(route)))

    def optimize(args, kwargs):
        module = args[0] if args else kwargs["module"]
        key = tuple(sorted(fingerprint(k) for k in module))
        with rec._lock:
            rec.optimized_ir.add(repr(key))

    def dispatch(args, kwargs):
        q = args[2] if len(args) > 2 else kwargs["q"]
        return q("rid", None)

    return {"core.probe": probe, "compile.optimize": optimize,
            "http.dispatch": dispatch}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Recorder:
    """Wrap every entry point of :data:`ENTRY_POINTS`; returns the recorder."""
    import importlib

    rec = Recorder()
    tags = _tags(rec)
    # Modules imported after the patch bind the wrappers from the
    # defining module; the scan below rebinds the ones imported before.
    for module in {m for _, m, _ in ENTRY_POINTS}:
        importlib.import_module(module)
    replaced: dict[int, object] = {}
    for layer, modname, qualname in ENTRY_POINTS:
        mod = sys.modules[modname]
        if "." in qualname:
            clsname, meth = qualname.split(".")
            base = getattr(mod, clsname)
            for cls in (base, *_subclasses(base)):
                if meth not in cls.__dict__:
                    continue
                orig = cls.__dict__[meth]
                if layer == "scheduler":
                    wrapped = _scheduler_run_all(rec, orig)
                else:
                    wrapped = rec.wrap(layer, orig, tags.get(layer))
                setattr(cls, meth, wrapped)
        else:
            orig = getattr(mod, qualname)
            wrapped = rec.wrap(layer, orig, tags.get(layer))
            replaced[id(orig)] = (orig, wrapped)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return rec


def dump(rec: Recorder, path: Path) -> None:
    """Write the recorder and the program's own counters as JSON."""
    from repro.compilers.toolchain import compile_cache_stats
    from repro.isa.interpreter import snapshot_interpreter_totals
    from repro.workloads.babelstream import stream_totals

    cc = compile_cache_stats().snapshot()
    it = snapshot_interpreter_totals()
    covered = rec.covered_s()
    with rec._lock:
        doc = {
            "covered_s": covered,
            "calls": dict(rec.calls),
            "busy_s": dict(rec.busy),
            "self_s": dict(rec.self_time),
            "samples": {k: list(v) for k, v in rec.samples.items()},
            "extra": dict(rec.extra),
            "probe_suites": len(rec.probe_routes),
            "distinct_ir": len(rec.optimized_ir),
            "counters": {
                "compile.hits": cc.hits,
                "compile.misses": cc.misses,
                "launch.threads": it.stats.threads,
                "launch.trace.hits": it.trace.hits,
                "launch.trace.misses": it.trace.misses,
                "launch.trace.bailouts": it.trace.bailouts,
                "stream.kernels": stream_totals()["kernels"],
            },
        }
    path.write_text(json.dumps(doc))
