"""Per-layer figures of a traced run, from the recorders' JSON dumps.

Layer totals are summed over the traced processes: per traced round on
``cli-session`` (averaged when a run holds several), over the traced
server's life on ``serve-mixed``.  Each operation's ``unattributed``
share is its client-observed wall time minus the union of the outermost
layer spans its process recorded.  ``trace.overhead_pct`` compares the
same work run untraced and traced, back to back, in the same run.
"""

from __future__ import annotations

import statistics

import stats


def _calls(layer):
    return lambda d: d["calls"].get(layer, 0)


def _busy(layer):
    return lambda d: d["busy_s"].get(layer, 0.0)


def _self(layer):
    return lambda d: d["self_s"].get(layer, 0.0)


def _counter(name):
    return lambda d: d["counters"][name]


#: Layer totals: (metric, unit, value of one process dump).
TOTALS = (
    ("scheduler.jobs", "count", lambda d: d["extra"].get("scheduler.jobs", 0)),
    ("scheduler.wait_s", "s",
     lambda d: d["extra"].get("scheduler.wait_s", 0.0)),
    ("core.probe_suites", "count", lambda d: d["probe_suites"]),
    ("core.probe_s", "s", _busy("core.probe")),
    ("core.probe.self_s", "s", _self("core.probe")),
    ("core.classify_s", "s", _busy("core.classify")),
    ("translate.units", "count", _calls("translate")),
    ("translate.s", "s", _busy("translate")),
    ("compile.calls", "count", _calls("compile")),
    ("compile.hits", "count", _counter("compile.hits")),
    ("compile.s", "s", _busy("compile")),
    ("compile.self_s", "s", _self("compile")),
    ("compile.optimize.calls", "count", _calls("compile.optimize")),
    ("compile.optimize.distinct_ir", "count", lambda d: d["distinct_ir"]),
    ("compile.optimize.s", "s", _busy("compile.optimize")),
    ("compile.sanitize.calls", "count", _calls("compile.sanitize")),
    ("compile.sanitize.s", "s", _busy("compile.sanitize")),
    ("compile.transval.s", "s", _busy("compile.transval")),
    ("compile.legalize.s", "s", _busy("compile.legalize")),
    ("launch.calls", "count", _calls("launch")),
    ("launch.threads", "count", _counter("launch.threads")),
    ("launch.s", "s", _busy("launch")),
    ("launch.self_s", "s", _self("launch")),
    ("launch.trace.hits", "count", _counter("launch.trace.hits")),
    ("launch.trace.misses", "count", _counter("launch.trace.misses")),
    ("launch.trace.bailouts", "count", _counter("launch.trace.bailouts")),
    # self time of the trace-cache lookup: the trace compile on a miss,
    # a dictionary probe on a hit (the key's fingerprint is its own layer)
    ("launch.trace.compile_s", "s", _self("launch.trace")),
    ("launch.fingerprint.calls", "count", _calls("launch.fingerprint")),
    ("launch.fingerprint.s", "s", _busy("launch.fingerprint")),
    ("stream.kernels", "count", _counter("stream.kernels")),
    ("perfstat.s", "s", _busy("perfstat")),
    ("store.loads", "count", _calls("store.load")),
    ("store.load_s", "s", _busy("store.load")),
    ("store.saves", "count", _calls("store.save")),
    ("store.save_s", "s", _busy("store.save")),
)

#: Per-operation figures, medians over the traced operations.
PER_OPERATION = (
    ("http.dispatch_ms", "ms"),
    ("http.transport_ms", "ms"),
    ("jit.frontend_ms", "ms"),
    ("jit.row_ms", "ms"),
    ("unattributed.derive_s", "s"),
    ("unattributed.perf_s", "s"),
    ("unattributed.warm_ms", "ms"),
    ("unattributed.read_ms", "ms"),
    ("unattributed.submit_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = tuple((name, unit) for name, unit, _ in TOTALS) + PER_OPERATION


def _med(values) -> float:
    values = list(values)
    return stats.median(values) if values else 0.0


def totals(dumps: list[dict], per: int = 1) -> dict[str, float]:
    return {name: sum(fn(d) for d in dumps) / per for name, _, fn in TOTALS}


def _samples(dumps: list[dict], layer: str) -> list[float]:
    return [ms for d in dumps for _, ms in d["samples"].get(layer, [])]


def _unattributed(rounds, op: str) -> list[float]:
    return [wall - d["covered_s"] for r in rounds
            for wall, d in r.dumps.get(op, [])]


def _cli_unattributed(rounds) -> dict[str, float]:
    warm = _unattributed(rounds, "warm")
    per_round = [statistics.fmean(_unattributed([r], "warm"))
                 for r in rounds if r.dumps.get("warm")]
    return {
        "unattributed.derive_s": _med(_unattributed(rounds, "derive")),
        "unattributed.perf_s": _med(_unattributed(rounds, "perf")),
        "unattributed.warm_ms": _med(per_round) * 1e3,
        "unattributed.read_ms": _med(warm) * 1e3,
    }


def _finish(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    units = dict(PER_LAYER)
    return {name: (values.get(name, 0.0), units[name]) for name in units}


def cli_layers(untraced, traced) -> dict[str, tuple[float, str]]:
    """cli-session: totals per traced round, medians per operation."""
    dumps = [d for r in traced for ds in r.dumps.values() for _, d in ds]
    values = totals(dumps, per=len(traced))
    values.update(_cli_unattributed(traced))
    values["unattributed.submit_ms"] = _med(
        _unattributed(traced, "submit")) * 1e3
    values["jit.frontend_ms"] = _med(_samples(dumps, "jit.frontend"))
    values["jit.row_ms"] = _med(_samples(dumps, "jit.row"))
    base = _med(r.wall_s for r in untraced)
    values["trace.overhead_pct"] = (
        (_med(r.wall_s for r in traced) / base - 1) * 100)
    return _finish(values)


def serve_layers(prefill, dump: dict, pairs) -> dict[str, tuple[float, str]]:
    """serve-mixed: the traced server's totals; per-request medians.

    ``pairs`` are (untraced, traced) ``serve_mixed.Sent`` records of the
    same request sent to the untraced and to the traced server; the
    traced one's ``rid`` finds its server-side dispatch span.
    """
    values = totals([dump])
    values.update(_cli_unattributed([prefill]))
    dispatch = {rid: ms for rid, ms in dump["samples"].get(
        "http.dispatch", []) if rid is not None}
    reads = [(b.latency_s * 1e3, dispatch[b.rid]) for _, b in pairs
             if b.kind == "read"]
    submits = [(b.latency_s * 1e3, dispatch[b.rid]) for _, b in pairs
               if b.kind == "submit"]
    values["http.dispatch_ms"] = _med(d for _, d in reads)
    values["http.transport_ms"] = _med(lat - d for lat, d in reads)
    values["unattributed.read_ms"] = values["http.transport_ms"]
    values["unattributed.submit_ms"] = _med(lat - d for lat, d in submits)
    values["jit.frontend_ms"] = _med(_samples([dump], "jit.frontend"))
    values["jit.row_ms"] = _med(_samples([dump], "jit.row"))
    plain = sum(a.latency_s for a, _ in pairs)
    traced = sum(b.latency_s for _, b in pairs)
    values["trace.overhead_pct"] = (traced / plain - 1) * 100
    return _finish(values)
