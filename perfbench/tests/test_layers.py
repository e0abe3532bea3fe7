"""The span recorder: busy and self time, re-entry, cross-thread cover."""

import threading
import time

import layers
import tracing_report


def test_self_time_excludes_children_and_reentry_counts_once():
    rec = layers.Recorder()
    leaf = rec.wrap("leaf", lambda: time.sleep(0.02))
    traced = {}

    def outer(depth):
        if depth == 0:
            traced["outer"](1)  # the same layer again: not a second span
        leaf()

    traced["outer"] = rec.wrap("outer", outer)
    traced["outer"](0)
    assert rec.calls == {"leaf": 2, "outer": 1}
    assert rec.busy["outer"] >= rec.busy["leaf"] >= 0.04
    assert rec.self_time["outer"] < 0.01
    assert rec.self_time["leaf"] == rec.busy["leaf"]
    assert len(rec.intervals) == 1


def test_cover_is_the_union_across_threads():
    rec = layers.Recorder()
    rec.intervals = [(0.0, 1.0), (0.5, 1.5), (2.0, 2.5), (2.1, 2.2)]
    assert rec.covered_s() == 2.0
    assert layers.Recorder().covered_s() == 0.0

    work = rec.wrap("w", lambda: time.sleep(0.05))
    rec.intervals = []
    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert rec.calls["w"] == 3 and len(rec.intervals) == 3
    assert 0.05 <= rec.covered_s() < rec.busy["w"]


def test_sampled_layers_keep_tagged_durations():
    rec = layers.Recorder()
    f = rec.wrap("http.dispatch", lambda q: None,
                 tag=lambda args, kwargs: args[0])
    f("r1")
    f("r2")
    assert [s[0] for s in rec.samples["http.dispatch"]] == ["r1", "r2"]


def test_every_per_layer_metric_is_reported_once():
    names = [n for n, _ in tracing_report.PER_LAYER]
    assert len(names) == len(set(names))
    dump = {"calls": {}, "busy_s": {}, "self_s": {}, "extra": {},
            "probe_suites": 0, "distinct_ir": 0, "samples": {},
            "covered_s": 0.0,
            "counters": {k: 0 for k in ("compile.hits", "launch.threads",
                                        "launch.trace.hits",
                                        "launch.trace.misses",
                                        "launch.trace.bailouts",
                                        "stream.kernels")}}
    assert set(tracing_report.totals([dump])) == {
        n for n, _, _ in tracing_report.TOTALS}


def test_benchmark_json_lists_what_the_runs_print():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing_report.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
