"""Workload ``cli-session``: a researcher's session of fresh processes.

One round, always the same eleven commands in the same order:

* three fresh interpreters importing the CLI (``setup_s``);
* the cold half: ``eval --store <empty dir>`` (``derive_s``), then
  ``perf --store <same dir> --format json`` (``perf_s``);
* the warm half on that store: ``eval``, ``perf --format json`` and
  ``perf --static --format json`` (``warm_cli_ms``, ``read_p50_ms``);
* ``jit row`` on two generated elementwise kernels (``submit_p50_ms``);
* ``eval --store <path of a regular file>``, which must exit 2 with a
  one-line usage message and is counted failed until it does.

Rounds repeat until the measured window is used up; every figure is a
median over rounds (or over the round's commands, pooled).  The CLI
keeps its default ``--jobs`` (the machine's CPU count).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import procs
import stats
import tracing_report

#: Fresh-interpreter imports per round; setup_s is their median.
IMPORTS_PER_ROUND = 3

#: ``jit row`` commands per round; submit_p50_ms is their median.
SUBMITS_PER_ROUND = 2

#: Elements of each array when a submitted kernel is rerun on a device.
CHECK_N = 3000


@dataclass
class Round:
    imports: list[float] = field(default_factory=list)
    derive_s: float = 0.0
    perf_s: float = 0.0
    warm_s: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0
    completed: int = 0
    dumps: dict[str, list] = field(default_factory=dict)


def split_stats(stdout: str) -> tuple[str, list[str]]:
    """(command output, ``[stats]`` footer lines) of a ``--stats`` run."""
    at = stdout.find("[stats]")
    if at < 0:
        return stdout, []
    return stdout[:at], stdout[at:].splitlines()


def bad_store_ok(fin: procs.Finished) -> bool:
    """``eval --store <file>`` is handled when it exits 2 with one line."""
    lines = [ln for ln in fin.stderr.splitlines() if ln.strip()]
    return (fin.code == 2 and len(lines) == 1
            and "Traceback" not in fin.stderr)


class Session:
    def __init__(self, ctx):
        self.ctx = ctx
        self.tally = ctx.tally
        self.submitted: list[inputs.GeneratedKernel] = []

    def _cmd(self, rnd: Round, op: str, argv: list[str],
             traced: bool) -> procs.Finished:
        if traced and argv[1:3] == ["-m", "repro.cli"]:
            out = self.ctx.work / f"trace-{time.monotonic_ns()}.json"
            argv = [argv[0], str(self.ctx.bench / "traced_cli.py"), str(out),
                    *argv[3:]]
        else:
            out = None
        fin = procs.run(argv, self.ctx.env, self.ctx.work)
        self.tally.attempted += 1
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, fin.peak_rss_mb)
        if out is not None and out.exists():
            rnd.dumps.setdefault(op, []).append(
                (fin.wall_s, json.loads(out.read_text())))
            out.unlink()
        return fin

    def _expect_ok(self, rnd: Round, fin: procs.Finished, what: str) -> bool:
        if fin.code != 0:
            self.tally.failed += 1
            self.ctx.log(f"{what} exited {fin.code}: {fin.stderr[-500:]}")
            return False
        rnd.completed += 1
        return True

    def cold_and_warm(self, rnd: Round, store: Path,
                      traced: bool) -> str | None:
        """Cold ``eval`` and ``perf`` into ``store``, then :meth:`warm`;
        returns the cold ``perf`` output."""
        g = procs.gpu_compat
        fin = self._cmd(rnd, "derive",
                        g("--stats", "eval", "--store", str(store)), traced)
        if self._expect_ok(rnd, fin, "cold eval"):
            rnd.derive_s = fin.net_s
            cells = [json.loads(p.read_text())
                     for p in sorted((store / "cells").glob("*.json"))]
            checks.derived_ratings(cells)

        fin = self._cmd(rnd, "perf", g("--stats", "perf", "--store",
                                       str(store), "--format", "json"), traced)
        cold_json = None
        if self._expect_ok(rnd, fin, "cold perf"):
            rnd.perf_s = fin.net_s
            cold_json, _ = split_stats(fin.stdout)
            doc = checks.json_document("cold perf", cold_json)
            checks.perf_matrix(doc["cells"])
            checks.portability(doc["portability"])
        self.warm(rnd, store, traced, cold_json)
        return cold_json

    def warm(self, rnd: Round, store: Path, traced: bool,
             cold_json: str | None) -> None:
        """The three warm commands on a filled ``store``, each checked;
        ``cold_json`` is the cold ``perf`` output they must reproduce."""
        g = procs.gpu_compat
        warm = [
            ("warm eval", g("--stats", "eval", "--store", str(store))),
            ("warm perf", g("--stats", "perf", "--store", str(store),
                            "--format", "json")),
            ("perf --static", g("--stats", "perf", "--static",
                                "--format", "json")),
        ]
        for label, argv in warm:
            fin = self._cmd(rnd, "warm", argv, traced)
            if not self._expect_ok(rnd, fin, label):
                continue
            rnd.warm_s.append(fin.net_s)
            body, footer = split_stats(fin.stdout)
            checks.no_kernels_ran(label, footer)
            if label == "warm eval":
                if "(51 from store, 0 evaluated)" not in body:
                    raise checks.CheckFailed(f"warm eval: {body.strip()}")
            elif label == "warm perf" and cold_json is not None:
                checks.identical("warm perf --format json vs cold perf",
                                 cold_json, body)
            elif label == "perf --static" and cold_json is not None:
                from repro.analysis.perfstat import PS_TOLERANCE

                static = checks.json_document(label, body)
                measured = json.loads(cold_json)
                checks.perf_matrix(static["cells"])
                checks.static_agrees(static["cells"], measured["cells"],
                                     PS_TOLERANCE)

    def round(self, index: int, traced: bool) -> Round:
        ctx = self.ctx
        rnd = Round()
        start = time.perf_counter()
        store = ctx.work / f"store-{index}"
        g = procs.gpu_compat

        for _ in range(IMPORTS_PER_ROUND):
            fin = self._cmd(rnd, "import", [g()[0], "-c", "import repro.cli"],
                            traced=False)
            if self._expect_ok(rnd, fin, "import repro.cli"):
                rnd.imports.append(fin.net_s)

        self.cold_and_warm(rnd, store, traced)

        # Every round rates new guarded-elementwise kernels: the families
        # differ tenfold in rating time, and a round count that varies with
        # the host's speed must not change the mix submit_p50_ms sees.
        for k in range(SUBMITS_PER_ROUND):
            n = (index * SUBMITS_PER_ROUND + k) * len(inputs.FAMILIES)
            gk = inputs.kernel(ctx.seed, n)
            module = ctx.work / f"{gk.name}.py"
            module.write_text("from repro.jit import kernel\n\n\n@kernel\n"
                              + gk.source)
            fin = self._cmd(rnd, "submit", g("jit", "row", str(module),
                                             "--format", "json"), traced)
            if self._expect_ok(rnd, fin, f"jit row {gk.name}"):
                rnd.submit_s.append(fin.net_s)
                checks.submitted_row(
                    checks.json_document("jit row", fin.stdout), gk.name)
                self.submitted.append(gk)
            module.unlink()

        bad = ctx.work / "not-a-directory"
        bad.write_text("a regular file\n")
        fin = self._cmd(rnd, "bad_store", g("eval", "--store", str(bad)),
                        traced=False)
        if bad_store_ok(fin):
            rnd.completed += 1
        else:
            self.tally.failed += 1

        shutil.rmtree(store)
        rnd.wall_s = time.perf_counter() - start
        return rnd


def run(ctx) -> dict:
    session = Session(ctx)
    rounds: list[Round] = []
    traced_rounds: list[Round] = []
    start = time.perf_counter()
    clock = procs.cpu_clock()
    index = 0
    # --trace 1 alternates untraced and traced rounds, untraced first, so
    # the overhead compares the same commands run back to back.
    while not rounds or time.perf_counter() - start < ctx.seconds or (
            ctx.trace and not traced_rounds):
        traced = ctx.trace and index % 2 == 1
        rnd = session.round(index, traced)
        (traced_rounds if traced else rounds).append(rnd)
        index += 1
    window_s = time.perf_counter() - start
    net_window_s = procs.net_of_steal(window_s, clock, procs.cpu_clock())

    for gk in session.submitted:
        checks.kernel_on_device(gk, CHECK_N, ctx.seed)

    result = {}
    if ctx.trace:
        result["metrics"] = tracing_report.cli_layers(rounds, traced_rounds)
        return result

    def med(values):
        values = [v for v in values if v]
        return stats.median(values) if values else None

    warm_all = [w for r in rounds for w in r.warm_s]
    result["metrics"] = {
        "setup_s": (med([x for r in rounds for x in r.imports]), "s"),
        "derive_s": (med([r.derive_s for r in rounds]), "s"),
        "perf_s": (med([r.perf_s for r in rounds]), "s"),
        "warm_cli_ms": (med([statistics.fmean(r.warm_s) * 1e3
                             for r in rounds if r.warm_s]), "ms"),
        "peak_rss_mb": (med([r.peak_rss_mb for r in rounds]), "MB"),
        "read_p50_ms": (med([w * 1e3 for w in warm_all]), "ms"),
        "submit_p50_ms": (med([x * 1e3 for r in rounds for x in r.submit_s]),
                          "ms"),
        "requests_per_s": (sum(r.completed for r in rounds) / net_window_s,
                           "1/s"),
    }
    result["reference"] = {
        "rounds": len(rounds),
        "window_s": window_s,
        "window_net_s": net_window_s,
        "import_s": stats.summary([x for r in rounds for x in r.imports]),
        "derive_s": stats.summary([r.derive_s for r in rounds]),
        "perf_s": stats.summary([r.perf_s for r in rounds]),
        "warm_ms": stats.summary([w * 1e3 for w in warm_all]),
        "submit_ms": stats.summary([x * 1e3 for r in rounds
                                    for x in r.submit_s]),
    }
    return result
