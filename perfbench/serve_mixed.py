"""Workload ``serve-mixed``: one ``serve`` process, one closed-loop client.

Set-up, outside the measured window: the cold and warm halves of a
``cli-session`` round fill a fresh store and check it (``derive_s`` and
``perf_s`` come from these commands; the warm half runs
``WARM_ROUNDS`` times for ``warm_cli_ms``), then ``serve --store`` is
launched ``SERVER_LAUNCHES`` times and ``setup_s`` is the
median time from launch to the first healthy ``/healthz`` reply.  The
last server stays up; one request to every read family loads what the
server builds lazily (the perf matrix from the store) before timing.

The window: one client, one connection at a time, each request sent
when the previous reply has been read.  A round is always
``READS_PER_SUBMIT`` seeded reads, then one ``POST /kernel/submit`` of
a distinct seeded kernel, repeated ``SUBMITS_PER_ROUND`` times, so every
round submits one kernel of each family.  Rounds repeat until the window
is used up.  Every reply is checked; a body byte-identical to one
already checked for the same request is not checked again.  The
reference line gives each request family's share of the window.

After the window the server is interrupted and its peak RSS read from
``wait4``; then one submitted kernel of each family, drawn by the seed,
is rerun on a simulated device and compared with its NumPy formula.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import NamedTuple

import checks
import cli_session
import inputs
import procs
import stats
import tracing_report

SERVER_LAUNCHES = 5
#: Rounds of the three warm commands in set-up; warm_cli_ms is the
#: median of their per-round means, as on cli-session.
WARM_ROUNDS = 5
#: No traffic log exists to take a mix from, so the mix is chosen:
#: reads hold about half of the window and submits the other half.  On
#: a 2-vCPU host four submits, one of each family, took 1.9 s a round
#: and one read 2.1 ms on average, hence 200; over ten seeds reads then
#: held 43-47 % of the window and submits 51-55 %.  With equal
#: shares, requests_per_s moves by the same amount when either path
#: gets faster by the same share, so neither the read path (HTTP,
#: dispatch, encoding) nor the submit path (jit compile, reference run,
#: trace misses) sets it alone.
READS_PER_SUBMIT = 200
SUBMITS_PER_ROUND = len(inputs.FAMILIES)


class Sent(NamedTuple):
    """One request of a round, in send order."""

    kind: str           # "read" or "submit"
    family: str         # read family, or "submit:<kernel family>"
    latency_s: float | None   # None when the request failed
    rid: str | None


class Client:
    """The closed-loop client of one server; checks every reply it reads.

    A request that gets no reply or a status other than 200 counts as a
    failed operation, is logged and not checked, and the client carries
    on; if the server has exited, :class:`procs.ServerFailed` ends the
    run.  A 200 reply with a wrong body is a failed check.
    """

    def __init__(self, seed: int, cells, tally, server, log):
        self.seed = seed
        self.cells = cells
        self.tally = tally
        self.server = server
        self.log = log
        self.verified: dict[tuple, bytes] = {}
        self.completed = 0
        self.submitted: list[inputs.GeneratedKernel] = []

    def read(self, index: int, rid: str | None = None) -> Sent:
        rd = inputs.read(self.seed, index, self.cells)
        params = rd.params + ((("rid", rid),) if rid is not None else ())
        reply = self._send(f"read {rd.parts}", rd.parts, params, None)
        sent = Sent("read", rd.family,
                    None if reply is None else reply.latency_s, rid)
        key = (rd.parts, rd.params)
        if reply is None or (rd.family != "healthz"
                             and self.verified.get(key) == reply.body):
            return sent
        check_read(rd, reply.json())
        self.verified[key] = reply.body
        return sent

    def submit(self, index: int, rid: str | None = None) -> Sent:
        gk = inputs.kernel(self.seed, index)
        params = (("rid", rid),) if rid is not None else ()
        reply = self._send(f"submit {gk.name}", ("kernel", "submit"), params,
                           {"source": gk.source})
        if reply is not None:
            checks.submitted_row(reply.json(), gk.name)
            self.submitted.append(gk)
        return Sent("submit", f"submit:{gk.family}",
                    None if reply is None else reply.latency_s, rid)

    def _send(self, what, parts, params, body) -> procs.Reply | None:
        self.tally.attempted += 1
        try:
            reply = procs.request(self.server.port, parts, params, body)
        except OSError as exc:
            self.tally.failed += 1
            self.log(f"{what}: {exc!r}")
            if self.server.proc.poll() is not None:
                raise procs.ServerFailed(
                    f"serve exited {self.server.proc.returncode} while "
                    f"serving") from exc
            return None
        if reply.status != 200:
            self.tally.failed += 1
            self.log(f"{what}: HTTP {reply.status} {reply.body[:300]!r}")
            return None
        self.completed += 1
        return reply

    def round(self, r: int, rid_prefix: str | None = None) -> list[Sent]:
        """Round ``r``: its requests in send order."""
        out = []
        for s in range(SUBMITS_PER_ROUND):
            for k in range(READS_PER_SUBMIT):
                i = (r * SUBMITS_PER_ROUND + s) * READS_PER_SUBMIT + k
                rid = f"{rid_prefix}r{i}" if rid_prefix is not None else None
                out.append(self.read(i, rid))
            i = r * SUBMITS_PER_ROUND + s
            rid = f"{rid_prefix}s{i}" if rid_prefix is not None else None
            out.append(self.submit(i, rid))
        return out


def check_read(rd: inputs.Read, doc: dict) -> None:
    if rd.family == "healthz":
        if doc["status"] != "ok" or not doc["built"] or doc["cells"] != 51:
            raise checks.CheckFailed(f"/healthz: {doc}")
    elif rd.family == "cell":
        checks.cell_rating(doc)
    elif rd.family == "table":
        if doc["format"] == "yaml":
            checks.table_yaml(doc["table"])
        else:
            checks.table_text(doc["table"])
    elif rd.family == "advise":
        checks.advice(dict(rd.params), doc["recommendations"])
    elif rd.family == "perf_cell":
        checks.perf_cells([doc])
    elif rd.family == "perf_matrix":
        checks.perf_matrix(doc["cells"])
    elif rd.family == "perf_portability":
        checks.portability(doc["rows"])


def _warm_up(client: Client) -> None:
    """One untimed read of every family (loads the perf matrix)."""
    seen = set()
    i = -1
    while len(seen) < len(inputs.READ_FAMILIES):
        rd = inputs.read(client.seed, i, client.cells)
        if rd.family not in seen:
            client.read(i)
            seen.add(rd.family)
        i -= 1


def _launch(ctx, argv: list[str]) -> procs.Server:
    """Start one server; a start that fails is a failed operation."""
    ctx.tally.attempted += 1
    try:
        return procs.Server(argv, ctx.env, ctx.work)
    except procs.ServerFailed:
        ctx.tally.failed += 1
        raise


def _mean_ms(values: list[float]) -> float | None:
    return statistics.fmean(values) * 1e3 if values else None


def run(ctx) -> dict:
    session = cli_session.Session(ctx)
    prefill = cli_session.Round()
    store = ctx.work / "store"
    cold_json = session.cold_and_warm(prefill, store, ctx.trace)
    warm_ms = [_mean_ms(prefill.warm_s)]
    for _ in range(WARM_ROUNDS - 1):
        again = cli_session.Round()
        session.warm(again, store, ctx.trace, cold_json)
        warm_ms.append(_mean_ms(again.warm_s))
    warm_ms = [w for w in warm_ms if w is not None]
    cells = checks.cell_names()
    serve = procs.gpu_compat("serve", "--store", str(store), "--port", "0")

    if ctx.trace:
        return _run_traced(ctx, prefill, serve, cells)

    setups = []
    for _ in range(SERVER_LAUNCHES - 1):
        server = _launch(ctx, serve)
        setups.append(server.setup_s)
        server.stop()
    server = _launch(ctx, serve)
    setups.append(server.setup_s)
    client = Client(ctx.seed, cells, ctx.tally, server, ctx.log)
    reads_ms: list[float] = []
    submits_ms: list[float] = []
    busy_s: dict[str, float] = {}
    try:
        _warm_up(client)
        client.completed = 0
        start = time.perf_counter()
        net_window_s = 0.0
        r = 0
        while r == 0 or time.perf_counter() - start < ctx.seconds:
            clock, t0 = procs.cpu_clock(), time.perf_counter()
            sent = client.round(r)
            wall = time.perf_counter() - t0
            net = procs.net_of_steal(wall, clock, procs.cpu_clock())
            # a request's latency, net of steal, in its round's proportion
            for req in sent:
                if req.latency_s is None:
                    continue
                busy_s[req.family] = (busy_s.get(req.family, 0.0)
                                      + req.latency_s)
                (reads_ms if req.kind == "read" else submits_ms).append(
                    req.latency_s * net / wall * 1e3)
            net_window_s += net
            r += 1
        window_s = time.perf_counter() - start
    finally:
        code = server.stop()
    if code != 0:
        raise checks.CheckFailed(f"serve exited {code} on interrupt")
    _check_sample(ctx, client.submitted)

    def med(values):
        return stats.median(values) if values else None

    return {
        "metrics": {
            "setup_s": (stats.median(setups), "s"),
            "derive_s": (prefill.derive_s or None, "s"),
            "perf_s": (prefill.perf_s or None, "s"),
            "warm_cli_ms": (med(warm_ms), "ms"),
            "peak_rss_mb": (server.peak_rss_mb, "MB"),
            "read_p50_ms": (med(reads_ms), "ms"),
            "submit_p50_ms": (med(submits_ms), "ms"),
            "requests_per_s": (client.completed / net_window_s, "1/s"),
        },
        "reference": {
            "rounds": r,
            "window_s": window_s,
            "window_net_s": net_window_s,
            "reads_ms": stats.summary(reads_ms),
            "submits_ms": stats.summary(submits_ms),
            # each request family's client-observed time, as a share of
            # the window (wall time, steal included on both sides)
            "window_share": {f: round(t / window_s, 4)
                             for f, t in sorted(busy_s.items())},
            "setup_s": setups,
            "prefill_peak_rss_mb": prefill.peak_rss_mb,
        },
    }


def _check_sample(ctx, submitted: list[inputs.GeneratedKernel]) -> None:
    """Rerun one submitted kernel of each family, drawn by the seed."""
    rng = random.Random(f"sample:{ctx.seed}")
    for family in inputs.FAMILIES:
        pool = [gk for gk in submitted if gk.family == family]
        if pool:
            checks.kernel_on_device(rng.choice(pool), cli_session.CHECK_N,
                                    ctx.seed)


def _run_traced(ctx, prefill, serve, cells) -> dict:
    """Same requests to an untraced and a traced server, round by round."""
    trace_out = ctx.work / "serve-trace.json"
    traced_argv = [serve[0], str(ctx.bench / "traced_cli.py"),
                   str(trace_out), *serve[3:]]
    plain = _launch(ctx, serve)
    try:
        traced = _launch(ctx, traced_argv)
    except procs.ServerFailed:
        plain.stop()
        raise
    plain_client = Client(ctx.seed, cells, ctx.tally, plain, ctx.log)
    traced_client = Client(ctx.seed, cells, ctx.tally, traced, ctx.log)
    pairs = []
    try:
        _warm_up(plain_client)
        _warm_up(traced_client)
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < ctx.seconds:
            a = plain_client.round(r, rid_prefix="p")
            b = traced_client.round(r, rid_prefix="t")
            pairs.extend((x, y) for x, y in zip(a, b)
                         if x.latency_s is not None
                         and y.latency_s is not None)
            r += 1
    finally:
        codes = (plain.stop(), traced.stop())
    if codes != (0, 0):
        raise checks.CheckFailed(f"serve exited {codes} on interrupt")
    _check_sample(ctx, traced_client.submitted)
    dump = json.loads(trace_out.read_text())
    return {
        "metrics": tracing_report.serve_layers(prefill, dump, pairs),
    }
