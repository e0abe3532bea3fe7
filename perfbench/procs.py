"""Child processes and HTTP requests, timed from the outside.

Every command runs as a fresh process; its wall time is taken around
``fork``/``exec``/``exit`` and its peak RSS comes from ``wait4``, so the
figures are what a user of the command sees.

On a virtual machine the hypervisor may run other guests on this one's
CPUs ("steal" in ``/proc/stat``); a command then takes longer for reasons
that have nothing to do with the program.  So each timing also reads the
machine's CPU clock before and after, and its *net* time is its wall
time scaled by the share of busy CPU time that was not stolen:
``wall * (1 - steal / busy)``.  With one busy thread that is the wall
time minus the steal; with two, minus half of it.  Where ``/proc/stat``
cannot be read, the net time is the wall time.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

#: A command that has not exited by then is killed and counted failed.
COMMAND_TIMEOUT_S = 150.0

#: The CPUs this process may use when the benchmark starts.
_CPUS = sorted(os.sched_getaffinity(0))
_launches = itertools.count()


def _spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    """Start ``argv`` on the next CPU in turn, then free it to use all.

    The CPUs of a virtual machine need not be equally fast, and a child
    usually stays on the CPU it was started from.  Starting the children
    on each CPU in turn keeps a run from measuring one CPU only.
    """
    os.sched_setaffinity(0, {_CPUS[next(_launches) % len(_CPUS)]})
    try:
        proc = subprocess.Popen(argv, **kwargs)
    finally:
        os.sched_setaffinity(0, _CPUS)
    try:
        os.sched_setaffinity(proc.pid, _CPUS)
    except ProcessLookupError:
        pass  # already exited
    return proc


def cpu_clock() -> tuple[int, int]:
    """(busy, steal) ticks of all CPUs of this machine so far."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq + steal, steal


def net_of_steal(wall_s: float, before: tuple[int, int],
                 after: tuple[int, int]) -> float:
    """``wall_s`` without the share of busy CPU time that was stolen."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return wall_s * (1 - steal / busy) if busy > 0 else wall_s


@dataclass
class Tally:
    """Operations a run attempted, and those of them that failed."""

    attempted: int = 0
    failed: int = 0


class ServerFailed(RuntimeError):
    """A ``serve`` process did not come up, or died while serving."""


@dataclass
class Finished:
    argv: list[str]
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    #: wall time net of steal (see the module docstring)
    net_s: float = 0.0


def child_env(src: Path, extra: dict[str, str] | None = None) -> dict:
    """The environment of every child: the checkout's ``src`` first on the
    import path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def _reap(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for ``proc``; (exit code, peak RSS in MB) from ``wait4``."""
    while True:
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            break
        except InterruptedError:
            continue
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run(argv: list[str], env: dict, workdir: Path,
        timeout_s: float = COMMAND_TIMEOUT_S) -> Finished:
    """Run one command to completion; output is captured through files."""
    out_path = workdir / f"out-{os.getpid()}-{time.monotonic_ns()}"
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        clock = cpu_clock()
        start = time.perf_counter()
        proc = _spawn(argv, stdout=out, stderr=err, env=env,
                      stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            code, rss = _reap(proc)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        net = net_of_steal(wall, clock, cpu_clock())
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Finished(argv, code, wall, rss, stdout, stderr, net)


def gpu_compat(*args: str) -> list[str]:
    """argv of the program's CLI, as ``python -m repro.cli`` runs it."""
    return [sys.executable, "-m", "repro.cli", *args]


# -- HTTP ---------------------------------------------------------------------


@dataclass
class Reply:
    status: int
    body: bytes
    latency_s: float

    def json(self) -> dict:
        return json.loads(self.body.decode())


def request(port: int, parts: tuple[str, ...], params=(), body=None,
            timeout_s: float = 60.0) -> Reply:
    """One request on a fresh connection; timed until the body is read."""
    path = "/" + "/".join(urllib.parse.quote(p, safe="") for p in parts)
    if params:
        path += "?" + urllib.parse.urlencode(list(params))
    payload = None if body is None else json.dumps(body).encode()
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        if payload is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=payload,
                         headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    return Reply(resp.status, data, time.perf_counter() - start)


class Server:
    """A ``serve`` process on an ephemeral loopback port."""

    _SERVING = re.compile(r"serving .* on http://[^:]+:(\d+)")

    def __init__(self, argv: list[str], env: dict, workdir: Path,
                 start_timeout_s: float = 60.0):
        self.stderr_path = workdir / f"serve-{time.monotonic_ns()}.err"
        self._stderr = open(self.stderr_path, "wb")
        clock = cpu_clock()
        self.started = time.perf_counter()
        self.proc = _spawn(argv, stdout=subprocess.PIPE,
                           stderr=self._stderr, env=env,
                           stdin=subprocess.DEVNULL, text=True)
        self.port = None
        self.peak_rss_mb = None
        watchdog = threading.Timer(start_timeout_s, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                m = self._SERVING.search(line)
                if m:
                    self.port = int(m.group(1))
                    break
            if self.port is None:
                self.stop()
                raise ServerFailed(
                    f"serve exited before listening: "
                    f"{self.stderr_path.read_text(errors='replace')[-2000:]}")
            try:
                reply = request(self.port, ("healthz",))
            except OSError as exc:
                self.stop()
                raise ServerFailed(f"serve refused /healthz: {exc!r}") from exc
        finally:
            watchdog.cancel()
        #: launch to first healthy /healthz reply, net of steal
        self.setup_s = net_of_steal(time.perf_counter() - self.started,
                                    clock, cpu_clock())
        if reply.status != 200 or reply.json().get("status") != "ok":
            self.stop()
            raise ServerFailed(f"serve unhealthy: {reply.body[:200]!r}")

    def stop(self, timeout_s: float = 30.0) -> int:
        """Interrupt the server (its Ctrl-C path), wait for it, reap it."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGINT)
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            code, self.peak_rss_mb = _reap(self.proc)
        finally:
            watchdog.cancel()
            self.proc.stdout.close()
            self._stderr.close()
        return code
