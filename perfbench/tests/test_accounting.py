"""Failure counting: which outcomes count as failed operations."""

import http.server
import json
import socket
import sys
import threading
from pathlib import Path

import pytest

import checks
import cli_session
import procs
import run
import serve_mixed


def finished(code, stderr):
    return procs.Finished(["gpu-compat"], code, 0.1, 50.0, "", stderr)


def test_bad_store_counts_failed_until_it_is_a_usage_error():
    traceback = ("Traceback (most recent call last):\n  File ...\n"
                 "NotADirectoryError: [Errno 20] Not a directory\n")
    assert not cli_session.bad_store_ok(finished(1, traceback))
    assert not cli_session.bad_store_ok(finished(2, traceback))
    assert not cli_session.bad_store_ok(finished(1, "gpu-compat eval: x\n"))
    assert not cli_session.bad_store_ok(finished(2, "line one\nline two\n"))
    assert cli_session.bad_store_ok(
        finished(2, "gpu-compat eval: --store: not a directory\n"))


class _Ctx:
    def __init__(self, work):
        self.work = work
        self.tally = procs.Tally()
        self.env = procs.child_env(Path(__file__).resolve().parents[2]
                                   / "src")
        self.messages = []

    def log(self, message):
        self.messages.append(message)


def test_every_command_is_attempted_and_nonzero_exits_fail(tmp_path):
    session = cli_session.Session(_Ctx(tmp_path))
    rnd = cli_session.Round()
    ok = session._cmd(rnd, "x", [sys.executable, "-c", "pass"], False)
    bad = session._cmd(rnd, "x", [sys.executable, "-c", "raise SystemExit(3)"],
                       False)
    assert session._expect_ok(rnd, ok, "ok")
    assert not session._expect_ok(rnd, bad, "bad")
    assert (session.tally.attempted, session.tally.failed) == (2, 1)
    assert rnd.completed == 1 and rnd.peak_rss_mb > 0
    assert "bad exited 3" in session.ctx.messages[0]


class _Server:
    """Stands for a procs.Server: a port and a process that may have ended."""

    def __init__(self, port, exited=None):
        self.port = port
        self.proc = type("Proc", (), {"poll": lambda _: exited,
                                       "returncode": exited})()


def _refusing_port(s):
    s.bind(("127.0.0.1", 0))
    return s.getsockname()[1]  # bound, never listening: refused


def test_refused_request_counts_failed_and_the_client_carries_on():
    tally, log = procs.Tally(), []
    with socket.socket() as s:
        client = serve_mixed.Client(1, [("AMD", "HIP", "C++")], tally,
                                    _Server(_refusing_port(s)), log.append)
        sent = [client.read(0), client.submit(0)]
    assert [x.latency_s for x in sent] == [None, None]
    assert (tally.attempted, tally.failed) == (2, 2)
    assert client.completed == 0 and client.submitted == [] and len(log) == 2


def test_a_dead_server_ends_the_run():
    tally = procs.Tally()
    with socket.socket() as s:
        client = serve_mixed.Client(1, [("AMD", "HIP", "C++")], tally,
                                    _Server(_refusing_port(s), exited=1),
                                    lambda _: None)
        with pytest.raises(procs.ServerFailed, match="exited 1"):
            client.read(0)
    assert (tally.attempted, tally.failed) == (1, 1)


class _Failing(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.send_response(500)
        self.end_headers()
        self.wfile.write(b'{"error": "server_error"}')

    def log_message(self, *args):
        pass


def test_a_run_with_a_failed_request_prints_its_failed_count(
        monkeypatch, capsys):
    """A submit answered with HTTP 500 is counted, and the result line
    carries the real counts even when an output check then fails."""
    httpd = http.server.HTTPServer(("127.0.0.1", 0), _Failing)
    thread = threading.Thread(target=httpd.serve_forever)
    thread.start()

    def workload(ctx):
        client = serve_mixed.Client(1, [], ctx.tally,
                                    _Server(httpd.server_address[1]), ctx.log)
        for i in range(3):
            assert client.submit(i).latency_s is None
        raise checks.CheckFailed("stop here")

    monkeypatch.setattr(serve_mixed, "run", workload)
    try:
        code = run.main(["--workload", "serve-mixed", "--seed", "1",
                         "--seconds", "1"])
    finally:
        httpd.shutdown()
        thread.join()
        httpd.server_close()
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert last == {"correct": False, "attempted": 3, "failed": 3,
                    "metrics": {}}


def test_split_stats_separates_the_footer():
    body, footer = cli_session.split_stats(
        '{"a": 1}\n[stats] compile cache: 1 hits\n[stats] interpreter: 0 '
        'launches\n')
    assert body == '{"a": 1}\n'
    assert footer == ["[stats] compile cache: 1 hits",
                      "[stats] interpreter: 0 launches"]
    assert cli_session.split_stats("plain\n") == ("plain\n", [])


def test_net_time_takes_out_the_stolen_share_of_busy_time():
    assert procs.net_of_steal(2.0, (100, 5), (300, 5)) == 2.0
    # one busy CPU, a quarter of it stolen: wall minus the steal
    assert procs.net_of_steal(2.0, (0, 0), (200, 50)) == 1.5
    # two busy CPUs, the same steal: wall minus half of it
    assert procs.net_of_steal(2.0, (0, 0), (400, 50)) == 1.75
    assert procs.net_of_steal(2.0, (7, 1), (7, 1)) == 2.0  # no clock
    busy, steal = procs.cpu_clock()
    assert busy >= steal >= 0
