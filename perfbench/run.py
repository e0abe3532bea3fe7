"""End-to-end benchmark of the gpu-compat program.

    python3 perfbench/run.py --workload cli-session|serve-mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the program in ``src/`` only
through its CLI, its HTTP API and its public functions, checks every
output it reads, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end figures of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer figures of a separate traced run.
A line of reference figures (tails with their sample counts, round
counts) comes before it.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: The end-to-end metrics every --trace 0 run prints, with their units.
END_TO_END = (("setup_s", "s"), ("derive_s", "s"), ("perf_s", "s"),
              ("warm_cli_ms", "ms"), ("peak_rss_mb", "MB"),
              ("read_p50_ms", "ms"), ("submit_p50_ms", "ms"),
              ("requests_per_s", "1/s"))


@dataclass
class Context:
    bench: Path
    work: Path
    env: dict
    seed: int
    seconds: float
    trace: bool
    #: every operation of the run, counted as it is attempted
    tally: procs.Tally

    @staticmethod
    def log(message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import cli_session
    import procs
    import serve_mixed
    import tracing_report

    # Byte-compile the program once, so no measured import pays for it
    # and the first run of a checkout measures what later runs measure.
    compileall.compile_dir(str(SRC), quiet=1)

    runs = ROOT / ".perfbench_run"
    work = runs / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(bench=BENCH, work=work, env=procs.child_env(SRC),
                  seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  tally=procs.Tally())
    workload = {"cli-session": cli_session,
                "serve-mixed": serve_mixed}[args.workload]
    try:
        result = workload.run(ctx)
    except checks.CheckFailed as exc:
        ctx.log(f"output check failed: {exc}")
        return verdict(False, ctx.tally, {})
    except procs.ServerFailed as exc:
        ctx.log(f"no server to measure: {exc}")
        return verdict(True, ctx.tally, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass  # another run still uses it

    if "reference" in result:
        print("reference: " + json.dumps(result["reference"]))
    want = tracing_report.PER_LAYER if ctx.trace else END_TO_END
    got = tuple((k, unit) for k, (_, unit) in result["metrics"].items())
    if got != want:
        raise AssertionError(f"metrics {got} are not {want}")
    metrics = {k: v for k, v in result["metrics"].items() if v[0] is not None}
    if len(metrics) < len(want):
        ctx.log("no successful sample for " + ", ".join(
            k for k, _ in want if k not in metrics))
    return verdict(True, ctx.tally, metrics,
                   complete=len(metrics) == len(want))


def verdict(correct: bool, tally, metrics: dict,
            complete: bool = False) -> int:
    """Print the result line; the exit code is 0 only for a correct run
    that measured every metric."""
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and complete else 1

if __name__ == "__main__":
    sys.exit(main())
