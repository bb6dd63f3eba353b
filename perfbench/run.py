"""GUM benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload road-longtail --seed 0 \\
        --seconds 25 --trace 0

Run from the root of a checkout. Every measurement happens in a fresh
worker interpreter (``worker.py``), one at a time. ``--trace 0`` spawns
SETUP_SAMPLES workers, each setting up from scratch and then running
``engine.run`` for its share of ``--seconds``; it reports the
end-to-end metrics. ``--trace 1`` spawns one worker that alternates
untraced and traced runs and reports the per-layer metrics.

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment. A run fails when it raises, when its output
differs from the oracle, or when its virtual time differs from the
first run of the seed; failed runs are counted, never dropped, and the
result says ``"correct": false``. The exit code is non-zero, with no
result line, when no run completes or a worker cannot set up (for
instance when the checkout has no ``src/repro``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("road-longtail", "web-bulk", "social-dense")
#: fresh worker processes per untraced run; setup_s is their median
SETUP_SAMPLES = 3
#: every worker must be done this many seconds after start
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """A worker could not produce a report."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def worker_env() -> dict:
    """The parent's environment, pinned to this checkout's sources.

    BLAS/OpenMP pools are capped at ``nproc``; ``REPRO_SCALE`` is fixed
    at 1 so the Table-II stand-ins have their published sizes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_SCALE"] = "1"
    cores = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = cores
        env[var] = str(max(1, min(current, cores)))
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha1 over ``src/`` (paths and bytes): the code measured."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spawn(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run one worker to completion and parse its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--started", repr(started)],
            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
            timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s limit") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1])


def judge(reports) -> tuple:
    """Count failed runs; returns ``(completed_runs, attempted, failed)``.

    The seed's reference virtual time is the first completed run's.
    Metrics come from every completed run, failed or not, so a wrong
    answer still reports its timings next to ``"correct": false``.
    """
    runs = [run for report in reports for run in report["runs"]]
    completed = [run for run in runs if "error" not in run]
    first = completed[0]["virtual_ms"] if completed else None
    failed = 0
    for run in runs:
        if ("error" in run or not run["output_ok"]
                or run["virtual_ms"] != first or run.get("checks")):
            failed += 1
            print(f"failed run: {json.dumps(run)[:400]}", file=sys.stderr)
    return completed, len(runs), failed


def end_to_end(reports, runs, attempted, failed) -> dict:
    wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "wall_s": (wall, "s"),
        "edges_per_s": (runs[0]["frontier_edges"] / wall, "1/s"),
        "virtual_ms": (runs[0]["virtual_ms"], "ms"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_mb"] for r in reports), "MB",
        ),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(report) -> dict:
    layers = {**report["setup_layers"], **report["layers"]}
    return {name: (value, _unit(name)) for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            reports = [spawn(args, "traced", args.seconds, deadline)]
        else:
            share = args.seconds / SETUP_SAMPLES
            reports = [spawn(args, "plain", share, deadline)
                       for __ in range(SETUP_SAMPLES)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    completed, attempted, failed = judge(reports)
    if not completed:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    if args.trace:
        if "layers" not in reports[0]:
            print("perfbench: no traced run completed", file=sys.stderr)
            return 1
        metrics = per_layer(reports[0])
    else:
        metrics = end_to_end(reports, completed, attempted, failed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha1": source_digest(),
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        **reports[0]["versions"],
    }
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
