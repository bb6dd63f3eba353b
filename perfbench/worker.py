"""One workload process: set up, run ``engine.run`` repeatedly, check it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode plain|traced --started T

``--started`` is the parent's ``time.monotonic()`` just before it
spawned this interpreter (the clock is system-wide on Linux), so
``setup_s`` runs from interpreter start to the first ``engine.run``.
Runs repeat until their summed wall time reaches ``--seconds``; every
run's output is checked against the oracle outside the timed window.
In ``traced`` mode untraced and traced runs alternate, and the report
carries the per-layer self times of the median traced run.

Prints one JSON object on stdout; run.py aggregates it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers

SRC = Path(__file__).resolve().parent.parent / "src"


def _layer_metrics(tracer, result, run_layers) -> dict:
    metrics = {}
    for layer in run_layers:
        name = layers.metric_name
        metrics[name(layer, "s")] = tracer.self_s.get(layer, 0.0)
        metrics[name(layer, "calls")] = tracer.calls.get(layer, 0)
    metrics["bsp.other_s"] = tracer.self_s[layers.ROOT]
    metrics["traced_wall_s"] = tracer.inclusive_s[layers.ROOT]
    metrics["decision.real_s"] = result.real_decision_seconds
    stats = result.decision_stats or {}
    lookups = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
    metrics["decision.cache_lookups"] = lookups
    metrics["decision.cache_hits"] = int(stats.get("hits", 0))
    metrics["decision.cache_hit_ratio"] = (
        metrics["decision.cache_hits"] / lookups if lookups else 0.0
    )
    iterations = result.iterations
    groups = [r.osteal_group_size for r in iterations
              if r.osteal_group_size is not None]
    metrics["supersteps"] = len(iterations)
    metrics["frontier_edges"] = int(sum(r.frontier_edges for r in iterations))
    metrics["fsteal.iterations"] = sum(
        1 for r in iterations if r.fsteal_applied
    )
    metrics["fsteal.stolen_edges"] = int(
        sum(r.stolen_edges for r in iterations)
    )
    metrics["osteal.min_group"] = min(groups) if groups else result.num_gpus
    return metrics


def _traced_checks(workload, tracer, run_layers) -> list:
    """Self-checks of one traced run; returns the failures found."""
    failures = [
        f"wrapped layer {layer!r} never fired on {workload.name}"
        for layer in sorted(workload.layers)
        if tracer.calls.get(layer, 0) == 0
    ]
    unknown = workload.layers - set(run_layers)
    if unknown:
        failures.append(f"expected layers not wrapped: {sorted(unknown)}")
    wall = tracer.inclusive_s[layers.ROOT]
    total = sum(tracer.self_s.values())
    if abs(total - wall) > 1e-9 * max(1.0, wall):
        failures.append(
            f"self times sum to {total!r} s, traced wall is {wall!r} s"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"),
                        required=True)
    parser.add_argument("--started", type=float, required=True)
    args = parser.parse_args(argv)

    start = time.monotonic()
    import repro

    import_s = time.monotonic() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced = args.mode == "traced"
    tracer = layers.LayerTracer() if traced else layers.NullTracer()
    if traced:
        tracer.record("import", import_s)
    inputs = workloads.build(workload, args.seed, tracer)
    setup_s = time.monotonic() - args.started
    report = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "runs": [],
    }
    if traced:
        report["setup_layers"] = {
            layers.metric_name(layer, "s"): seconds
            for layer, seconds in tracer.self_s.items()
        }
    run_layers = list(dict.fromkeys(
        layer for __, __, layer in layers.run_targets(inputs.config)
    ))
    runs, outputs = report["runs"], []
    spent = 0.0

    def attempt(with_trace: bool) -> bool:
        nonlocal spent
        gc.collect()
        start = time.perf_counter()
        try:
            result = (layers.traced_run(tracer, inputs) if with_trace
                      else inputs.run())
        except Exception as exc:  # a failing run is counted, never dropped
            traceback.print_exc(file=sys.stderr)
            runs.append({"error": f"{type(exc).__name__}: {exc}"})
            return False
        wall = time.perf_counter() - start
        spent += wall
        record = {
            "wall_s": wall,
            "virtual_ms": result.total_ms,
            "frontier_edges": int(
                sum(r.frontier_edges for r in result.iterations)
            ),
        }
        if with_trace:
            record["traced"] = True
            record["checks"] = _traced_checks(workload, tracer, run_layers)
            record["layers"] = _layer_metrics(tracer, result, run_layers)
        runs.append(record)
        outputs.append((record, result.values))
        return True

    while not runs or spent < args.seconds:
        if not attempt(False) or (traced and not attempt(True)):
            break

    traced_runs = [r for r in runs if "traced" in r]
    plain_walls = [r["wall_s"] for r in runs
                   if "wall_s" in r and "traced" not in r]
    if traced_runs and plain_walls:
        ordered = sorted(traced_runs, key=lambda r: r["wall_s"])
        report["layers"] = dict(ordered[(len(ordered) - 1) // 2]["layers"])
        report["layers"]["trace_overhead_pct"] = 100.0 * (
            statistics.median(r["wall_s"] for r in traced_runs)
            / statistics.median(plain_walls) - 1.0
        )
    # read before the oracle runs, so its memory is not the program's
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    expected = workloads.reference(workload, inputs)
    for record, values in outputs:
        record["output_ok"] = workloads.output_matches(
            workload, values, expected
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
