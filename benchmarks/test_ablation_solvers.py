"""Ablation — FSteal solver backends (DESIGN.md §6.1).

The paper uses SCIP for the per-iteration MILP. This ablation compares
the greedy heuristic against the exact HiGHS MILP on (a) isolated
instances harvested from a real run (decision latency and min-max
quality) and (b) end-to-end SSSP runs.
The finding that motivates GUM's thresholds: the heuristic is ~20x
cheaper per decision at a few percent quality loss, so it is the right
default for the per-iteration hot path.
"""

import time

import numpy as np

from conftest import emit
from repro import config as repro_config
from repro.bench import Cell, cached_partition, prepare_graph, run_cell
from repro.core import (
    FStealProblem,
    GumConfig,
    OracleCostModel,
    build_cost_matrix,
    make_solver,
)
from repro.graph.features import frontier_features
from repro.hardware import dgx1, measure_comm_cost_matrix
from repro.runtime import Frontier

SOLVERS = ("greedy", "highs")


def _harvest_instances(num=6):
    """FSteal instances from the busiest iterations of a real run."""
    graph = prepare_graph("SW", "sssp")
    partition = cached_partition(graph, 8, "random")
    comm = measure_comm_cost_matrix(dgx1(8), repro_config.BYTES_PER_EDGE)
    from repro.algorithms import make_algorithm

    algorithm = make_algorithm("sssp")
    from repro.bench import pick_source

    state = algorithm.init(graph, source=pick_source("SW"))
    instances = []
    while state.frontier and state.iteration < 40:
        parts = state.frontier.split_by_owner(partition.owner, 8)
        workloads = np.array([p.work(graph) for p in parts])
        if workloads.max() > 500:
            features = [
                frontier_features(graph, p.vertices) for p in parts
            ]
            costs = build_cost_matrix(
                comm, features, OracleCostModel(),
                np.arange(8, dtype=np.int64),
            )
            instances.append(FStealProblem(costs, workloads))
        state.frontier = algorithm.step(graph, state)
        state.iteration += 1
    return instances[:num]


def _run_ablation():
    instances = _harvest_instances()
    lines = [
        "Ablation: FSteal solver backends",
        "",
        f"(a) {len(instances)} instances harvested from SSSP on SW:",
        "solver   mean_latency(ms)  mean_quality_vs_exact",
    ]
    exact = [make_solver("highs").solve(p).objective for p in instances]
    stats = {}
    for name in SOLVERS:
        solver = make_solver(name)
        start = time.perf_counter()
        objectives = [solver.solve(p).objective for p in instances]
        latency = (time.perf_counter() - start) / len(instances)
        quality = float(np.mean(
            [o / max(e, 1e-30) for o, e in zip(objectives, exact)]
        ))
        stats[name] = (latency, quality)
        lines.append(f"{name:7s}  {latency * 1e3:16.2f}  {quality:20.3f}")

    lines += ["", "(b) end-to-end SSSP on SW, 8 GPUs:",
              "solver   total(ms)  real_decision(ms)"]
    totals = {}
    for name in SOLVERS:
        result = run_cell(
            Cell("gum", "sssp", "SW", 8),
            gum_config=GumConfig(cost_model="oracle", solver=name),
        )
        totals[name] = result.total_seconds
        lines.append(
            f"{name:7s}  {result.total_ms:9.1f}  "
            f"{result.real_decision_seconds * 1e3:17.1f}"
        )
    return "\n".join(lines), stats, totals


def test_ablation_solvers(benchmark):
    text, stats, totals = benchmark.pedantic(_run_ablation, rounds=1,
                                             iterations=1)
    emit("ablation_solvers", text)
    # the heuristic is much faster per decision...
    assert stats["greedy"][0] < 0.5 * stats["highs"][0]
    # ...at bounded quality loss
    assert stats["greedy"][1] < 1.35
    # and end-to-end virtual results barely differ
    assert abs(totals["greedy"] - totals["highs"]) < 0.3 * totals["highs"]
