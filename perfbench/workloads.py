"""The benchmark's workloads: inputs, engine and correctness oracle.

Every workload is one cell of the paper's evaluation matrix run by GUM
on 8 virtual GPUs with the serial backend. Graphs are the Table-II
stand-ins, generated in the worker process through
``repro.bench.workloads.prepare_graph`` (each worker is a fresh
interpreter, so its caches never hide generation); the benchmark seed
selects the ``random`` partition, so every seed keeps the workload's
superstep structure and moves only where the work lands.

Imported by the worker process after ``import repro`` has been timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np

from repro.algorithms.validate import (
    reference_pagerank,
    reference_sssp,
    reference_wcc,
)
from repro.bench.workloads import (
    PR_PARAMS,
    algorithm_params,
    make_engine,
    prepare_graph,
)
from repro.core import GumConfig
from repro.graph.csr import CSRGraph
from repro.partition import make_partition

NUM_GPUS = 8
PARTITIONER = "random"
#: seed whose inputs equal the repository's own benchmark cell
#: (``datasets.load`` + ``cached_partition``)
DEFAULT_SEED = 0
#: seed held out from tuning: a claimed gain must also hold on it
HOLDOUT_SEED = 1
#: largest |rank - reference| accepted for PageRank; the engine and the
#: dense oracle sum contributions in different orders
PR_MAX_ABS_ERROR = 1e-12

# layers every workload exercises (see layers.run_targets)
_COMMON_LAYERS = frozenset({
    "frontier.split", "features", "decision.plan", "decision.observe",
    "decision.fsteal_solve", "costmodel.predict", "pricing",
    "backend.open", "backend.close", "backend.message_count",
    "backend.step", "obs.emit",
})


@dataclass(frozen=True)
class Workload:
    """One benchmark cell and the run layers that must fire on it."""

    name: str
    abbr: str
    algorithm: str
    cost_model: str
    layers: FrozenSet[str]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("road-longtail", "USA", "sssp", "default",
                 _COMMON_LAYERS | {"decision.osteal"}),
        Workload("web-bulk", "WB", "wcc", "oracle",
                 _COMMON_LAYERS | {"decision.osteal"}),
        Workload("social-dense", "SW", "pr", "oracle",
                 _COMMON_LAYERS),
    ]
}


@dataclass
class Inputs:
    """Everything one workload process runs, built during set-up."""

    graph: CSRGraph
    partition: object
    algorithm: str
    params: dict
    config: GumConfig
    engine: object

    def run(self):
        """One ``engine.run`` of the workload; returns the RunResult."""
        return self.engine.run(
            self.graph, self.partition, self.algorithm, **self.params,
        )


def build(workload: Workload, seed: int, tracer) -> Inputs:
    """Generate the graph, partition it and construct the engine.

    Each step goes through ``tracer.call`` so the traced run can time
    the graph, partition and cost-model layers of set-up. The SSSP
    source is the max-out-degree vertex of the cached stand-in.
    """
    graph = tracer.call(
        "graph.gen", prepare_graph, workload.abbr, workload.algorithm,
    )
    params = algorithm_params(workload.algorithm, workload.abbr)
    partition = tracer.call(
        "partition", make_partition, PARTITIONER, graph, NUM_GPUS, seed=seed,
    )
    config = GumConfig(cost_model=workload.cost_model)
    tracer.call("costmodel.load", config.resolve_cost_model)
    engine = make_engine("gum", NUM_GPUS, gum_config=config)
    return Inputs(graph, partition, workload.algorithm, params, config,
                  engine)


def reference(workload: Workload, inputs: Inputs) -> np.ndarray:
    """The scipy/dense oracle's answer for this workload's inputs."""
    if workload.algorithm == "sssp":
        return reference_sssp(inputs.graph, inputs.params["source"])
    if workload.algorithm == "wcc":
        return reference_wcc(inputs.graph)
    return reference_pagerank(
        inputs.graph, tol=PR_PARAMS["tol"], max_rounds=PR_PARAMS["max_rounds"],
    )


def output_matches(workload: Workload, values: np.ndarray,
                   expected: np.ndarray) -> bool:
    """SSSP and WCC must match exactly; PageRank within PR_MAX_ABS_ERROR."""
    values = np.asarray(values)
    if values.shape != expected.shape:
        return False
    if workload.algorithm == "pr":
        return float(np.max(np.abs(values - expected))) <= PR_MAX_ABS_ERROR
    return bool(np.array_equal(values, expected))
