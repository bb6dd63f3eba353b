"""Vertex programs: the paper's four (BFS, SSSP, WCC, PR) plus
extensions (delta-PageRank, delta-stepping SSSP, k-core)."""

from typing import Dict, Type

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.algorithms.bfs import BFS
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.algorithms.pagerank import DeltaPageRank, PageRank
from repro.algorithms.delta_stepping import DeltaSteppingSSSP
from repro.algorithms.kcore import KCore
from repro.errors import EngineError

#: Registry keyed by the short names used throughout the benchmarks.
ALGORITHMS: Dict[str, Type[GASAlgorithm]] = {
    "bfs": BFS,
    "sssp": SSSP,
    "wcc": WCC,
    "pr": PageRank,
    "dpr": DeltaPageRank,
    "dsssp": DeltaSteppingSSSP,
    "kcore": KCore,
}


def make_algorithm(name: str) -> GASAlgorithm:
    """Instantiate a registered algorithm by short name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise EngineError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None


__all__ = [
    "AlgorithmState",
    "GASAlgorithm",
    "BFS",
    "SSSP",
    "WCC",
    "PageRank",
    "DeltaPageRank",
    "DeltaSteppingSSSP",
    "KCore",
    "ALGORITHMS",
    "make_algorithm",
]
