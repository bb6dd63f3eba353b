"""The in-process execution backend (default).

This is the engine's historical execution path extracted behind the
:class:`~repro.backend.base.ExecutionBackend` interface: the gather is
memoized on the frontier (so the message-cost scan and the algorithm
step share one adjacency walk), and the superstep runs on the
coordinator's arrays. Bit-for-bit identical to the pre-backend engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backend.base import ExecutionBackend, ExecutionSession
from repro.graph.gather import vertex_mark
from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["SerialBackend", "SerialSession"]


class SerialSession(ExecutionSession):
    """Runs every superstep in the coordinator process."""

    def __init__(self, graph: "CSRGraph", partition: "Partition") -> None:
        self._graph = graph
        self._partition = partition

    def message_count(
        self,
        iteration: int,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """Cross-worker message count from the memoized frontier gather."""
        sources, destinations, __ = frontier.gather(self._graph)
        if sources.size == 0:
            return 0
        worker_of = context.fragment_worker[self._partition.owner]
        cross = worker_of[sources] != worker_of[destinations]
        if not np.any(cross):
            return 0
        if aggregate:
            return int(np.count_nonzero(vertex_mark(
                destinations[cross], self._graph.num_vertices
            )))
        return int(np.count_nonzero(cross))

    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """One in-process superstep (reuses the memoized gather)."""
        return algorithm.step(graph, state)

    def stats(self) -> Optional[dict]:
        """Shard-cache counters when the graph is out-of-core."""
        cache_stats = getattr(self._graph, "cache_stats", None)
        if cache_stats is None:
            return None
        return {"backend": "serial", "shard_cache": cache_stats()}


class SerialBackend(ExecutionBackend):
    """Factory for :class:`SerialSession` (no external resources)."""

    name = "serial"

    def open(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "GASAlgorithm",
        state: "AlgorithmState",
        context: "RunContext",
    ) -> SerialSession:
        """Open an in-process session; nothing to spawn or map."""
        return SerialSession(graph, partition)
