"""Serial message count against a direct ``np.unique`` reference.

The engine prices cross-worker traffic from
:meth:`SerialSession.message_count`: with early aggregation one message
per distinct remote destination, without it one per cross edge. The
reference recomputes both straight from the gathered edge arrays for
random frontiers under random fragment-to-worker maps, including maps
that fold several fragments onto one worker.
"""

import numpy as np
import pytest

from repro.backend.serial import SerialSession
from repro.graph import rmat
from repro.graph.gather import gather_edges
from repro.partition.partitioners import make_partition
from repro.runtime.frontier import Frontier
from repro.runtime.scheduler import RunContext

NUM_FRAGMENTS = 4


def reference_count(graph, partition, fragment_worker, frontier, aggregate):
    sources, destinations, __ = gather_edges(graph, frontier.vertices)
    worker_of = fragment_worker[partition.owner]
    cross = worker_of[sources] != worker_of[destinations]
    if aggregate:
        return int(np.unique(destinations[cross]).size)
    return int(np.count_nonzero(cross))


@pytest.mark.parametrize("aggregate", [True, False])
def test_message_count_matches_unique_reference(aggregate):
    graph = rmat(8, edge_factor=8, seed=3)
    partition = make_partition("random", graph, NUM_FRAGMENTS, seed=0)
    session = SerialSession(graph, partition)
    rng = np.random.default_rng(11)
    for trial in range(20):
        fragment_worker = rng.integers(
            0, NUM_FRAGMENTS, NUM_FRAGMENTS
        ).astype(np.int64)
        context = RunContext(
            graph=graph, partition=partition, timing=None,
            fragment_home=np.arange(NUM_FRAGMENTS, dtype=np.int64),
            fragment_worker=fragment_worker,
            algorithm_name="bfs",
        )
        density = rng.uniform(0.0, 1.0)
        frontier = Frontier.from_mask(
            rng.uniform(size=graph.num_vertices) < density
        )
        expected = reference_count(
            graph, partition, fragment_worker, frontier, aggregate
        )
        assert session.message_count(
            trial, frontier, aggregate, context
        ) == expected
