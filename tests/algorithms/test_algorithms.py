"""Correctness tests for every vertex program against scipy oracles."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, make_algorithm
from repro.algorithms.validate import (
    reference_bfs,
    reference_pagerank,
    reference_sssp,
    reference_wcc,
)
from repro.errors import EngineError
from repro.graph import (
    erdos_renyi,
    from_edges,
    path_graph,
    rmat,
    star,
    symmetrize,
    web_graph,
    with_random_weights,
)


def drive(algorithm, graph, max_iters=100_000, **params):
    """Run a vertex program to convergence without an engine."""
    state = algorithm.init(graph, **params)
    while state.frontier and state.iteration < max_iters:
        state.frontier = algorithm.step(graph, state)
        state.iteration += 1
    return state


GRAPH_FACTORIES = {
    "rmat": lambda: rmat(9, 8, seed=1),
    "er": lambda: erdos_renyi(400, 2400, seed=2),
    "web": lambda: web_graph(600, 6, seed=3),
    "path": lambda: path_graph(64),
    "star": lambda: star(50),
    "disconnected": lambda: from_edges(
        [(0, 1), (1, 0), (3, 4)], num_vertices=6
    ),
}


@pytest.mark.parametrize("factory", sorted(GRAPH_FACTORIES))
def test_bfs_matches_reference(factory):
    graph = GRAPH_FACTORIES[factory]()
    source = int(np.argmax(graph.out_degrees()))
    state = drive(make_algorithm("bfs"), graph, source=source)
    assert np.allclose(state.values, reference_bfs(graph, source))


@pytest.mark.parametrize("factory", sorted(GRAPH_FACTORIES))
def test_sssp_matches_reference(factory):
    graph = with_random_weights(GRAPH_FACTORIES[factory](), seed=4)
    source = int(np.argmax(graph.out_degrees()))
    state = drive(make_algorithm("sssp"), graph, source=source)
    assert np.allclose(state.values, reference_sssp(graph, source))


@pytest.mark.parametrize("factory", sorted(GRAPH_FACTORIES))
def test_wcc_matches_reference(factory):
    graph = symmetrize(GRAPH_FACTORIES[factory]())
    state = drive(make_algorithm("wcc"), graph)
    assert np.allclose(state.values, reference_wcc(graph))


@pytest.mark.parametrize("factory", ["rmat", "er", "web", "star"])
def test_pagerank_matches_reference(factory):
    graph = GRAPH_FACTORIES[factory]()
    state = drive(make_algorithm("pr"), graph, tol=1e-11, max_rounds=300)
    ref = reference_pagerank(graph, tol=1e-11, max_rounds=300)
    assert np.abs(state.values - ref).max() < 1e-9


def test_pagerank_rank_mass_conserved():
    graph = symmetrize(rmat(8, 6, seed=0))  # no dangling after symmetrize
    state = drive(make_algorithm("pr"), graph, tol=1e-12, max_rounds=500)
    assert state.values.sum() == pytest.approx(1.0, abs=1e-6)


def test_delta_pagerank_matches_undistributed_pr():
    graph = rmat(9, 8, seed=1)
    pr_state = drive(
        make_algorithm("pr"), graph,
        tol=1e-13, max_rounds=500, redistribute_dangling=False,
    )
    dpr_state = drive(
        make_algorithm("dpr"), graph, epsilon=1e-14, max_rounds=5000
    )
    assert np.abs(pr_state.values - dpr_state.values).max() < 1e-9


def test_delta_pagerank_frontier_shrinks():
    graph = rmat(9, 8, seed=1)
    algorithm = make_algorithm("dpr")
    state = algorithm.init(graph, epsilon=1e-9)
    sizes = []
    while state.frontier and state.iteration < 2000:
        sizes.append(state.frontier.size)
        state.frontier = algorithm.step(graph, state)
        state.iteration += 1
    # the long tail: final active sets are tiny compared to the start
    assert sizes[-1] < sizes[0] / 10


def test_bfs_param_validation(tiny_graph):
    with pytest.raises(EngineError, match="out of range"):
        make_algorithm("bfs").init(tiny_graph, source=99)
    with pytest.raises(EngineError, match="unknown BFS"):
        make_algorithm("bfs").init(tiny_graph, source=0, bogus=1)


def test_sssp_param_validation(tiny_graph):
    with pytest.raises(EngineError, match="out of range"):
        make_algorithm("sssp").init(tiny_graph, source=-1)
    negative = from_edges([(0, 1, -2.0)])
    with pytest.raises(EngineError, match="non-negative"):
        make_algorithm("sssp").init(negative, source=0)


def test_wcc_param_validation(tiny_graph):
    with pytest.raises(EngineError, match="unknown WCC"):
        make_algorithm("wcc").init(tiny_graph, source=0)


def test_pr_param_validation(tiny_graph):
    with pytest.raises(EngineError, match="damping"):
        make_algorithm("pr").init(tiny_graph, damping=1.5)
    with pytest.raises(EngineError, match="unknown PageRank"):
        make_algorithm("pr").init(tiny_graph, alpha=0.9)


def test_registry(tiny_graph):
    import repro
    from repro.errors import ReproError

    assert set(ALGORITHMS) == {
        "bfs", "sssp", "wcc", "pr", "dpr", "dsssp", "kcore",
    }
    with pytest.raises(EngineError, match="unknown algorithm"):
        make_algorithm("apsp")
    # library callers get the typed error the CLI maps to exit code 2
    with pytest.raises(ReproError, match="unknown algorithm 'foo'"):
        repro.run(tiny_graph, "foo")


def test_local_step_restricted_to_mask(tiny_graph):
    algorithm = make_algorithm("bfs")
    state = algorithm.init(tiny_graph, source=0)
    # forbid every edge: nothing can activate
    nothing = algorithm.local_step(
        tiny_graph, state, state.frontier,
        np.zeros(tiny_graph.num_edges, dtype=bool),
    )
    assert not nothing
    # allow every edge: same as a full step
    state2 = algorithm.init(tiny_graph, source=0)
    everything = algorithm.local_step(
        tiny_graph, state2, state2.frontier,
        np.ones(tiny_graph.num_edges, dtype=bool),
    )
    state3 = algorithm.init(tiny_graph, source=0)
    full = algorithm.step(tiny_graph, state3)
    assert everything == full


def test_local_step_unsupported_for_pr(tiny_graph):
    algorithm = make_algorithm("pr")
    state = algorithm.init(tiny_graph)
    with pytest.raises(NotImplementedError):
        algorithm.local_step(
            tiny_graph, state, state.frontier,
            np.ones(tiny_graph.num_edges, dtype=bool),
        )


def test_monotonic_flags():
    assert make_algorithm("bfs").monotonic
    assert make_algorithm("sssp").monotonic
    assert make_algorithm("wcc").monotonic
    assert not make_algorithm("pr").monotonic
    assert make_algorithm("wcc").needs_symmetric
    assert make_algorithm("sssp").needs_weights
