"""Unit tests for vectorized adjacency expansion."""

import numpy as np
import pytest

from repro.graph import rmat, with_random_weights
from repro.graph.gather import (
    distinct_vertices,
    expand_indices,
    gather_edge_positions,
    gather_edges,
    vertex_mark,
)


def test_expand_indices_simple():
    out = expand_indices(np.array([0, 10]), np.array([3, 2]))
    assert out.tolist() == [0, 1, 2, 10, 11]


def test_expand_indices_with_empty_ranges():
    out = expand_indices(np.array([5, 0, 9]), np.array([2, 0, 1]))
    assert out.tolist() == [5, 6, 9]


def test_expand_indices_all_empty():
    out = expand_indices(np.array([1, 2]), np.array([0, 0]))
    assert out.size == 0


def test_gather_edges_tiny(tiny_graph):
    src, dst, weights = gather_edges(tiny_graph, np.array([0, 3]))
    assert src.tolist() == [0, 0, 3]
    assert dst.tolist() == [1, 2, 4]
    assert weights is None


def test_gather_edges_empty(tiny_graph):
    src, dst, weights = gather_edges(tiny_graph, np.array([], dtype=np.int64))
    assert src.size == 0 and dst.size == 0 and weights is None


def test_gather_edges_weighted():
    graph = with_random_weights(rmat(8, 6, seed=1), seed=2)
    frontier = np.array([0, 5, 17], dtype=np.int64)
    src, dst, weights = gather_edges(graph, frontier)
    assert weights is not None
    assert weights.shape == dst.shape
    # weights must line up with the CSR order of each vertex
    offset = 0
    for vertex in frontier:
        deg = graph.out_degree(int(vertex))
        expected = graph.edge_weights_of(int(vertex))
        assert np.array_equal(weights[offset: offset + deg], expected)
        offset += deg


def test_gather_matches_naive_on_random_frontiers(skewed_graph):
    rng = np.random.default_rng(7)
    for __ in range(10):
        frontier = np.unique(
            rng.integers(0, skewed_graph.num_vertices, size=60)
        )
        __, dst, __w = gather_edges(skewed_graph, frontier)
        naive = (
            np.concatenate(
                [skewed_graph.neighbors(int(v)) for v in frontier]
            )
            if frontier.size
            else np.empty(0)
        )
        assert np.array_equal(dst, naive)


def test_gather_edge_positions_consistency(skewed_graph):
    frontier = np.array([1, 2, 3], dtype=np.int64)
    sources, positions = gather_edge_positions(skewed_graph, frontier)
    assert np.array_equal(
        skewed_graph.indices[positions],
        gather_edges(skewed_graph, frontier)[1],
    )
    degrees = skewed_graph.out_degrees(frontier)
    assert np.array_equal(sources, np.repeat(frontier, degrees))


@pytest.mark.parametrize("case", [
    "empty", "all-duplicate", "endpoints", "dense", "sparse",
])
def test_distinct_vertices_matches_unique(case):
    num_vertices = 1000
    rng = np.random.default_rng(7)
    vertices = {
        "empty": np.empty(0, dtype=np.int64),
        "all-duplicate": np.full(50, 17, dtype=np.int64),
        "endpoints": np.array([num_vertices - 1, 0, 5, 0,
                               num_vertices - 1]),
        "dense": rng.integers(0, num_vertices, 20 * num_vertices),
        "sparse": rng.integers(0, num_vertices, 12),
    }[case]
    expected = np.unique(vertices)
    distinct = distinct_vertices(vertices, num_vertices)
    assert distinct.dtype == np.int64
    assert np.array_equal(distinct, expected)
    mark = vertex_mark(vertices, num_vertices)
    assert mark.shape == (num_vertices,)
    assert np.count_nonzero(mark) == expected.size
