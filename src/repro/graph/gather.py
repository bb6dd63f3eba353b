"""Vectorized adjacency expansion — the engine's hot path.

Given a frontier (vertex subset), produce the flattened arrays of all
their out-edges in one shot, without Python-level per-vertex loops.
Every superstep of every engine funnels through :func:`gather_edges`.
The execute layer then reduces the gathered destinations to their
distinct set with :func:`vertex_mark` / :func:`distinct_vertices`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["gather_edges", "gather_edge_positions", "expand_indices",
           "vertex_mark", "distinct_vertices"]


def expand_indices(
    starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Flatten ranges ``[starts[i], starts[i]+counts[i])`` into one array.

    The standard cumsum trick: output positions where a new range
    begins get a corrective jump, everything else increments by one.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    # positions where each range starts in the output
    range_starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=range_starts[1:])
    nonempty = counts > 0
    first_positions = range_starts[nonempty]
    out[first_positions] = starts[nonempty]
    # corrective jumps: undo the previous range's final value + 1
    if first_positions.size > 1:
        prev_ends = (
            starts[nonempty][:-1] + counts[nonempty][:-1]
        )
        out[first_positions[1:]] = starts[nonempty][1:] - prev_ends + 1
        out[first_positions[0]] = starts[nonempty][0]
    return np.cumsum(out)


def gather_edge_positions(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR edge positions of all out-edges of ``vertices``.

    Returns ``(sources, positions)``: ``positions[k]`` indexes into
    ``graph.indices``/``graph.weights`` and ``sources[k]`` is the
    frontier vertex owning that edge.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    indptr = graph.indptr
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    positions = expand_indices(starts, counts)
    sources = np.repeat(vertices, counts)
    return sources, positions


def gather_edges(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """All out-edges of ``vertices`` as flat parallel arrays.

    Returns ``(sources, destinations, weights)`` where ``sources[k]``
    repeats each frontier vertex once per out-edge, in CSR order, and
    ``weights`` is ``None`` for unweighted graphs.
    """
    sources, positions = gather_edge_positions(graph, vertices)
    destinations = graph.indices[positions]
    weights = None
    if graph.weights is not None:
        weights = graph.weights[positions]
    return sources, destinations, weights


def vertex_mark(vertices: np.ndarray, num_vertices: int) -> np.ndarray:
    """Boolean mark over ``[0, num_vertices)`` of the given vertex ids.

    The destination bitmap of a gathered edge list: its
    ``np.count_nonzero`` is the number of distinct destinations. One
    linear scatter over a vertex-sized array, where ``np.unique`` sorts
    the (edge-sized, heavily duplicated) input.
    """
    mark = np.zeros(num_vertices, dtype=bool)
    mark[vertices] = True
    return mark


def distinct_vertices(vertices: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted distinct entries of ``vertices`` (ids in ``[0, num_vertices)``).

    Equals ``np.unique(vertices)`` as an ``int64`` array.
    """
    return np.flatnonzero(vertex_mark(vertices, num_vertices))
