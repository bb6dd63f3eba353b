"""Constructing :class:`~repro.graph.csr.CSRGraph` from edge data.

Builders accept edges in the most common interchange forms — arrays of
``(src, dst[, weight])``, Python iterables, whitespace-separated edge-list
files, and MatrixMarket coordinate files — and normalize them into a
validated CSR structure. All builders are deterministic: CSR order is
``(src, dst)``-sorted unless noted.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, _as_index_array

__all__ = [
    "from_edges",
    "from_edge_arrays",
    "symmetrize",
    "remove_self_loops",
    "coalesce_duplicates",
    "load_edge_list",
    "load_matrix_market",
    "save_edge_list",
]

EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Sequence[float]]


def from_edge_arrays(
    sources: np.ndarray,
    destinations: np.ndarray,
    num_vertices: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
    directed: bool = True,
    name: str = "graph",
    sort: bool = True,
) -> CSRGraph:
    """Build a CSR graph from parallel source/destination arrays.

    Parameters
    ----------
    sources, destinations:
        Parallel integer arrays of edge endpoints.
    num_vertices:
        Explicit vertex count; inferred as ``max id + 1`` when ``None``.
    weights:
        Optional parallel weight array.
    directed:
        Interpretation flag stored on the graph (no edges are added).
    sort:
        Sort edges by ``(src, dst)`` for a canonical CSR layout. Disable
        only when the caller guarantees sources are already grouped.
    """
    src = _as_index_array(sources, "sources").ravel()
    dst = _as_index_array(destinations, "destinations").ravel()
    if src.shape != dst.shape:
        raise GraphError("sources and destinations must be parallel arrays")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != src.shape:
            raise GraphError("weights must be parallel to the edge arrays")
        if np.isnan(weights).any():
            raise GraphError("weights must not contain NaN")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0:
            raise GraphError("vertex ids must be non-negative")
    else:
        hi = -1
    if num_vertices is None:
        num_vertices = hi + 1
    elif hi >= num_vertices:
        raise GraphError(
            f"edge endpoint {hi} out of range for num_vertices={num_vertices}"
        )

    if sort and src.size:
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        if weights is not None:
            weights = weights[order]

    counts = np.bincount(src, minlength=num_vertices).astype(np.int64)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst, weights=weights, directed=directed, name=name)


def from_edges(
    edges: Iterable[EdgeLike],
    num_vertices: Optional[int] = None,
    directed: bool = True,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(src, dst[, weight])``.

    Weights are used only if *every* edge carries one; a mix of weighted
    and unweighted tuples raises :class:`GraphError`.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    saw_weight = None
    for edge in edges:
        if len(edge) == 2:
            has_weight = False
        elif len(edge) == 3:
            has_weight = True
        else:
            raise GraphError(f"edge tuple must have 2 or 3 fields: {edge!r}")
        if saw_weight is None:
            saw_weight = has_weight
        elif saw_weight != has_weight:
            raise GraphError("cannot mix weighted and unweighted edges")
        srcs.append(int(edge[0]))
        dsts.append(int(edge[1]))
        if has_weight:
            wts.append(float(edge[2]))
    weights = np.asarray(wts, dtype=np.float64) if saw_weight else None
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        num_vertices=num_vertices,
        weights=weights,
        directed=directed,
        name=name,
    )


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` with all self-loop edges dropped."""
    src, dst = graph.edge_array()
    keep = src != dst
    weights = graph.weights[keep] if graph.weights is not None else None
    return from_edge_arrays(
        src[keep],
        dst[keep],
        num_vertices=graph.num_vertices,
        weights=weights,
        directed=graph.directed,
        name=graph.name,
    )


def coalesce_duplicates(graph: CSRGraph, reduce: str = "min") -> CSRGraph:
    """Merge parallel edges, combining weights by ``min``/``max``/``sum``.

    Unweighted graphs simply deduplicate the edge set.
    """
    if reduce not in ("min", "max", "sum"):
        raise GraphError(f"unknown reduce mode {reduce!r}")
    src, dst = graph.edge_array()
    if src.size == 0:
        return graph
    keys = src * graph.num_vertices + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    unique_mask = np.empty(keys.size, dtype=bool)
    unique_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
    group_ids = np.cumsum(unique_mask) - 1

    new_src = src[order][unique_mask]
    new_dst = dst[order][unique_mask]
    new_weights = None
    if graph.weights is not None:
        sorted_w = graph.weights[order]
        num_groups = int(group_ids[-1]) + 1
        if reduce == "sum":
            new_weights = np.zeros(num_groups, dtype=np.float64)
            np.add.at(new_weights, group_ids, sorted_w)
        else:
            fill = np.inf if reduce == "min" else -np.inf
            new_weights = np.full(num_groups, fill, dtype=np.float64)
            ufunc = np.minimum if reduce == "min" else np.maximum
            ufunc.at(new_weights, group_ids, sorted_w)
    return from_edge_arrays(
        new_src,
        new_dst,
        num_vertices=graph.num_vertices,
        weights=new_weights,
        directed=graph.directed,
        name=graph.name,
        sort=False,
    )


def symmetrize(graph: CSRGraph, reduce: str = "min") -> CSRGraph:
    """Return the undirected closure: every edge gets a reverse twin.

    Duplicates created by the union are coalesced with ``reduce``. The
    result is flagged ``directed=False``.
    """
    src, dst = graph.edge_array()
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    weights = None
    if graph.weights is not None:
        weights = np.concatenate([graph.weights, graph.weights])
    combined = from_edge_arrays(
        all_src,
        all_dst,
        num_vertices=graph.num_vertices,
        weights=weights,
        directed=False,
        name=graph.name,
    )
    return coalesce_duplicates(combined, reduce=reduce)


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def _open_text(path: Union[str, Path]) -> io.TextIOBase:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"))
    return open(path, "r")


def load_edge_list(
    path: Union[str, Path],
    directed: bool = True,
    comment_chars: str = "#%",
    name: Optional[str] = None,
) -> CSRGraph:
    """Load a whitespace-separated edge-list file (optionally gzipped).

    Lines are ``src dst`` or ``src dst weight``; lines starting with any
    character in ``comment_chars`` are skipped. Vertex ids are arbitrary
    non-negative integers and are kept as-is (the vertex count is the max
    id + 1).
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    saw_weight = None
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line[0] in comment_chars:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}"
                )
            has_weight = len(parts) == 3
            if saw_weight is None:
                saw_weight = has_weight
            elif saw_weight != has_weight:
                raise GraphError(
                    f"{path}:{lineno}: mixed weighted/unweighted lines"
                )
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if has_weight:
                wts.append(float(parts[2]))
    weights = np.asarray(wts, dtype=np.float64) if saw_weight else None
    return from_edge_arrays(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        weights=weights,
        directed=directed,
        name=name or Path(path).stem,
    )


def load_matrix_market(
    path: Union[str, Path], name: Optional[str] = None
) -> CSRGraph:
    """Load a MatrixMarket ``coordinate`` file as a graph.

    Supports ``pattern`` (unweighted) and ``real``/``integer`` (weighted)
    fields, and expands ``symmetric`` storage into both edge directions.
    Vertex ids are converted from 1-based to 0-based.
    """
    with _open_text(path) as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphError(f"{path}: missing MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[2] != "coordinate":
            raise GraphError(f"{path}: only coordinate format is supported")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("pattern", "real", "integer"):
            raise GraphError(f"{path}: unsupported field {field!r}")
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise GraphError(f"{path}: malformed size line")
        rows, cols, __ = (int(x) for x in dims)
        n = max(rows, cols)

        srcs: list[int] = []
        dsts: list[int] = []
        wts: list[float] = []
        for raw in handle:
            raw = raw.strip()
            if not raw or raw.startswith("%"):
                continue
            parts = raw.split()
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            srcs.append(u)
            dsts.append(v)
            if field != "pattern":
                wts.append(float(parts[2]))
    weights = np.asarray(wts, dtype=np.float64) if field != "pattern" else None
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    directed = symmetry != "symmetric"
    if symmetry == "symmetric":
        off_diag = src != dst
        src, dst = (
            np.concatenate([src, dst[off_diag]]),
            np.concatenate([dst, src[off_diag]]),
        )
        if weights is not None:
            weights = np.concatenate([weights, weights[off_diag]])
    return from_edge_arrays(
        src,
        dst,
        num_vertices=n,
        weights=weights,
        directed=directed,
        name=name or Path(path).stem,
    )


def save_edge_list(graph: CSRGraph, path: Union[str, Path]) -> None:
    """Write the graph as a whitespace-separated edge-list file."""
    src, dst = graph.edge_array()
    with open(path, "w") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                     f"{graph.num_edges} edges\n")
        if graph.weights is not None:
            for u, v, w in zip(src, dst, graph.weights):
                handle.write(f"{u} {v} {w:g}\n")
        else:
            for u, v in zip(src, dst):
                handle.write(f"{u} {v}\n")
