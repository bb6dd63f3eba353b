"""Shared machinery for monotone min-propagation algorithms.

BFS, SSSP, and WCC are all instances of the same pattern: every vertex
holds a value that only ever *decreases*, and a superstep relaxes the
frontier's out-edges, activating every vertex whose value improved.
:class:`MinPropagation` implements the pattern once — including the
masked ``local_step`` the asynchronous (Groute-model) engine uses to
run a fragment to its local fixed point, which is sound precisely
because the propagation is monotone.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.gather import distinct_vertices, gather_edge_positions
from repro.runtime.frontier import Frontier

__all__ = ["MinPropagation", "relax_min", "scatter_min"]


def scatter_min(
    scratch: np.ndarray, destinations: np.ndarray, candidates: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-destination minimum of ``candidates``: ``(touched, minima)``.

    ``touched`` is the sorted distinct destinations. ``scratch`` is an
    ``inf``-filled vertex-sized buffer, restored before returning.
    ``np.minimum.at`` is order-independent, so the minima are exact.
    """
    touched = distinct_vertices(destinations, scratch.size)
    np.minimum.at(scratch, destinations, candidates)
    minima = scratch[touched]
    scratch[touched] = np.inf
    return touched, minima


def relax_min(
    state: AlgorithmState, destinations: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Lower ``state.values`` to the per-destination candidate minima.

    Returns the sorted vertices whose value improved. The ``inf``-filled
    scratch buffer lives in ``state.aux`` across supersteps.
    """
    values = state.values
    scratch = state.aux.get("scratch")
    if scratch is None:
        scratch = state.aux["scratch"] = np.full(values.size, np.inf)
    touched, minima = scatter_min(scratch, destinations, candidates)
    better = minima < values[touched]
    improved = touched[better]
    values[improved] = minima[better]
    return improved


class MinPropagation(GASAlgorithm):
    """Base class: min-aggregation over out-edges.

    Subclasses implement :meth:`candidates` (the value each edge
    offers its destination) and :meth:`init`.
    """

    monotonic = True
    # min over fragment minima equals the global min bit-for-bit in
    # float64 (min is exactly associative, unlike float addition), so
    # min-propagation supersteps can run as per-fragment partials
    supports_fragment_step = True

    def candidates(
        self,
        values: np.ndarray,
        sources: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """Candidate value delivered along each edge."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _relax(
        self,
        state: AlgorithmState,
        sources: np.ndarray,
        destinations: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> Frontier:
        """Apply min-relaxation along the given edges; return activated."""
        cand = self.candidates(state.values, sources, weights)
        return Frontier.from_sorted(relax_min(state, destinations, cand))

    # ------------------------------------------------------------------
    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Relax all out-edges of the frontier.

        The gather is memoized on the frontier, so when the engine's
        message-cost model already expanded this frontier the adjacency
        walk and the destination/weight lookups are not repeated.
        """
        sources, destinations, weights = state.frontier.gather(graph)
        return self._relax(state, sources, destinations, weights)

    def fragment_step(
        self,
        graph: CSRGraph,
        values: np.ndarray,
        vertices: np.ndarray,
        scratch: np.ndarray = None,
        edges: "tuple[np.ndarray, np.ndarray]" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-fragment partial relax: ``(touched, partial minima)``.

        Pure with respect to ``values`` — safe against a shared mapping
        read concurrently by other workers. ``scratch`` is the caller's
        reusable ``inf``-filled buffer (restored before returning).
        """
        if edges is None:
            edges = gather_edge_positions(graph, vertices)
        sources, positions = edges
        weights = (
            graph.weights[positions] if graph.weights is not None else None
        )
        cand = self.candidates(values, sources, weights)
        if scratch is None:
            scratch = np.full(graph.num_vertices, np.inf)
        return scatter_min(scratch, graph.indices[positions], cand)

    def merge_fragment_rows(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        rows: np.ndarray,
    ) -> Frontier:
        """Column-wise min over per-fragment partial rows (exact merge).

        ``min(min_f1, min_f2, ...)`` equals the global min bit-for-bit
        in float64, so the merged values and the activated frontier are
        identical to :meth:`step` over the undivided frontier.
        """
        merged = np.min(rows, axis=0)
        improved = np.flatnonzero(merged < state.values)
        state.values[improved] = merged[improved]
        return Frontier.from_sorted(improved)

    def local_step(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        frontier: Frontier,
        allowed_mask: np.ndarray,
    ) -> Frontier:
        """Relax only edges selected by ``allowed_mask`` (CSR order)."""
        sources, destinations, weights = frontier.gather(graph)
        __, positions = frontier.edge_positions(graph)
        keep = allowed_mask[positions]
        return self._relax(
            state, sources[keep], destinations[keep],
            None if weights is None else weights[keep],
        )

    # ------------------------------------------------------------------
    def _initial_state(
        self, graph: CSRGraph, values: np.ndarray, frontier: Frontier
    ) -> AlgorithmState:
        return AlgorithmState(values=values, frontier=frontier)

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        raise NotImplementedError
