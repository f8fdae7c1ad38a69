"""Dijkstra rows from :mod:`scipy.sparse.csgraph`.

Both functions accept ``weights`` overriding the graph's stored per-edge
weights (aligned with the CSR edge order); the SND ground-distance builder
relies on this to evaluate many cost models over one structure without
copying the graph. The pure-Python pluggable-heap Dijkstra of the paper's
§6.5 heap ablation is a test oracle (``tests/dijkstra_reference.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_nonnegative

__all__ = ["multi_source_distances", "search_matrix"]


def _edge_weights(graph: DiGraph, weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        w = graph.weights
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != graph.indices.shape:
            raise ValidationError(
                f"weights must align with the graph's {graph.num_edges} edges"
            )
    return check_nonnegative(w, "edge weights")


def search_matrix(graph: DiGraph, weights: np.ndarray | None, *, reverse: bool):
    """The scipy CSR matrix a search runs on: *graph* under *weights*, or
    its transpose when *reverse*.

    Built from the graph's cached scipy index arrays
    (:meth:`DiGraph.scipy_index`); the reversed matrix takes the weights
    gathered into the reverse CSR's edge order (``_rev_edge_ids``) instead
    of copying the graph into a reversed :class:`DiGraph`.
    """
    from scipy.sparse import csr_matrix

    w = _edge_weights(graph, weights)
    if reverse:
        graph._ensure_reverse()  # noqa: SLF001 - intentional internal access
        w = np.take(w, graph._rev_edge_ids)  # noqa: SLF001 - faster than w[ids]
    indptr, indices = graph.scipy_index(reverse=reverse)
    n = graph.num_nodes
    return csr_matrix((w, indices, indptr), shape=(n, n))


def multi_source_distances(
    graph: DiGraph,
    sources,
    *,
    weights: np.ndarray | None = None,
    reverse: bool = False,
    limit: float = np.inf,
    matrix=None,
) -> np.ndarray:
    """Distances from *each* source to all nodes: an ``(k, n)`` matrix.

    This is the bulk operation of the fast SND pipeline: one row per changed
    user, all sources dispatched to :func:`scipy.sparse.csgraph.dijkstra` in
    one call. With ``reverse=True``, distances are measured *into* the
    sources (i.e. along reversed edges), which Theorem 4 uses when the
    lighter side of the transportation problem supplies the Dijkstra
    sources.

    A finite *limit* stops each search at that radius: nodes at distance
    ``<= limit`` carry their exact distance (bit for bit the unlimited
    value, since a search only ever settles nodes in distance order), every
    other node reads ``inf``.

    *matrix* is ``search_matrix(graph, weights, reverse=reverse)`` when the
    caller already holds it (several searches over one cost array).
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return np.empty((0, graph.num_nodes))
    if sources.min() < 0 or sources.max() >= graph.num_nodes:
        raise ValidationError("source nodes out of range")
    if matrix is None:
        matrix = search_matrix(graph, weights, reverse=reverse)
    return np.atleast_2d(
        sp_dijkstra(matrix, directed=True, indices=sources, limit=limit)
    )
