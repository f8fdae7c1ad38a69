"""Dijkstra's algorithm: a pluggable-heap reference and the scipy bulk path.

All functions accept ``weights`` overriding the graph's stored per-edge
weights (aligned with the CSR edge order); the SND ground-distance builder
relies on this to evaluate many cost models over one structure without
copying the graph.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.heaps import make_heap
from repro.utils.validation import check_nonnegative

__all__ = ["dijkstra", "dijkstra_multi", "multi_source_distances", "search_matrix"]


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


def dijkstra(
    graph: DiGraph,
    source: int,
    *,
    weights: np.ndarray | None = None,
    heap: str = "binary",
    max_cost: float | None = None,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Single-source shortest-path distances from *source*.

    Parameters
    ----------
    heap:
        ``"binary"`` (default), ``"radix"`` (integer weights only), or
        ``"pairing"``.
    max_cost:
        Required for the radix heap: an upper bound on any finite distance
        (e.g. ``U * (n - 1)`` under Assumption 2). Inferred from the weights
        when omitted.
    targets:
        Optional node set; the search stops once all targets are settled
        (distances to other nodes are still valid where computed).

    Returns
    -------
    Array of length ``n`` with ``np.inf`` for unreachable nodes.
    """
    return dijkstra_multi(
        graph, [source], weights=weights, heap=heap, max_cost=max_cost, targets=targets
    )


def dijkstra_multi(
    graph: DiGraph,
    sources,
    *,
    weights: np.ndarray | None = None,
    heap: str = "binary",
    max_cost: float | None = None,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-source Dijkstra: distance from the *nearest* source to each node.

    Multi-source runs are what the ICC ground distance needs (distance from
    the active set) and what cluster-distance computations use.
    """
    n = graph.num_nodes
    w = _edge_weights(graph, weights)
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return np.full(n, np.inf)
    if sources.min() < 0 or sources.max() >= n:
        raise ValidationError("source nodes out of range")

    if heap == "radix":
        if not np.allclose(w, np.round(w)):
            raise ValidationError("radix heap requires integer edge weights")
        if max_cost is None:
            max_edge = float(w.max()) if w.size else 0.0
            max_cost = max_edge * max(n - 1, 1)
        pq = make_heap("radix", capacity=n, max_key=int(max_cost) + 1)
    else:
        pq = make_heap(heap, capacity=n)

    dist = np.full(n, np.inf)
    settled = np.zeros(n, dtype=bool)
    for s in sources:
        dist[s] = 0.0
        pq.push(int(s), 0.0)

    remaining_targets: set[int] | None = None
    if targets is not None:
        remaining_targets = {int(t) for t in np.atleast_1d(targets)}

    indptr, indices = graph.indptr, graph.indices
    while len(pq):
        u, du = pq.pop()
        if settled[u]:
            continue
        settled[u] = True
        if remaining_targets is not None:
            remaining_targets.discard(u)
            if not remaining_targets:
                break
        lo, hi = indptr[u], indptr[u + 1]
        for k in range(lo, hi):
            v = int(indices[k])
            if settled[v]:
                continue
            alt = du + w[k]
            if alt < dist[v]:
                dist[v] = alt
                pq.push(v, alt)
    return dist


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
        w = w[graph._rev_edge_ids]  # noqa: SLF001
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
) -> np.ndarray:
    """Distances from *each* source to all nodes: an ``(k, n)`` matrix.

    This is the bulk operation of the fast SND pipeline: one row per changed
    user, all sources dispatched to :func:`scipy.sparse.csgraph.dijkstra` in
    one call. With ``reverse=True``, distances are measured *into* the
    sources (i.e. along reversed edges), which Theorem 4 uses when the
    lighter side of the transportation problem supplies the Dijkstra
    sources. Row ``i`` equals :func:`dijkstra` from ``sources[i]``.

    A finite *limit* stops each search at that radius: nodes at distance
    ``<= limit`` carry their exact distance (bit for bit the unlimited
    value, since a search only ever settles nodes in distance order), every
    other node reads ``inf``.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return np.empty((0, graph.num_nodes))
    if sources.min() < 0 or sources.max() >= graph.num_nodes:
        raise ValidationError("source nodes out of range")
    matrix = search_matrix(graph, weights, reverse=reverse)
    return np.atleast_2d(
        sp_dijkstra(matrix, directed=True, indices=sources, limit=limit)
    )
