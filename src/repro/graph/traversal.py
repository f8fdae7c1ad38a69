"""Breadth-first traversal and connectivity over :class:`DiGraph`.

Searches run in scipy's compiled ``csgraph`` routines on the graph's
structure with unit data (:func:`unit_matrix`). :func:`bfs_levels` turns a
``breadth_first_order`` search into hop levels, and every hop distance in
the library (bank seeds, cluster eccentricities, diameter probes) comes
from it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from repro.exceptions import NodeError
from repro.graph.digraph import DiGraph

__all__ = [
    "unit_matrix",
    "bfs_levels",
    "bfs_distances",
    "bfs_tree",
    "weakly_connected_components",
    "strongly_connected_components",
    "is_weakly_connected",
    "estimate_diameter",
]

_UNREACHED = -1


def unit_matrix(graph: DiGraph) -> csr_matrix:
    """*graph*'s edges as a scipy CSR matrix with every entry 1.0.

    Searches read only the structure; unit entries keep an edge whose
    stored weight is 0 an edge, whatever scipy does with zero entries.
    """
    indptr, indices = graph.scipy_index()
    n = graph.num_nodes
    return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def bfs_levels(matrix: csr_matrix, source: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, levels)``: the nodes reached from *source* in BFS order,
    and the hop distance of each, along *matrix*'s rows (out-edges).

    A BFS queue appends a node's children when it pops the node, so the
    parents' positions in *order* never decrease along it: the nodes of
    level ``L + 1`` are the run whose parents sit in level ``L``, found by
    one ``searchsorted`` per level.
    """
    order, pred = breadth_first_order(
        matrix, source, directed=True, return_predecessors=True
    )
    position = np.empty(matrix.shape[0], dtype=np.int64)
    position[order] = np.arange(order.size)
    parent_position = position[pred[order[1:]]]
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(1 + int(np.searchsorted(parent_position, bounds[-1])))
    levels = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return order, levels


def bfs_distances(graph: DiGraph, sources: int | list[int]) -> np.ndarray:
    """Hop distances from *sources* (a node or a set of nodes) to every node.

    Unreachable nodes get ``-1`` (every node does for an empty source list).
    The search starts from a virtual node with an edge to each source, so
    any number of sources costs one BFS.
    """
    n = graph.num_nodes
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size and (sources[0] < 0 or sources[-1] >= n):
        raise NodeError(f"sources must lie in [0, {n - 1}]")
    indptr = np.append(graph.indptr, graph.num_edges + sources.size)
    indices = np.concatenate([graph.indices, sources])
    matrix = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n + 1, n + 1))
    order, levels = bfs_levels(matrix, n)
    dist = np.full(n, _UNREACHED, dtype=np.int64)
    dist[order[1:]] = levels[1:] - 1
    return dist


def bfs_tree(graph: DiGraph, source: int) -> np.ndarray:
    """BFS predecessor array from *source* (``-1`` for source/unreached)."""
    _, pred = breadth_first_order(
        unit_matrix(graph), source, directed=True, return_predecessors=True
    )
    pred = pred.astype(np.int64)
    pred[pred < 0] = _UNREACHED
    return pred


def weakly_connected_components(graph: DiGraph) -> np.ndarray:
    """Label array: ``labels[v]`` is the weak-component id of node ``v``.

    Components are numbered in the order of their lowest node.
    """
    _, labels = connected_components(
        unit_matrix(graph), directed=True, connection="weak"
    )
    return labels.astype(np.int64)


def strongly_connected_components(graph: DiGraph) -> np.ndarray:
    """Label array: ``labels[v]`` is the strong-component id of node ``v``
    (two nodes share one iff each reaches the other)."""
    _, labels = connected_components(
        unit_matrix(graph), directed=True, connection="strong"
    )
    return labels.astype(np.int64)


def is_weakly_connected(graph: DiGraph) -> bool:
    """True iff the graph has a single weakly connected component."""
    if graph.num_nodes == 0:
        return True
    return int(weakly_connected_components(graph).max()) == 0


def estimate_diameter(graph: DiGraph, *, n_probes: int = 4, seed=None) -> int:
    """Lower-bound estimate of the (hop) diameter via repeated double-BFS.

    Used to size bank-bin ground distances when exact cluster diameters are
    too expensive; a lower bound is acceptable there because callers scale it.
    """
    from repro.utils.rng import as_rng

    n = graph.num_nodes
    if n == 0:
        return 0
    rng = as_rng(seed)
    undirected = graph.to_undirected()
    best = 0
    for _ in range(max(1, n_probes)):
        start = int(rng.integers(n))
        d1 = bfs_distances(undirected, start)
        far = int(np.argmax(d1))
        d2 = bfs_distances(undirected, far)
        best = max(best, int(d2.max()))
    return best
