"""Breadth-first traversal and connectivity over :class:`DiGraph`."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = [
    "bfs_distances",
    "bfs_tree",
    "weakly_connected_components",
    "strongly_connected_components",
    "is_weakly_connected",
    "estimate_diameter",
]

_UNREACHED = -1


def bfs_distances(graph: DiGraph, sources: int | list[int]) -> np.ndarray:
    """Hop distances from *sources* (a node or a set of nodes) to every node.

    Unreachable nodes get ``-1`` (every node does for an empty source list).
    """
    from scipy.sparse.csgraph import dijkstra

    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    unit = graph.to_scipy_csr(np.ones(graph.num_edges))
    hops = dijkstra(unit, indices=sources, unweighted=True, min_only=True)
    dist = np.full(graph.num_nodes, _UNREACHED, dtype=np.int64)
    reached = np.isfinite(hops)
    dist[reached] = hops[reached]
    return dist


def bfs_tree(graph: DiGraph, source: int) -> np.ndarray:
    """BFS predecessor array from *source* (``-1`` for source/unreached)."""
    pred = np.full(graph.num_nodes, _UNREACHED, dtype=np.int64)
    seen = np.zeros(graph.num_nodes, dtype=bool)
    seen[source] = True
    queue: deque[int] = deque([int(source)])
    indptr, indices = graph.indptr, graph.indices
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                pred[v] = u
                queue.append(v)
    return pred


def weakly_connected_components(graph: DiGraph) -> np.ndarray:
    """Label array: ``labels[v]`` is the weak-component id of node ``v``."""
    n = graph.num_nodes
    labels = np.full(n, _UNREACHED, dtype=np.int64)
    undirected = graph.to_undirected()
    indptr, indices = undirected.indptr, undirected.indices
    current = 0
    for start in range(n):
        if labels[start] != _UNREACHED:
            continue
        labels[start] = current
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if labels[v] == _UNREACHED:
                    labels[v] = current
                    queue.append(v)
        current += 1
    return labels


def strongly_connected_components(graph: DiGraph) -> np.ndarray:
    """Tarjan's algorithm, iterative form. Returns component labels."""
    n = graph.num_nodes
    indptr, indices = graph.indptr, graph.indices
    index = np.full(n, _UNREACHED, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    labels = np.full(n, _UNREACHED, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    next_label = 0

    for root in range(n):
        if index[root] != _UNREACHED:
            continue
        work: list[tuple[int, int]] = [(root, int(indptr[root]))]
        while work:
            u, edge_pos = work[-1]
            if index[u] == _UNREACHED:
                index[u] = lowlink[u] = next_index
                next_index += 1
                stack.append(u)
                on_stack[u] = True
            advanced = False
            while edge_pos < indptr[u + 1]:
                v = int(indices[edge_pos])
                edge_pos += 1
                if index[v] == _UNREACHED:
                    work[-1] = (u, edge_pos)
                    work.append((v, int(indptr[v])))
                    advanced = True
                    break
                if on_stack[v]:
                    lowlink[u] = min(lowlink[u], index[v])
            if advanced:
                continue
            work.pop()
            if lowlink[u] == index[u]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    labels[w] = next_label
                    if w == u:
                        break
                next_label += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[u])
    return labels


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
