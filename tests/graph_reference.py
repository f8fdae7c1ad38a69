"""The CSR constructor, symmetrisation and BFS loops as first written
(test-only oracle).

``DiGraph`` once sorted its edges with a two-key ``lexsort`` and folded
duplicate runs with ``np.minimum.at``; ``to_undirected`` stacked every
edge with its flip and sent the result through that constructor; the
tree and weak-component searches were interpreted queue loops. They are
kept frozen here so the tests can assert the library's compiled
replacements give the same arrays bit for bit. Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def csr_arrays(n: int, edges, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` of ``DiGraph(n, edges, weights)``:
    self-loops dropped, edges in CSR order, duplicates at their minimum
    weight."""
    edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_arr.size == 0:
        edge_arr = np.empty((0, 2), dtype=np.int64)
    edge_arr = edge_arr.astype(np.int64, copy=False)
    if weights is None:
        weight_arr = np.ones(edge_arr.shape[0], dtype=np.float64)
    else:
        weight_arr = np.asarray(weights, dtype=np.float64)

    if edge_arr.shape[0]:
        keep = edge_arr[:, 0] != edge_arr[:, 1]
        edge_arr = edge_arr[keep]
        weight_arr = weight_arr[keep]

        order = np.lexsort((edge_arr[:, 1], edge_arr[:, 0]))
        edge_arr = edge_arr[order]
        weight_arr = weight_arr[order]
        if edge_arr.shape[0]:
            same = np.concatenate(
                ([False], np.all(edge_arr[1:] == edge_arr[:-1], axis=1))
            )
            if same.any():
                group_id = np.cumsum(~same) - 1
                n_groups = group_id[-1] + 1
                min_w = np.full(n_groups, np.inf)
                with np.errstate(invalid="ignore"):
                    np.minimum.at(min_w, group_id, weight_arr)
                firsts = np.flatnonzero(~same)
                edge_arr = edge_arr[firsts]
                weight_arr = min_w

    sources = edge_arr[:, 0]
    indices = np.ascontiguousarray(edge_arr[:, 1])
    weight_arr = np.ascontiguousarray(weight_arr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if sources.size:
        np.add.at(indptr, sources + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, indices, weight_arr


def to_undirected(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` of ``graph.to_undirected()``: every
    edge and its flip, through the constructor above."""
    sources = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(graph.indptr))
    edge_arr = np.column_stack([sources, graph.indices])
    all_edges = np.vstack([edge_arr, edge_arr[:, ::-1]])
    all_weights = np.concatenate([graph.weights, graph.weights])
    return csr_arrays(graph.num_nodes, all_edges, all_weights)


def bfs_tree(graph, source: int) -> np.ndarray:
    """BFS predecessor array from *source* (``-1`` for source/unreached)."""
    pred = np.full(graph.num_nodes, -1, dtype=np.int64)
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


def weakly_connected_components(graph) -> np.ndarray:
    """Weak-component labels, numbered in the order of their lowest node."""
    n = graph.num_nodes
    labels = np.full(n, -1, dtype=np.int64)
    indptr, indices, _ = to_undirected(graph)
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = current
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if labels[v] == -1:
                    labels[v] = current
                    queue.append(v)
        current += 1
    return labels
