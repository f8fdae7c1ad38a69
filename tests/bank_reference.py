"""Pure-Python reference for the bank layout (test-only oracle).

These are the interpreted BFS, induced subgraph, balanced growth loop and
cluster γ that ``repro.snd.banks.allocate_banks`` was first written with,
kept node by node and edge by edge so the oracle tests can assert the
vectorised library code is bitwise equal to them. Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.clustering import partition_from_labels
from repro.graph.digraph import DiGraph
from repro.snd.ground import DEFAULT_MAX_COST
from repro.utils.rng import as_rng


def bfs_distances(graph: DiGraph, sources) -> np.ndarray:
    """Hop distances from *sources* along out-edges; ``-1`` if unreached."""
    if isinstance(sources, (int, np.integer)):
        sources = [int(sources)]
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    queue: deque[int] = deque()
    for s in sources:
        s = int(s)
        if dist[s] == -1:
            dist[s] = 0
            queue.append(s)
    indptr, indices = graph.indptr, graph.indices
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] == -1:
                dist[v] = du + 1
                queue.append(v)
    return dist


def subgraph(graph: DiGraph, nodes) -> DiGraph:
    """Induced subgraph, nodes relabelled ``0..k-1`` in the order given."""
    nodes_arr = np.asarray(nodes, dtype=np.int64)
    relabel = -np.ones(graph.num_nodes, dtype=np.int64)
    relabel[nodes_arr] = np.arange(len(nodes_arr))
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    sub_edges = []
    sub_weights = []
    for new_u, u in enumerate(nodes_arr):
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if relabel[v] >= 0:
                sub_edges.append((new_u, relabel[v]))
                sub_weights.append(weights[k])
    return DiGraph(len(nodes_arr), sub_edges, sub_weights)


def balanced_bfs_partition(graph: DiGraph, n_clusters: int, *, seed=None) -> list:
    """Far-apart seeds, then smallest-first synchronized BFS growth over the
    undirected version of *graph*, one frontier node at a time."""
    n = graph.num_nodes
    rng = as_rng(seed)
    undirected = graph.to_undirected()
    indptr, indices = undirected.indptr, undirected.indices

    seeds = [int(rng.integers(n))]
    for _ in range(n_clusters - 1):
        dist = bfs_distances(undirected, seeds)
        unreached = dist < 0
        if unreached.any():
            candidates = np.flatnonzero(unreached)
            seeds.append(int(candidates[rng.integers(len(candidates))]))
        else:
            seeds.append(int(np.argmax(dist)))

    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(n_clusters, dtype=np.int64)
    frontiers: list[deque[int]] = []
    for ci, s in enumerate(seeds):
        assignment[s] = ci
        sizes[ci] += 1
        frontiers.append(deque([s]))

    remaining = n - n_clusters
    while remaining > 0:
        progressed = False
        for ci in np.argsort(sizes, kind="stable"):
            frontier = frontiers[ci]
            for _ in range(len(frontier)):
                u = frontier.popleft()
                for v in indices[indptr[u] : indptr[u + 1]]:
                    if assignment[v] < 0:
                        assignment[v] = ci
                        sizes[ci] += 1
                        remaining -= 1
                        frontier.append(int(v))
                        progressed = True
            if remaining == 0:
                break
        if not progressed:
            leftovers = np.flatnonzero(assignment < 0)
            smallest = int(np.argmin(sizes))
            assignment[leftovers] = smallest
            sizes[smallest] += len(leftovers)
            remaining = 0
    return partition_from_labels(assignment)


def cluster_gamma(graph: DiGraph, members, hop_cost: float, n_banks: int) -> np.ndarray:
    """γ ladder: hop eccentricity of the first member inside the cluster's
    induced undirected subgraph, times *hop_cost*, doubled per bank."""
    sub = subgraph(graph.to_undirected(), members)
    dist = bfs_distances(sub, 0)
    reach = dist[dist >= 0]
    ecc = int(reach.max()) if reach.size else 0
    base = float(hop_cost) * max(1, ecc)
    return base * (2.0 ** np.arange(n_banks))


def allocate_banks(
    graph: DiGraph,
    *,
    strategy: str = "cluster",
    n_clusters: int | None = None,
    n_banks: int = 1,
    max_cost: int = DEFAULT_MAX_COST,
    hop_cost: float | None = None,
    gamma_scale: float = 1.0,
    seed=None,
) -> tuple[list, list]:
    """``(clusters, gammas)`` of the ``"cluster"`` or ``"global"`` strategy."""
    n = graph.num_nodes
    rng = as_rng(seed)
    if strategy == "global":
        clusters = [np.arange(n, dtype=np.int64)]
    else:
        if n_clusters is None:
            n_clusters = max(2, int(round(np.sqrt(n) / 4)))
        clusters = balanced_bfs_partition(graph, min(n_clusters, n), seed=rng)
    scale = float(hop_cost) if hop_cost is not None else float(max_cost)
    gammas = [
        gamma_scale * cluster_gamma(graph, np.asarray(c), scale, n_banks)
        for c in clusters
    ]
    return [np.asarray(c, dtype=np.int64) for c in clusters], gammas
