"""Graph clustering used for (a) EMD* bank-bin allocation and (b) the
``community-lp`` opinion-prediction baseline of §6.3.

Two different needs, two different algorithms:

* :func:`balanced_bfs_partition` produces a *complete* partition grown
  from far-apart seeds — what EMD* bank allocation needs (every bin must
  belong to exactly one cluster). Despite the name, its cluster sizes can
  be far apart on graphs with hubs; see its docstring.
* :func:`label_propagation_communities` finds *natural* communities — what
  the community-lp baseline (Conover et al.) uses.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ClusteringError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_levels, unit_matrix
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "label_propagation_communities",
    "balanced_bfs_partition",
    "greedy_modularity_communities",
    "partition_from_labels",
    "validate_partition",
    "modularity",
]


def partition_from_labels(labels: np.ndarray) -> list[np.ndarray]:
    """Convert a label array into a list of member-index arrays.

    Labels are compacted: cluster ids in the output are ``0..k-1`` ordered by
    first appearance.
    """
    labels = np.asarray(labels)
    _, compact = np.unique(labels, return_inverse=True)
    clusters: list[np.ndarray] = []
    order = np.argsort(compact, kind="stable")
    sorted_labels = compact[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    for chunk in np.split(order, boundaries):
        clusters.append(np.sort(chunk))
    return clusters


def validate_partition(clusters: list[np.ndarray], n: int) -> None:
    """Raise :class:`ClusteringError` unless *clusters* partition ``0..n-1``."""
    seen = np.zeros(n, dtype=bool)
    total = 0
    for ci, members in enumerate(clusters):
        members = np.asarray(members)
        if members.size == 0:
            raise ClusteringError(f"cluster {ci} is empty")
        if members.min() < 0 or members.max() >= n:
            raise ClusteringError(f"cluster {ci} contains out-of-range nodes")
        if seen[members].any():
            raise ClusteringError("clusters overlap")
        seen[members] = True
        total += members.size
    if total != n:
        raise ClusteringError(f"clusters cover {total} of {n} nodes")


def label_propagation_communities(
    graph: DiGraph, *, max_iter: int = 100, seed=None
) -> np.ndarray:
    """Asynchronous label propagation (Raghavan et al.) over the undirected
    version of *graph*. Returns compacted community labels.

    Each node repeatedly adopts the most frequent label among its neighbors
    (ties broken uniformly at random) until no label changes or *max_iter*
    sweeps elapse.
    """
    check_positive_int(max_iter, "max_iter")
    rng = as_rng(seed)
    undirected = graph.to_undirected()
    n = undirected.num_nodes
    indptr, indices = undirected.indptr, undirected.indices
    labels = np.arange(n, dtype=np.int64)
    order = np.arange(n)
    for _ in range(max_iter):
        rng.shuffle(order)
        changed = False
        for u in order:
            neigh = indices[indptr[u] : indptr[u + 1]]
            if neigh.size == 0:
                continue
            neigh_labels = labels[neigh]
            values, counts = np.unique(neigh_labels, return_counts=True)
            best = values[counts == counts.max()]
            new_label = int(best[rng.integers(len(best))]) if len(best) > 1 else int(best[0])
            if new_label != labels[u]:
                labels[u] = new_label
                changed = True
        if not changed:
            break
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


def balanced_bfs_partition(
    graph: DiGraph, n_clusters: int, *, seed=None
) -> list[np.ndarray]:
    """Partition nodes into *n_clusters* chunks grown by BFS from far-apart
    seeds.

    Clusters grow along *graph*'s edges as stored; pass
    ``graph.to_undirected()`` for chunks that ignore edge direction, as
    bank allocation does.

    Seeds are chosen greedily far apart (k-center style on hop distance):
    each seed's BFS is folded into the running hop distance to the nearest
    seed, and the next seed is a random node no seed reaches or else the
    farthest one. Clusters then grow by synchronized BFS, smallest cluster
    first: each step claims every unclaimed neighbour of the cluster's
    frontier, and those nodes become its next frontier. Leftovers no
    cluster can reach are assigned to the globally smallest cluster, which
    keeps the result a true partition even on disconnected graphs.

    The sizes are not balanced. Every cluster grows one BFS level per
    round, and smallest-first order only decides who claims a node that
    two frontiers reach in the same round. A frontier that reaches a hub
    claims the hub's whole neighbourhood in one step, so on power-law
    graphs one cluster can hold most of the nodes: 16 239 of 19 998 on a
    20k-node power-law giant component cut into 24 clusters.
    """
    check_positive_int(n_clusters, "n_clusters")
    n = graph.num_nodes
    if n_clusters > n:
        raise ClusteringError(f"cannot make {n_clusters} clusters from {n} nodes")
    rng = as_rng(seed)

    matrix = unit_matrix(graph)
    nearest = np.full(n, n, dtype=np.int64)  # n: no seed reaches the node
    seeds = [int(rng.integers(n))]
    for _ in range(n_clusters - 1):
        order, levels = bfs_levels(matrix, seeds[-1])
        nearest[order] = np.minimum(nearest[order], levels)
        candidates = np.flatnonzero(nearest == n)
        if candidates.size:
            seeds.append(int(candidates[rng.integers(len(candidates))]))
        else:
            seeds.append(int(np.argmax(nearest)))

    assignment = np.full(n, -1, dtype=np.int64)
    assignment[seeds] = np.arange(n_clusters)
    sizes = np.ones(n_clusters, dtype=np.int64)
    frontiers = [np.array([s], dtype=np.int64) for s in seeds]
    remaining = n - n_clusters
    while remaining > 0:
        progressed = False
        # Smallest-first: the smallest cluster claims contested nodes.
        for ci in np.argsort(sizes, kind="stable"):
            neighbours = graph.indices[graph.out_edge_ids(frontiers[ci])]
            claimed = np.unique(neighbours[assignment[neighbours] < 0])
            assignment[claimed] = ci
            sizes[ci] += claimed.size
            remaining -= claimed.size
            frontiers[ci] = claimed
            progressed = progressed or claimed.size > 0
            if remaining == 0:
                break
        if not progressed:
            leftovers = np.flatnonzero(assignment < 0)
            smallest = int(np.argmin(sizes))
            assignment[leftovers] = smallest
            remaining = 0
    return partition_from_labels(assignment)


def modularity(graph: DiGraph, labels: np.ndarray) -> float:
    """Newman modularity of a labelling over the undirected version."""
    undirected = graph.to_undirected()
    labels = np.asarray(labels)
    m2 = undirected.num_edges  # each undirected edge counted twice already
    if m2 == 0:
        return 0.0
    degrees = undirected.out_degrees().astype(np.float64)
    edge_arr = undirected.edge_array()
    same = labels[edge_arr[:, 0]] == labels[edge_arr[:, 1]]
    intra = float(same.sum()) / m2
    expected = 0.0
    for lab in np.unique(labels):
        deg_sum = float(degrees[labels == lab].sum())
        expected += (deg_sum / m2) ** 2
    return intra - expected


def greedy_modularity_communities(
    graph: DiGraph, *, min_communities: int = 1
) -> np.ndarray:
    """Agglomerative (CNM-style) greedy modularity maximisation.

    Suitable for small/medium graphs (used in tests and the community-lp
    baseline on CI-scale data); label propagation is the scalable option.
    """
    undirected = graph.to_undirected()
    n = undirected.num_nodes
    labels = np.arange(n, dtype=np.int64)
    if undirected.num_edges == 0:
        return labels
    m2 = float(undirected.num_edges)
    degrees = undirected.out_degrees().astype(np.float64)

    # community -> (total degree, member set); adjacency weights between comms
    comm_degree = {int(i): float(degrees[i]) for i in range(n)}
    members: dict[int, set[int]] = {int(i): {int(i)} for i in range(n)}
    links: dict[int, dict[int, float]] = {int(i): {} for i in range(n)}
    for u, v, _w in undirected.edges():
        if u < v:
            links[u][v] = links[u].get(v, 0.0) + 1.0
            links[v][u] = links[v].get(u, 0.0) + 1.0

    def delta_q(a: int, b: int) -> float:
        e_ab = links[a].get(b, 0.0)
        return 2.0 * (e_ab / m2 - (comm_degree[a] / m2) * (comm_degree[b] / m2))

    while len(members) > max(1, min_communities):
        best_pair: tuple[int, int] | None = None
        best_gain = 0.0
        for a in list(links):
            for b, _ in links[a].items():
                if a < b:
                    gain = delta_q(a, b)
                    if gain > best_gain:
                        best_gain = gain
                        best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        # Merge b into a.
        members[a] |= members.pop(b)
        comm_degree[a] += comm_degree.pop(b)
        for c, w in links.pop(b).items():
            if c == a:
                continue
            links[c].pop(b, None)
            links[a][c] = links[a].get(c, 0.0) + w
            links[c][a] = links[c].get(a, 0.0) + w
        links[a].pop(b, None)
        for c in list(links):
            links[c].pop(b, None)

    out = np.empty(n, dtype=np.int64)
    for new_label, (_, node_set) in enumerate(sorted(members.items())):
        for node in node_set:
            out[node] = new_label
    return out
