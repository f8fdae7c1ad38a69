"""Bank-bin allocation strategies for EMD* inside SND (§4).

A :class:`BankAllocation` fixes, per graph, (a) the partition of users into
bin clusters and (b) the ground distance γ to/from each cluster's banks.
Three strategies mirror the design space the paper sketches:

* ``"global"`` — one cluster, one bank group: recovers EMDα behaviour;
* ``"per-bin"`` — one cluster per user: maximal locality, largest problem;
* ``"cluster"`` (default) — the compromise: a BFS partition grown from
  far-apart seeds (:func:`repro.graph.clustering.balanced_bfs_partition`,
  whose cluster sizes are uneven on graphs with hubs), with one or more
  banks per cluster.

γ defaults respect the Theorem 3 metricity condition
``γ ≥ ½ · max intra-cluster D`` without computing intra-cluster diameters
exactly: for any node v of cluster C, the hop-eccentricity bound
``diam(C) ≤ 2·ecc(v)`` gives ``max D ≤ U·2·ecc(v)``, so ``γ = U·ecc(v)``
is safe **provided C induces a connected subgraph**. The cluster that
collects the leftovers of a graph with more weak components than clusters
breaks that precondition: ``ecc(v)`` then only covers v's own piece, and γ
can fall below the threshold. Multiple banks per cluster get geometrically
spaced γ (γ, 2γ, ...), modelling non-constant disposal cost.

Allocation is set-up work, paid once per :class:`~repro.snd.snd.SND`: one
symmetrisation of the graph, one BFS per k-center seed, the cluster
growth, and one BFS per cluster on its induced submatrix for γ. Every
search is scipy's compiled ``breadth_first_order``
(:mod:`repro.graph.traversal`); nothing is cached on the graph, so each
allocation does all of this work again.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import ClusteringError, ValidationError
from repro.graph.clustering import balanced_bfs_partition, validate_partition
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_levels, unit_matrix
from repro.snd.ground import DEFAULT_MAX_COST
from repro.utils.rng import as_rng

__all__ = ["BankAllocation", "allocate_banks"]


@dataclass(frozen=True)
class BankAllocation:
    """A fixed bank layout: bin clusters plus per-bank ground distances."""

    clusters: tuple
    gammas: tuple
    n_banks: int

    def __post_init__(self) -> None:
        if self.n_banks < 1:
            raise ValidationError(f"n_banks must be >= 1, got {self.n_banks}")
        if len(self.clusters) != len(self.gammas):
            raise ValidationError("clusters and gammas must have equal length")
        for ci, g in enumerate(self.gammas):
            g = np.asarray(g)
            if g.shape != (self.n_banks,):
                raise ValidationError(
                    f"cluster {ci}: expected {self.n_banks} gammas, got {g.shape}"
                )
            if g.size and g.min() < 0:
                raise ValidationError(f"cluster {ci}: gammas must be non-negative")

    # Per-allocation constants the fast term pipeline reads on every term
    # are computed once, read-only, and kept outside the dataclass fields:
    # they take no part in ``==`` and are dropped from the pickled state.

    def __getstate__(self) -> dict:
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def member_arrays(self) -> tuple:
        """Each cluster's members as an int64 array."""
        return tuple(_frozen(np.array(c, dtype=np.int64)) for c in self.clusters)

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        """``(n_clusters,)`` float64 member counts."""
        return _frozen(
            np.array([len(c) for c in self.member_arrays], dtype=np.float64)
        )

    @cached_property
    def cluster_order(self) -> tuple:
        """``(order, starts)``: the members of cluster 0, then of cluster 1,
        ..., and the offset of each cluster's run in *order*, so
        ``np.minimum.reduceat(x.take(order, axis=-1), starts, axis=-1)``
        is the per-cluster minimum of *x*."""
        members = self.member_arrays
        order = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        starts = np.zeros(len(members), dtype=np.int64)
        np.cumsum([len(c) for c in members[:-1]], out=starts[1:])
        return _frozen(order), _frozen(starts)

    def cluster_of(self, n_nodes: int) -> np.ndarray:
        """Node -> cluster-id lookup array (read-only)."""
        cached = self.__dict__.get("_cluster_of")
        if cached is not None and cached.shape[0] == n_nodes:
            return cached
        out = np.full(n_nodes, -1, dtype=np.int64)
        for ci, members in enumerate(self.member_arrays):
            out[members] = ci
        if (out < 0).any():
            raise ClusteringError("bank allocation does not cover all nodes")
        self.__dict__["_cluster_of"] = _frozen(out)
        return out

    def gamma_matrix(self) -> np.ndarray:
        """``(n_clusters, n_banks)`` matrix of bank ground distances
        (read-only)."""
        return self._gamma_matrix

    @cached_property
    def _gamma_matrix(self) -> np.ndarray:
        return _frozen(
            np.vstack([np.asarray(g, dtype=np.float64) for g in self.gammas])
        )

    def validate(self, n_nodes: int) -> None:
        """Check the clusters partition ``0..n_nodes-1``."""
        validate_partition([np.asarray(c) for c in self.clusters], n_nodes)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _cluster_gamma(
    matrix: csr_matrix, members: np.ndarray, hop_cost: float, n_banks: int
) -> np.ndarray:
    """γ ladder for one cluster: the hop eccentricity of its first member
    inside the cluster's induced subgraph, times a per-hop cost.

    *matrix* is the symmetrised graph's :func:`unit_matrix`; the search
    runs on its submatrix over *members*. The ladder meets the Theorem 3
    threshold only when that subgraph is connected (see the module
    docstring).
    """
    _, levels = bfs_levels(matrix[members][:, members], 0)
    ecc = int(levels[-1])
    base = float(hop_cost) * max(1, ecc)
    return base * (2.0 ** np.arange(n_banks))


def allocate_banks(
    graph: DiGraph,
    *,
    strategy: str = "cluster",
    n_clusters: int | None = None,
    n_banks: int = 1,
    gamma: float | None = None,
    max_cost: int = DEFAULT_MAX_COST,
    hop_cost: float | None = None,
    gamma_scale: float = 1.0,
    seed=None,
) -> BankAllocation:
    """Build a :class:`BankAllocation` for *graph*.

    Parameters
    ----------
    strategy:
        ``"cluster"`` (default), ``"global"``, or ``"per-bin"``.
    n_clusters:
        Cluster count for the ``"cluster"`` strategy; defaults to
        ``max(2, round(sqrt(n) / 4))``.
    gamma:
        Override the per-cluster γ base with a constant (the geometric
        ladder across ``n_banks`` still applies).
    max_cost:
        The Assumption-2 bound ``U``. When *hop_cost* is not given, γ is the
        conservative ``U * hop-eccentricity`` — guaranteed to satisfy the
        Theorem 3 metricity threshold but typically far above the actual
        intra-cluster distances.
    hop_cost:
        Per-hop cost estimate used instead of ``max_cost`` when sizing γ.
        §4 advises γ "of the same order as the ground distances within the
        cluster": setting this to the *typical* edge cost (e.g. the
        model-agnostic ``1 + c_neutral``) trades the metric guarantee for
        the sensitivity the anomaly-detection experiments rely on (a γ far
        above cluster distances degenerates EMD* into EMDα, §4).
    gamma_scale:
        Final multiplier on every γ (sensitivity knob; 1.0 = as computed).
    """
    n = graph.num_nodes
    if n == 0:
        raise ValidationError("cannot allocate banks on an empty graph")
    rng = as_rng(seed)
    undirected = graph.to_undirected()

    if strategy == "global":
        clusters = [np.arange(n, dtype=np.int64)]
    elif strategy == "per-bin":
        clusters = [np.array([v], dtype=np.int64) for v in range(n)]
    elif strategy == "cluster":
        if n_clusters is None:
            n_clusters = max(2, int(round(np.sqrt(n) / 4)))
        n_clusters = min(n_clusters, n)
        clusters = balanced_bfs_partition(undirected, n_clusters, seed=rng)
    else:
        raise ValidationError(
            f"unknown bank strategy {strategy!r}; "
            "expected 'cluster', 'global', or 'per-bin'"
        )

    scale = float(hop_cost) if hop_cost is not None else float(max_cost)
    matrix = unit_matrix(undirected)
    gammas = []
    for members in clusters:
        if gamma is not None:
            base = float(gamma)
            ladder = base * (2.0 ** np.arange(n_banks))
        elif strategy == "per-bin":
            # Singleton clusters have zero diameter; γ at the local edge
            # scale keeps the bank meaningful without breaking metricity
            # (the Theorem 3 bound is 0 for singletons).
            ladder = 0.5 * scale * (2.0 ** np.arange(n_banks))
        else:
            ladder = _cluster_gamma(matrix, np.asarray(members), scale, n_banks)
        gammas.append(gamma_scale * ladder)

    return BankAllocation(
        clusters=tuple(np.asarray(c, dtype=np.int64) for c in clusters),
        gammas=tuple(gammas),
        n_banks=int(n_banks),
    )
