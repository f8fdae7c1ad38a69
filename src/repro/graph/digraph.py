"""A compact directed graph stored in Compressed Sparse Row (CSR) form.

The whole library operates on :class:`DiGraph`. Nodes are the integers
``0..n-1``; edges are stored as two aligned arrays (``indptr``, ``indices``)
in CSR order, exactly as in :mod:`scipy.sparse`, so conversion to a scipy CSR
matrix is zero-copy on the structure arrays. An optional per-edge weight array
is kept aligned with ``indices``.

Design notes
------------
* Parallel edges are collapsed at construction (keeping the minimum weight);
  self-loops are dropped — neither carries meaning for opinion propagation,
  and shortest-path/flow codes are simpler without them.
* The reverse adjacency (in-edges) is built lazily and cached, because only
  some algorithms (reverse Dijkstra, in-neighbor votes) need it.
* Instances are immutable after construction; "mutation" helpers return new
  graphs. Immutability is what makes the lazy caches safe.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import EdgeError, GraphError, NodeError

__all__ = ["DiGraph"]


class DiGraph:
    """Directed graph over nodes ``0..n-1`` in CSR form.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer array. Edge
        direction is ``u -> v`` ("u influences v").
    weights:
        Optional per-edge weights aligned with *edges*. When omitted, every
        edge has weight 1.0.

    Examples
    --------
    >>> g = DiGraph(3, [(0, 1), (1, 2)])
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> g.out_neighbors(0).tolist()
    [1]
    """

    __slots__ = (
        "_n",
        "_indptr",
        "_indices",
        "_weights",
        "_rev_indptr",
        "_rev_indices",
        "_rev_weights",
        "_rev_edge_ids",
        "_edge_sources",
        "_scipy_index",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        self._n = int(n)

        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_arr.size == 0:
            edge_arr = np.empty((0, 2), dtype=np.int64)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise EdgeError(f"edges must be an (m, 2) array, got shape {edge_arr.shape}")
        edge_arr = edge_arr.astype(np.int64, copy=False)

        if weights is None:
            weight_arr = np.ones(edge_arr.shape[0], dtype=np.float64)
        else:
            weight_arr = np.asarray(weights, dtype=np.float64)
            if weight_arr.shape != (edge_arr.shape[0],):
                raise EdgeError(
                    f"weights must have one entry per edge "
                    f"({edge_arr.shape[0]}), got shape {weight_arr.shape}"
                )

        if edge_arr.shape[0]:
            lo = int(edge_arr.min())
            hi = int(edge_arr.max())
            if lo < 0 or hi >= self._n:
                raise NodeError(f"edge endpoints must lie in [0, {self._n - 1}]")
        # Drop self-loops, then sort into CSR order by the one key
        # u * n + v (it orders like (u, v)). The sort is stable, so each
        # run of duplicates is folded in input order.
        keep = edge_arr[:, 0] != edge_arr[:, 1]
        key = edge_arr[keep, 0] * self._n + edge_arr[keep, 1]
        order = np.argsort(key, kind="stable")
        self._indptr, self._indices, self._weights = _csr_from_sorted_keys(
            self._n, key[order], weight_arr[keep][order]
        )

        self._rev_indptr: np.ndarray | None = None
        self._rev_indices: np.ndarray | None = None
        self._rev_weights: np.ndarray | None = None
        self._rev_edge_ids: np.ndarray | None = None
        self._edge_sources: np.ndarray | None = None
        self._scipy_index: dict = {}

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "DiGraph":
        """Build directly from CSR arrays (assumed valid, sorted, loop-free)."""
        g = cls.__new__(cls)
        g._n = len(indptr) - 1
        g._indptr = np.asarray(indptr, dtype=np.int64)
        g._indices = np.asarray(indices, dtype=np.int64)
        if weights is None:
            weights = np.ones(len(g._indices), dtype=np.float64)
        g._weights = np.asarray(weights, dtype=np.float64)
        if g._weights.shape != g._indices.shape:
            raise EdgeError("weights must align with indices")
        g._rev_indptr = g._rev_indices = g._rev_weights = g._rev_edge_ids = None
        g._edge_sources = None
        g._scipy_index = {}
        return g

    @classmethod
    def from_undirected_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[float] | None = None,
    ) -> "DiGraph":
        """Build a digraph containing both directions of every listed edge."""
        edge_list = list(edges)
        both = edge_list + [(v, u) for (u, v) in edge_list]
        if weights is not None:
            w = list(weights)
            both_w: Sequence[float] | None = w + w
        else:
            both_w = None
        return cls(n, both, both_w)

    @classmethod
    def from_networkx(cls, nx_graph) -> "DiGraph":
        """Convert a networkx (Di)Graph with integer labels ``0..n-1``."""
        n = nx_graph.number_of_nodes()
        directed = nx_graph.is_directed()
        edges = []
        weights = []
        for u, v, data in nx_graph.edges(data=True):
            w = float(data.get("weight", 1.0))
            edges.append((int(u), int(v)))
            weights.append(w)
            if not directed:
                edges.append((int(v), int(u)))
                weights.append(w)
        return cls(n, edges, weights)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (after dedup/self-loop removal)."""
        return len(self._indices)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of length ``n + 1`` (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of length ``m`` (read-only view)."""
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        """Per-edge weights aligned with :attr:`indices`."""
        return self._weights

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self._n}, m={self.num_edges})"

    def _check_node(self, u: int) -> int:
        u = int(u)
        if not 0 <= u < self._n:
            raise NodeError(f"node {u} out of range [0, {self._n - 1}]")
        return u

    # ------------------------------------------------------------------ #
    # Neighborhoods
    # ------------------------------------------------------------------ #

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of edges leaving *u* (CSR slice; do not mutate)."""
        u = self._check_node(u)
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def out_weights(self, u: int) -> np.ndarray:
        """Weights of edges leaving *u*, aligned with :meth:`out_neighbors`."""
        u = self._check_node(u)
        return self._weights[self._indptr[u] : self._indptr[u + 1]]

    def out_edge_range(self, u: int) -> tuple[int, int]:
        """Half-open range of edge ids leaving *u* in CSR order."""
        u = self._check_node(u)
        return int(self._indptr[u]), int(self._indptr[u + 1])

    def out_edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Ids of the edges leaving each of *nodes*, concatenated in order."""
        return _slice_positions(self._indptr, nodes)

    def in_neighbors(self, u: int) -> np.ndarray:
        """Sources of edges entering *u* (from the cached reverse CSR)."""
        self._ensure_reverse()
        u = self._check_node(u)
        assert self._rev_indices is not None and self._rev_indptr is not None
        return self._rev_indices[self._rev_indptr[u] : self._rev_indptr[u + 1]]

    def in_weights(self, u: int) -> np.ndarray:
        """Weights of edges entering *u*, aligned with :meth:`in_neighbors`."""
        self._ensure_reverse()
        u = self._check_node(u)
        assert self._rev_weights is not None and self._rev_indptr is not None
        return self._rev_weights[self._rev_indptr[u] : self._rev_indptr[u + 1]]

    def in_edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Forward-CSR ids of the edges entering each of *nodes*,
        concatenated in order (from the cached reverse CSR)."""
        self._ensure_reverse()
        assert self._rev_edge_ids is not None and self._rev_indptr is not None
        return self._rev_edge_ids[_slice_positions(self._rev_indptr, nodes)]

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for all nodes."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for all nodes."""
        degs = np.zeros(self._n, dtype=np.int64)
        if len(self._indices):
            np.add.at(degs, self._indices, 1)
        return degs

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge ``u -> v`` exists."""
        u = self._check_node(u)
        v = self._check_node(v)
        row = self._indices[self._indptr[u] : self._indptr[u + 1]]
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises :class:`EdgeError` if absent."""
        u = self._check_node(u)
        v = self._check_node(v)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        row = self._indices[lo:hi]
        pos = np.searchsorted(row, v)
        if pos >= len(row) or row[pos] != v:
            raise EdgeError(f"edge {u} -> {v} does not exist")
        return float(self._weights[lo + pos])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples in CSR order."""
        for u in range(self._n):
            lo, hi = self._indptr[u], self._indptr[u + 1]
            for k in range(lo, hi):
                yield u, int(self._indices[k]), float(self._weights[k])

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array in CSR order."""
        return np.column_stack([self.edge_sources(), self._indices])

    def edge_sources(self) -> np.ndarray:
        """Source node of every edge in CSR order (the per-edge twin of
        :attr:`indices`), built once and read-only."""
        if self._edge_sources is None:
            sources = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
            sources.setflags(write=False)
            self._edge_sources = sources
        return self._edge_sources

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def _ensure_reverse(self) -> None:
        if self._rev_indptr is not None:
            return
        rev_indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._indices, minlength=self._n), out=rev_indptr[1:])
        # A stable sort by target keeps each reverse list in CSR (sorted
        # source) order.
        rev_edge_ids = np.argsort(self._indices, kind="stable")
        self._rev_indptr = rev_indptr
        self._rev_indices = self.edge_sources()[rev_edge_ids]
        self._rev_weights = self._weights[rev_edge_ids]
        self._rev_edge_ids = rev_edge_ids

    def reverse(self) -> "DiGraph":
        """Graph with every edge direction flipped (weights preserved)."""
        self._ensure_reverse()
        assert self._rev_indptr is not None
        return DiGraph.from_csr(
            self._rev_indptr.copy(),
            self._rev_indices.copy(),  # type: ignore[arg-type]
            self._rev_weights.copy(),  # type: ignore[arg-type]
        )

    def with_weights(self, weights: np.ndarray) -> "DiGraph":
        """Same structure with a new per-edge weight array (aligned to CSR)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self._indices.shape:
            raise EdgeError(
                f"weights must have shape {self._indices.shape}, got {weights.shape}"
            )
        return DiGraph.from_csr(self._indptr, self._indices, weights)

    def to_undirected(self) -> "DiGraph":
        """Symmetrised graph: for every edge, both directions exist.

        When both ``u -> v`` and ``v -> u`` already exist with different
        weights, the minimum is kept (consistent with parallel-edge collapse).
        """
        n = self._n
        sources, targets = self.edge_sources(), self._indices
        # The edge keys u * n + v are sorted and unique, and so are the
        # flipped keys v * n + u once sorted: the stable sort of the two
        # runs is a merge that keeps each edge ahead of its flip, as the
        # constructor's stable sort would.
        flipped = targets * n + sources
        flip_order = np.argsort(flipped)
        key = np.concatenate([sources * n + targets, flipped[flip_order]])
        weights = np.concatenate([self._weights, self._weights[flip_order]])
        order = np.argsort(key, kind="stable")
        return DiGraph.from_csr(*_csr_from_sorted_keys(n, key[order], weights[order]))

    def subgraph(self, nodes: Sequence[int]) -> tuple["DiGraph", np.ndarray]:
        """Induced subgraph on *nodes*.

        Returns the subgraph (with nodes relabelled ``0..k-1`` in the order
        given) and the array of original node ids.
        """
        nodes_arr = np.asarray(nodes, dtype=np.int64)
        if nodes_arr.size and (nodes_arr.min() < 0 or nodes_arr.max() >= self._n):
            raise NodeError("subgraph nodes out of range")
        relabel = -np.ones(self._n, dtype=np.int64)
        relabel[nodes_arr] = np.arange(len(nodes_arr))
        eids = self.out_edge_ids(nodes_arr)
        sources = np.repeat(np.arange(len(nodes_arr)), np.diff(self._indptr)[nodes_arr])
        targets = relabel[self._indices[eids]]
        keep = targets >= 0
        sub_edges = np.column_stack([sources[keep], targets[keep]])
        return DiGraph(len(nodes_arr), sub_edges, self._weights[eids[keep]]), nodes_arr

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_scipy_csr(self, weights: np.ndarray | None = None):
        """Return the graph as a :class:`scipy.sparse.csr_matrix`.

        *weights* overrides the stored per-edge weights (same CSR alignment);
        used by the ground-distance builder to reuse one structure with many
        cost vectors.
        """
        from scipy.sparse import csr_matrix

        data = self._weights if weights is None else np.asarray(weights, dtype=np.float64)
        if data.shape != self._indices.shape:
            raise EdgeError("weights must align with CSR indices")
        return csr_matrix((data, self._indices, self._indptr), shape=(self._n, self._n))

    def scipy_index(self, *, reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the CSR, or of the reverse CSR when
        *reverse*, in the index dtype scipy's sparse matrices use (int32
        while it fits), built once and read-only: a matrix built per
        search from them skips scipy's index down-cast."""
        arrays = self._scipy_index.get(reverse)
        if arrays is None:
            if reverse:
                self._ensure_reverse()
                indptr, indices = self._rev_indptr, self._rev_indices
            else:
                indptr, indices = self._indptr, self._indices
            dtype = np.int32 if max(self._n, len(self._indices)) < 2**31 else np.int64
            arrays = (indptr.astype(dtype), indices.astype(dtype))
            for array in arrays:
                array.setflags(write=False)
            self._scipy_index[reverse] = arrays
        return arrays

    def to_networkx(self):
        """Return a :class:`networkx.DiGraph` copy (requires networkx)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self._n))
        g.add_weighted_edges_from(self.edges())
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.allclose(self._weights, other._weights)
        )

    def __hash__(self) -> int:  # structural identity is too expensive; use id
        return id(self)


def _slice_positions(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions ``indptr[u]:indptr[u + 1]`` of each of *nodes*,
    concatenated in order."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def _csr_from_sorted_keys(
    n: int, key: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, weights)`` of the loop-free edges with
    sorted keys ``u * n + v``. Each run of equal keys becomes one edge at
    the run's minimum weight, folded left to right, so signed zeros and
    NaNs come out as the fold meets them."""
    firsts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    if firsts.size < key.size:
        weights = np.minimum.reduceat(weights, firsts)
        key = key[firsts]
    sources, targets = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    return indptr, targets, weights
