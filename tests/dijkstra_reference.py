"""Pure-Python Dijkstra over three heaps (test-only oracle).

Theorem 4 (arXiv 1510.05058) gets SND's linear time from one
single-source Dijkstra per changed user over a radix/Fibonacci heap
(Ahuja et al. 1990); the paper's released implementation used a binary
heap (§6.5). The library's rows all come from :mod:`scipy.sparse.csgraph`
(:func:`repro.shortestpath.dijkstra.multi_source_distances`); this module
keeps the from-scratch search with a pluggable heap as an independent
reference:

* :class:`IndexedBinaryHeap`, :class:`PairingHeap` (a practical stand-in
  for the Fibonacci heap) and :class:`RadixHeap` (monotone integer keys),
  behind :func:`make_heap` / :data:`HEAP_KINDS`;
* :func:`dijkstra` / :func:`dijkstra_multi` over any of them.

The tests check the scipy rows against it, ``tests/ssp_reference.py``
builds its heap SSP on :class:`IndexedBinaryHeap`, and
``benchmarks/bench_ablation_heaps.py`` times the three heaps against
scipy (the §6.5 heap ablation). Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.utils.validation import check_nonnegative

HEAP_KINDS = ("binary", "radix", "pairing")


# ----------------------------------------------------------------------- #
# Heaps
# ----------------------------------------------------------------------- #


class IndexedBinaryHeap:
    """Array-backed binary min-heap keyed by float, indexed by item id."""

    __slots__ = ("_keys", "_heap", "_pos", "_size")

    _ABSENT = -1

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._keys = np.empty(capacity, dtype=np.float64)
        self._heap = np.empty(capacity, dtype=np.int64)  # heap position -> item
        self._pos = np.full(capacity, self._ABSENT, dtype=np.int64)  # item -> position
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return self._pos[item] != self._ABSENT

    def key_of(self, item: int) -> float:
        """Current key of *item* (undefined if absent)."""
        return float(self._keys[item])

    def push(self, item: int, key: float) -> None:
        """Insert *item* with *key*; if present, behaves as decrease-key
        (raises if the new key is larger)."""
        if self._pos[item] != self._ABSENT:
            self.decrease_key(item, key)
            return
        self._keys[item] = key
        self._heap[self._size] = item
        self._pos[item] = self._size
        self._size += 1
        self._sift_up(self._size - 1)

    def decrease_key(self, item: int, key: float) -> None:
        """Lower the key of an item already in the heap."""
        if self._pos[item] == self._ABSENT:
            raise KeyError(f"item {item} not in heap")
        if key > self._keys[item]:
            raise ValueError(
                f"decrease_key would increase key of {item}: "
                f"{self._keys[item]} -> {key}"
            )
        self._keys[item] = key
        self._sift_up(int(self._pos[item]))

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(item, key)`` with the minimum key."""
        if self._size == 0:
            raise IndexError("pop from empty heap")
        top = int(self._heap[0])
        key = float(self._keys[top])
        self._size -= 1
        last = int(self._heap[self._size])
        self._pos[top] = self._ABSENT
        if self._size > 0:
            self._heap[0] = last
            self._pos[last] = 0
            self._sift_down(0)
        return top, key

    def peek(self) -> tuple[int, float]:
        """Return (without removing) the minimum ``(item, key)``."""
        if self._size == 0:
            raise IndexError("peek at empty heap")
        top = int(self._heap[0])
        return top, float(self._keys[top])

    # ------------------------------------------------------------------ #

    def _sift_up(self, pos: int) -> None:
        heap, keys, index = self._heap, self._keys, self._pos
        item = heap[pos]
        key = keys[item]
        while pos > 0:
            parent = (pos - 1) >> 1
            parent_item = heap[parent]
            if keys[parent_item] <= key:
                break
            heap[pos] = parent_item
            index[parent_item] = pos
            pos = parent
        heap[pos] = item
        index[item] = pos

    def _sift_down(self, pos: int) -> None:
        heap, keys, index = self._heap, self._keys, self._pos
        size = self._size
        item = heap[pos]
        key = keys[item]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and keys[heap[right]] < keys[heap[child]]:
                child = right
            child_item = heap[child]
            if keys[child_item] >= key:
                break
            heap[pos] = child_item
            index[child_item] = pos
            pos = child
        heap[pos] = item
        index[item] = pos


class PairingHeap:
    """Min pairing heap over items ``0..capacity-1`` keyed by float.

    Uses the left-child / right-sibling representation; ``_prev`` stores the
    parent for leftmost children and the left sibling otherwise, which is
    exactly the information needed to cut a node during decrease-key.
    """

    __slots__ = ("_keys", "_child", "_sibling", "_prev", "_in_heap", "_root", "_size")

    _NONE = -1

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self._keys = np.zeros(capacity, dtype=np.float64)
        self._child = np.full(capacity, self._NONE, dtype=np.int64)
        self._sibling = np.full(capacity, self._NONE, dtype=np.int64)
        self._prev = np.full(capacity, self._NONE, dtype=np.int64)
        self._in_heap = np.zeros(capacity, dtype=bool)
        self._root = self._NONE
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return bool(self._in_heap[item])

    def key_of(self, item: int) -> float:
        return float(self._keys[item])

    def _meld(self, a: int, b: int) -> int:
        """Merge two root nodes, returning the new root."""
        if a == self._NONE:
            return b
        if b == self._NONE:
            return a
        if self._keys[b] < self._keys[a]:
            a, b = b, a
        # b becomes leftmost child of a.
        old_child = self._child[a]
        self._sibling[b] = old_child
        if old_child != self._NONE:
            self._prev[old_child] = b
        self._prev[b] = a
        self._child[a] = b
        self._sibling[a] = self._NONE
        return a

    def push(self, item: int, key: float) -> None:
        if self._in_heap[item]:
            self.decrease_key(item, key)
            return
        self._keys[item] = key
        self._child[item] = self._NONE
        self._sibling[item] = self._NONE
        self._prev[item] = self._NONE
        self._in_heap[item] = True
        self._root = self._meld(self._root, item)
        self._size += 1

    def decrease_key(self, item: int, key: float) -> None:
        if not self._in_heap[item]:
            raise KeyError(f"item {item} not in heap")
        if key > self._keys[item]:
            raise ValueError(
                f"decrease_key would increase key of {item}: "
                f"{self._keys[item]} -> {key}"
            )
        self._keys[item] = key
        if item == self._root:
            return
        # Cut item from its parent's child list.
        prev = self._prev[item]
        sib = self._sibling[item]
        if self._child[prev] == item:  # item is leftmost child: prev is parent
            self._child[prev] = sib
        else:  # prev is left sibling
            self._sibling[prev] = sib
        if sib != self._NONE:
            self._prev[sib] = prev
        self._sibling[item] = self._NONE
        self._prev[item] = self._NONE
        self._root = self._meld(self._root, item)

    def pop(self) -> tuple[int, float]:
        if self._size == 0:
            raise IndexError("pop from empty heap")
        top = self._root
        key = float(self._keys[top])
        self._in_heap[top] = False
        self._size -= 1
        # Two-pass pairing of the children.
        first_pass: list[int] = []
        node = self._child[top]
        while node != self._NONE:
            nxt = self._sibling[node]
            self._sibling[node] = self._NONE
            self._prev[node] = self._NONE
            if nxt != self._NONE:
                nxt2 = self._sibling[nxt]
                self._sibling[nxt] = self._NONE
                self._prev[nxt] = self._NONE
                first_pass.append(self._meld(node, nxt))
                node = nxt2
            else:
                first_pass.append(node)
                node = self._NONE
        root = self._NONE
        for subtree in reversed(first_pass):
            root = self._meld(root, subtree)
        self._child[top] = self._NONE
        self._root = root
        return top, key

    def peek(self) -> tuple[int, float]:
        if self._size == 0:
            raise IndexError("peek at empty heap")
        return int(self._root), float(self._keys[self._root])


class RadixHeap:
    """Monotone integer-key priority queue with decrease-key.

    Parameters
    ----------
    capacity:
        Item ids are ``0..capacity-1``.
    max_key:
        Strict upper bound on any key ever inserted (e.g. ``U * (n - 1)``
        for Dijkstra with edge costs at most ``U``).
    """

    __slots__ = ("_capacity", "_max_key", "_buckets", "_keys", "_where", "_last", "_size")

    _ABSENT = -1

    def __init__(self, capacity: int, max_key: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if max_key < 0:
            raise ValueError(f"max_key must be non-negative, got {max_key}")
        self._capacity = capacity
        self._max_key = max_key
        n_buckets = max(2, max_key.bit_length() + 2)
        self._buckets: list[dict[int, int]] = [dict() for _ in range(n_buckets)]
        self._keys = [0] * capacity
        self._where = [self._ABSENT] * capacity
        self._last = 0  # last popped key (monotone floor)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return self._where[item] != self._ABSENT

    def key_of(self, item: int) -> float:
        return float(self._keys[item])

    def _bucket_index(self, key: int) -> int:
        """Bucket b holds keys whose binary representation first differs from
        ``_last`` at bit b-1 (bucket 0: key == _last)."""
        diff = key ^ self._last
        return diff.bit_length()  # 0 when key == last

    def push(self, item: int, key: float) -> None:
        key = int(key)
        if key < self._last:
            raise ValueError(
                f"radix heap requires monotone keys: {key} < last popped {self._last}"
            )
        if key > self._max_key:
            raise ValueError(f"key {key} exceeds declared max_key {self._max_key}")
        if self._where[item] != self._ABSENT:
            self.decrease_key(item, key)
            return
        b = self._bucket_index(key)
        self._buckets[b][item] = key
        self._keys[item] = key
        self._where[item] = b
        self._size += 1

    def decrease_key(self, item: int, key: float) -> None:
        key = int(key)
        b_old = self._where[item]
        if b_old == self._ABSENT:
            raise KeyError(f"item {item} not in heap")
        old = self._keys[item]
        if key > old:
            raise ValueError(f"decrease_key would increase key of {item}: {old} -> {key}")
        if key < self._last:
            raise ValueError(
                f"radix heap requires monotone keys: {key} < last popped {self._last}"
            )
        del self._buckets[b_old][item]
        b_new = self._bucket_index(key)
        self._buckets[b_new][item] = key
        self._keys[item] = key
        self._where[item] = b_new

    def pop(self) -> tuple[int, float]:
        if self._size == 0:
            raise IndexError("pop from empty heap")
        # Find first non-empty bucket.
        b = 0
        while not self._buckets[b]:
            b += 1
        if b == 0:
            item, key = self._buckets[0].popitem()
            self._where[item] = self._ABSENT
            self._size -= 1
            return item, float(key)
        # Redistribute: the minimum key in bucket b becomes the new floor;
        # every item in the bucket lands in a strictly smaller bucket.
        bucket = self._buckets[b]
        min_key = min(bucket.values())
        self._last = min_key
        items = list(bucket.items())
        bucket.clear()
        for item, key in items:
            nb = self._bucket_index(key)
            self._buckets[nb][item] = key
            self._where[item] = nb
        item, key = next(iter(self._buckets[0].items()))
        del self._buckets[0][item]
        self._where[item] = self._ABSENT
        self._size -= 1
        return item, float(key)

    def peek(self) -> tuple[int, float]:
        if self._size == 0:
            raise IndexError("peek at empty heap")
        best_item = -1
        best_key = None
        for bucket in self._buckets:
            if bucket:
                for item, key in bucket.items():
                    if best_key is None or key < best_key:
                        best_key = key
                        best_item = item
                break  # min always lives in the first non-empty bucket
        assert best_key is not None
        return best_item, float(best_key)


def make_heap(kind: str, *, capacity: int, max_key: float | None = None):
    """Factory over the three heap implementations.

    Parameters
    ----------
    kind:
        One of ``"binary"``, ``"radix"``, ``"pairing"``.
    capacity:
        Number of distinct items (node count for Dijkstra).
    max_key:
        Upper bound on any inserted key — required by the radix heap
        (monotone integer keys), ignored by the others.
    """
    if kind == "binary":
        return IndexedBinaryHeap(capacity)
    if kind == "pairing":
        return PairingHeap(capacity)
    if kind == "radix":
        if max_key is None:
            raise ValueError("radix heap requires max_key (C * (n-1) bound)")
        return RadixHeap(capacity, int(max_key))
    raise ValueError(f"unknown heap kind {kind!r}; expected one of {HEAP_KINDS}")


# ----------------------------------------------------------------------- #
# Dijkstra
# ----------------------------------------------------------------------- #


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
