"""The unified SND cache hierarchy.

Every SND entry point — single-pair :meth:`repro.snd.snd.SND.evaluate`,
the batch methods :meth:`~repro.snd.snd.SND.evaluate_series` /
:meth:`~repro.snd.snd.SND.pairwise_matrix`, the persistent
:class:`repro.snd.engine.SNDEngine`, and the distance registry — reuses
work at four levels:

1. **Ground costs** (:class:`GroundCostCache`): Eq. 2 edge-cost arrays
   keyed by ``(state fingerprint, opinion)``. A series sweep builds
   ``2·(T-1) + 2`` arrays instead of ``4·(T-1)``; a pairwise matrix over
   ``N`` states builds ``2·N`` instead of ``2·N·(N-1)``. The cache keeps
   about twice as many arrays as its recent hits reached back for.
2. **Shortest-path rows** (:class:`DijkstraRowCache`): full per-source
   Dijkstra rows keyed by ``(cost key, direction, source)``, stored only
   while terms search full rows; a held row answers a request at any
   radius cut there. Rows are independent per source, so stitching
   cached and fresh rows is bit-identical to one batched run at the same
   radius. The cache also records recent certificate radii, which set
   how far a new term searches first.
3. **Finished transitions** (:class:`TransitionCache`): whole SND values
   keyed by the ordered state-fingerprint pair. Sliding windows re-solve
   exactly one transition per shift; corpus extensions solve only the new
   pairs.
4. **Optimal bases** (:class:`BasisCache`): spanning-tree bases of solved
   EMD* terms, keyed by ``(supplier fingerprint, consumer fingerprint,
   opinion)`` in stable node-label space. A cached basis warm-starts the
   network-simplex solve of the *next*, nearly identical term (window
   shift, corpus append) — the value caches above skip repeated solves,
   the basis store accelerates the genuinely new ones.

:class:`CacheManager` bundles one instance of each under a single,
optional **shared memory budget** and one stats surface: when the total
retained bytes exceed the budget, entries are evicted
least-recently-used from whichever cache currently retains the most
bytes, so one oversized layer cannot starve the others. An entry retains
its value's payload (a basis entry is two int64 vectors) plus the
fingerprint bytes of its key. A state fingerprint is the 32-byte SHA-256
digest of its opinion bytes (:meth:`GroundCostCache.fingerprint`), so a
transition entry holds 64 key bytes next to an 8-byte float whatever the
number of users.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict, deque
from contextlib import contextmanager

import numpy as np

from repro.exceptions import ValidationError
from repro.opinions.state import NetworkState
from repro.snd.ground import EdgeCosts

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_ROW_CACHE_SIZE",
    "DEFAULT_TRANSITION_CACHE_SIZE",
    "DEFAULT_BASIS_CACHE_SIZE",
    "GroundCostCache",
    "DijkstraRowCache",
    "TransitionCache",
    "BasisCache",
    "CacheManager",
]

#: Default bound on cached cost arrays. A series sweep only ever has 4
#: entries live (two states x two polarities), and the cache shrinks
#: towards that on its own; pairwise callers reserve ``2·N`` explicitly.
#: 64 leaves room for reuse that reaches further back while bounding
#: retained memory at ``64 · m`` floats.
DEFAULT_CACHE_SIZE = 64

#: Default bound on cached Dijkstra rows (one row = ``n`` floats; 256 rows
#: of a 2000-node graph retain ~4 MB).
DEFAULT_ROW_CACHE_SIZE = 256

#: Default bound on cached transition values. Entries are single floats
#: keyed by two fingerprints, so a large default is cheap and lets long
#: sliding-window sweeps reuse every previously solved transition.
DEFAULT_TRANSITION_CACHE_SIZE = 65536

#: Default bound on cached spanning-tree bases. A basis entry is two int64
#: label vectors of roughly ``n_sup + n_con`` entries — orders of magnitude
#: heavier than a transition float, so the default is deliberately small;
#: temporal locality only needs the recent past.
DEFAULT_BASIS_CACHE_SIZE = 512


def _key_nbytes(key) -> int:
    """Bytes retained by the ``bytes`` parts of a cache key (state
    fingerprints), nested tuples included."""
    if isinstance(key, bytes):
        return len(key)
    if not isinstance(key, tuple):
        return 0
    total = 0
    for part in key:
        if isinstance(part, bytes):
            total += len(part)
        elif isinstance(part, tuple):
            total += _key_nbytes(part)
    return total


def _value_nbytes(value) -> int:
    """Approximate retained payload bytes of one cache entry."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, float):
        return 8
    nbytes = getattr(value, "nbytes", None)  # e.g. TransportBasis payloads
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return int(sys.getsizeof(value))


class _LruCache:
    """Bounded thread-safe LRU shared by the four SND caches.

    ``hits`` / ``misses`` / ``evictions`` counters make reuse testable:
    ``misses`` equals the number of fresh computations performed through
    the cache. Retained bytes (key fingerprints plus value payloads) are
    tracked in :attr:`nbytes` so a :class:`CacheManager` can enforce a
    budget across caches. Pickling
    drops the entries and the lock (process-pool workers rebuild their own
    caches; shipping entries across the boundary defeats the point).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValidationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._manager: "CacheManager | None" = None
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _get(self, key):
        """Entry for *key* (counting a hit) or ``None`` (counting a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def _put(self, key, value) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= _value_nbytes(old)
            else:
                self._nbytes += _key_nbytes(key)
            self._entries[key] = value
            self._nbytes += _value_nbytes(value)
            self._shrink_locked()
        if self._manager is not None:
            self._manager._rebalance()

    def _capacity(self) -> int:
        """Entries kept before an insert evicts the oldest."""
        return self.maxsize

    def _shrink_locked(self) -> None:
        """Evict the oldest entries down to :meth:`_capacity`."""
        while len(self._entries) > self._capacity():
            self._evict_oldest_locked()

    def _evict_oldest_locked(self) -> int:
        key, value = self._entries.popitem(last=False)
        freed = _key_nbytes(key) + _value_nbytes(value)
        self._nbytes -= freed
        self.evictions += 1
        return freed

    def evict_oldest(self) -> int:
        """Drop the least-recently-used entry; returns the bytes freed."""
        with self._lock:
            if not self._entries:
                return 0
            return self._evict_oldest_locked()

    @property
    def nbytes(self) -> int:
        """Approximate retained bytes: key fingerprints plus payloads."""
        return self._nbytes

    def grow(self, maxsize: int) -> None:
        """Raise :attr:`maxsize` to at least *maxsize* (never shrinks)."""
        self.maxsize = max(self.maxsize, int(maxsize))

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, builds, evictions, size, bytes.

        Key names match the Prometheus metric names the serve tier
        exports (``snd_cache_*``); ``max_size`` replaced the historical
        ``maxsize`` key as part of that normalisation.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "max_size": self.maxsize,
            "nbytes": self._nbytes,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]  # locks cannot cross pickle; workers re-create
        state["_entries"] = OrderedDict()  # entries don't travel: workers
        state["_nbytes"] = 0  # rebuild their own; shipping arrays defeats the point
        state["_manager"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(size={len(self._entries)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class GroundCostCache(_LruCache):
    """Bounded LRU cache of Eq. 2 edge-cost arrays, sized by its own hits.

    Keys are ``(state fingerprint, opinion)`` where the fingerprint is the
    SHA-256 digest of the opinion-vector bytes — two states with equal
    opinions share an entry regardless of object identity. Values are the
    :class:`~repro.snd.ground.EdgeCosts` of
    :meth:`repro.snd.ground.GroundDistanceConfig.build` (:meth:`costs`):
    the CSR-aligned cost array (:meth:`edge_costs`), stored read-only so no
    caller can change a shared entry, with its integrality and smallest
    costs, each found at most once per array.

    The cache keeps about twice as many arrays as the deepest LRU position
    (1 = most recent) its last :attr:`HIT_WINDOW` hits came from, and at
    least :attr:`MIN_SIZE`: a stream that re-reads only the newest state's
    arrays holds a few, while a workload that reaches far back keeps
    :attr:`maxsize`. It holds :attr:`maxsize` until :attr:`HIT_WARMUP`
    hits are recorded, goes back to it when a miss names a key it evicted
    lately, and never holds fewer than a reservation in force asked for
    (:meth:`reserve`, :meth:`reserved`). The
    current bound is ``capacity`` in :meth:`stats`, and the cache never
    holds more: when a hit or the end of a reservation lowers it, the
    oldest arrays are evicted at once.

    The cache is thread-safe (one lock around lookups/inserts) so a thread
    fan-out can share a single instance; process workers each hold their
    own. ``misses`` equals the number of ground-cost builds performed.
    """

    #: Fewest arrays the cache keeps once sized by its hits.
    MIN_SIZE = 8
    #: Recent hits whose LRU positions set the size, and how many are
    #: recorded before they do.
    HIT_WINDOW = 64
    HIT_WARMUP = 8

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(maxsize)
        self._floors: list[int] = []  # what reserve() calls in force asked for
        self._depths: deque = deque(maxlen=self.HIT_WINDOW)
        self._evicted: OrderedDict = OrderedDict()  # keys evicted lately
        self._size = 0  # 0 until HIT_WARMUP hits are recorded: maxsize

    @staticmethod
    def fingerprint(state: NetworkState) -> bytes:
        """32-byte content key for *state* (equal opinions => equal key),
        computed once per state object."""
        return state.content_key()

    def edge_costs(self, ground, graph, state: NetworkState, opinion: int) -> np.ndarray:
        """Cached ``ground.edge_costs(graph, state, opinion)`` (read-only)."""
        return self.costs(ground, graph, state, opinion).values

    def costs(self, ground, graph, state: NetworkState, opinion: int) -> EdgeCosts:
        """Cached ``ground.build(graph, state, opinion)``: :meth:`edge_costs`
        with the facts the certified loop and the bounds read."""
        key = (self.fingerprint(state), int(opinion))
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                for depth, held in enumerate(reversed(self._entries), 1):
                    if held == key:
                        break
                self._entries.move_to_end(key)
                self.hits += 1
                self._record_depth(depth)
                self._shrink_locked()  # the hit may have lowered the capacity
                return cached
            self.misses += 1
            if self._evicted.pop(key, False):
                self._record_depth(self.maxsize)
        costs = ground.build(graph, state, opinion)
        costs.values.setflags(write=False)
        self._put(key, costs)
        return costs

    def _record_depth(self, depth: int) -> None:
        self._depths.append(depth)
        if len(self._depths) >= self.HIT_WARMUP:
            self._size = max(self.MIN_SIZE, 2 * max(self._depths))

    def _capacity(self) -> int:
        if not self._size:
            return self.maxsize
        return max([min(self._size, self.maxsize), *self._floors])

    def _evict_oldest_locked(self) -> int:
        # LRU and memory-budget evictions both come through here.
        self._evicted[next(iter(self._entries))] = True
        if len(self._evicted) > self.maxsize:
            self._evicted.popitem(last=False)
        return super()._evict_oldest_locked()

    def reserve(self, n_entries: int) -> None:
        """Hold at least *n_entries* arrays from now on (growing
        :attr:`maxsize` to fit)."""
        self.grow(n_entries)
        with self._lock:
            self._floors.append(int(n_entries))

    @contextmanager
    def reserved(self, n_entries: int):
        """:meth:`reserve` *n_entries* arrays while the block runs only;
        afterwards the cache is sized as before it (a larger
        :attr:`maxsize` stays)."""
        self.reserve(n_entries)
        try:
            yield
        finally:
            with self._lock:
                self._floors.remove(int(n_entries))
                self._shrink_locked()

    @property
    def builds(self) -> int:
        """Number of ground-cost arrays actually built (== misses)."""
        return self.misses

    def stats(self) -> dict:
        out = super().stats()
        out["capacity"] = self._capacity()
        return out

    def clear(self) -> None:
        super().clear()
        with self._lock:
            self._depths.clear()
            self._evicted.clear()
            self._size = 0

    def __getstate__(self):
        state = super().__getstate__()
        state["_depths"] = deque(maxlen=self.HIT_WINDOW)  # like the entries
        state["_evicted"] = OrderedDict()
        state["_size"] = 0
        return state


def _quantile(ordered: list, q: float) -> float:
    """The *q* quantile of the sorted *ordered*, interpolated linearly as
    ``numpy.percentile`` does (sorting a few dozen floats beats its
    overhead)."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class DijkstraRowCache(_LruCache):
    """Bounded LRU cache of full per-source shortest-path rows, plus the
    record of certificate radii that sets how far a term searches.

    A row is ``dist(source -> ·)`` (or ``dist(· -> source)`` when
    *reverse*) under one supplier-side cost array; the key is
    ``(cost_key, reverse, source)`` where ``cost_key`` is the ground-cost
    cache key ``(state fingerprint, opinion)``. An entry is a dense,
    read-only full row. A request at any radius is a hit on a held row and
    is served cut at the asked radius (``inf`` beyond it): a search
    limited to a radius settles exactly the nodes within it, at their full
    distances, so the cut row is bit-identical to the limited search, and
    a matrix stitched from held and fresh rows is bit-identical to one
    batched ``multi_source_distances(..., limit=)`` call — what a term
    sees never depends on what the cache held, which is what makes the
    cache safe for the exactness contract of the batch engine.

    Rows are stored only while the record starts terms full
    (:meth:`start_radius` is ``inf``): during its warm-up, while
    certificates settle most of the graph, and in an engine that never
    consults it (the ``"cluster"`` bank metric). Those are the rows later
    requests read back. A row searched to a radius, or grown to full
    inside a certified term, is never stored: a certified stream moves to
    a new state with each term and never asks for it again.

    The record of recent certificate radii (:meth:`record_radius`) sets
    where the next term's searches start (:meth:`start_radius`); see
    :mod:`repro.snd.fast`. The held rows are dropped when the record
    moves from full rows to bounded starts: a bounded search moves to a
    new state with each term, and never read them back on the measured
    streams.

    ``misses`` counts row requests that ran a search, ``settled`` the
    nodes those searches settled and ``terms`` the certified terms
    started, so ``settled / terms`` is the nodes a term settles.
    ``mirrored`` counts the terms among them started at their mirror
    term's dual radii instead of the record (:meth:`count_mirrored`).
    """

    #: Certificate radii kept for :meth:`start_radius`, and how many it
    #: needs before it starts a term at a finite radius.
    RADIUS_WINDOW = 64
    RADIUS_WARMUP = 16
    #: A term with at least this many row sources starts at the median of
    #: the record, a term with fewer at its 75th percentile: the rows a
    #: lower start saves grow with the sources, while the extra round it
    #: may cost is the same for every term.
    MANY_SOURCES = 4
    #: Settled fraction of the graph past which rows are searched in full.
    FULL_ROW_FRACTION = 0.5
    #: While rows are searched in full for that reason, one term in this
    #: many records its certificate (enough to notice them shrinking).
    FULL_ROW_SAMPLE = 8

    def __init__(self, maxsize: int = DEFAULT_ROW_CACHE_SIZE) -> None:
        super().__init__(maxsize)
        self._radii: deque = deque(maxlen=self.RADIUS_WINDOW)  # (radius, settled)
        # The settled fractions of the terms that started from the record.
        self._fractions: deque = deque(maxlen=self.RADIUS_WINDOW)
        self._start = np.inf  # p75 of the record
        self._median = np.inf
        self._full_rows = False  # full rows for large certificates
        self._full_row_terms = 0  # terms started so since the last bounded one
        self.settled = 0
        self.terms = 0
        self.mirrored = 0

    def record_radius(self, radius: float, settled: float | None) -> None:
        """Keep one solved term's certificate radius and the fraction of
        the graph its rows hold within that radius, and work out where
        the next terms start (:meth:`start_radius`).

        *settled* is ``None`` for a term that did not start from the
        record (a mirror-started one): where its rows stopped was not the
        record's choice, so its fraction says nothing of the record's
        starts. Its radius, the largest cost its optimal plan ships on,
        joins the start percentiles all the same, while the full-row rule
        reads only the fractions of record-started terms, as if the
        others had not run. When the record moves from full rows to
        bounded starts, the held rows go."""
        with self._lock:
            was_full = self._start == np.inf
            self._radii.append((float(radius), settled))
            if settled is not None:
                self._fractions.append(float(settled))
            self._start = self._median = np.inf
            self._full_rows = False
            if len(self._radii) >= self.RADIUS_WARMUP:
                self._full_rows = bool(self._fractions) and (
                    _quantile(sorted(self._fractions), 0.75) > self.FULL_ROW_FRACTION
                )
                if not self._full_rows:
                    radii = sorted(radius for radius, _ in self._radii)
                    self._start = _quantile(radii, 0.75)
                    self._median = _quantile(radii, 0.5)
            if was_full and self._start < np.inf:
                while self._entries:
                    self._evict_oldest_locked()

    def start_radius(self, n_sources: int = 1) -> float:
        """Search radius for a new term with *n_sources* row sources: the
        median of the last 64 recorded certificate radii from
        :attr:`MANY_SOURCES` sources on, their 75th percentile below.

        It is ``inf`` (full rows) until :attr:`RADIUS_WARMUP` are recorded
        — a percentile of fewer would be a noisy guess, and an engine's
        first terms then run exactly as cache-free ones do — and while the
        75th percentile of their settled fractions exceeds
        :attr:`FULL_ROW_FRACTION`: there a bounded search saves little and
        its extra rounds cost more. Each call counts one term.
        """
        with self._lock:
            self.terms += 1
            self._full_row_terms = self._full_row_terms + 1 if self._full_rows else 0
            return self._median if n_sources >= self.MANY_SOURCES else self._start

    def count_mirrored(self) -> None:
        """Count a term started at its mirror's dual radii: it asked
        :meth:`start_radius` (a finite answer lets it start bounded) and
        records no certificate."""
        with self._lock:
            self.mirrored += 1

    def record_due(self) -> bool:
        """Whether the term started last should record its certificate:
        always, except while rows run full for large certificates, when
        one term in :attr:`FULL_ROW_SAMPLE` does."""
        return self._full_row_terms % self.FULL_ROW_SAMPLE == 0

    def distance_rows(
        self,
        graph,
        sources,
        edge_costs: np.ndarray,
        *,
        reverse: bool,
        cost_key,
        radius=np.inf,
        matrix=None,
    ) -> np.ndarray:
        """``multi_source_distances(..., limit=radius)`` with per-source
        row memoisation; *radius* is one value or one per source. Sources
        still to search go out in one call per distinct radius, on the
        matrix the zero-argument *matrix* returns (the caller's shared
        ``search_matrix(graph, edge_costs, reverse=reverse)``) when given."""
        from repro.shortestpath.dijkstra import multi_source_distances

        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        radii = np.asarray(radius, dtype=np.float64)
        if radii.ndim == 0:
            radii = np.full(sources.shape, radii)
        keys = [(cost_key, bool(reverse), s) for s in sources.tolist()]
        out = np.empty((sources.size, graph.num_nodes))
        searches: dict[float, list[int]] = {}
        with self._lock:
            for i, (key, r) in enumerate(zip(keys, radii.tolist())):
                row = self._entries.get(key)
                if row is None:
                    self.misses += 1
                    searches.setdefault(r, []).append(i)
                    continue
                self._entries.move_to_end(key)
                self.hits += 1
                out[i] = row if r == np.inf else np.where(row <= r, row, np.inf)
        for r, rows in searches.items():
            fresh = multi_source_distances(
                graph, sources[rows], weights=edge_costs, reverse=reverse, limit=r,
                matrix=None if matrix is None else matrix(),
            )
            if len(rows) == sources.size:
                out = fresh
            else:
                out[rows] = fresh
            with self._lock:
                self.settled += int(np.count_nonzero(np.isfinite(fresh)))
                store = r == np.inf and self._start == np.inf
            if store:
                for k, i in enumerate(rows):
                    row = fresh[k].copy()
                    row.setflags(write=False)
                    self._put(keys[i], row)
        return out

    def stats(self) -> dict:
        out = super().stats()
        out["settled"] = self.settled
        out["terms"] = self.terms
        out["mirrored"] = self.mirrored
        return out

    def clear(self) -> None:
        super().clear()
        with self._lock:
            self._radii.clear()
            self._fractions.clear()
            self._start = self._median = np.inf
            self._full_rows, self._full_row_terms = False, 0

    def __getstate__(self):
        state = super().__getstate__()
        state["_radii"] = deque(maxlen=self.RADIUS_WINDOW)  # like the entries
        state["_fractions"] = deque(maxlen=self.RADIUS_WINDOW)
        state["_start"] = state["_median"] = np.inf
        state["_full_rows"], state["_full_row_terms"] = False, 0
        return state


class TransitionCache(_LruCache):
    """Bounded LRU cache of finished SND transition values.

    Keys are the *ordered* fingerprint pair of the two states (Eq. 3 is
    symmetric, but term summation order differs under a swap, so the
    ordered key preserves the bit-identical contract); values are floats,
    so an entry counts 72 bytes (two 32-byte digests and the float).
    ``misses`` counts fresh transitions actually solved — a sliding window
    shifted by one state shows exactly one miss per shift, and a corpus
    extension shows exactly one miss per *new* pair.
    """

    def __init__(self, maxsize: int = DEFAULT_TRANSITION_CACHE_SIZE) -> None:
        super().__init__(maxsize)

    @staticmethod
    def key(a: NetworkState, b: NetworkState) -> tuple[bytes, bytes]:
        return (GroundCostCache.fingerprint(a), GroundCostCache.fingerprint(b))

    def get(self, a: NetworkState, b: NetworkState) -> float | None:
        """Cached distance for the ordered pair, or ``None`` (counts the
        miss — the caller is expected to solve and :meth:`put` it)."""
        return self._get(self.key(a, b))

    def put(self, a: NetworkState, b: NetworkState, value: float) -> None:
        self._put(self.key(a, b), float(value))

    def contains(self, a: NetworkState, b: NetworkState) -> bool:
        """Membership probe that does **not** touch the hit/miss counters
        (used when seeding the cache with already-solved values, so
        ``fresh`` keeps counting exactly the pairs actually solved)."""
        return self.key(a, b) in self._entries

    @property
    def fresh(self) -> int:
        """Number of transitions actually solved (== misses)."""
        return self.misses

    @property
    def reused(self) -> int:
        """Number of transitions answered from the cache (== hits)."""
        return self.hits

    # ------------------------------------------------------------------ #
    # Persistence (the store's ``transition_cache`` table)
    # ------------------------------------------------------------------ #

    def export_rows(self) -> list[tuple[bytes, bytes, float]]:
        """Snapshot of every entry as ``(key_a, key_b, value)`` rows (keys
        are 32-byte state digests), in LRU order (oldest first), for
        spilling to the experiment store.
        Counter-free: exporting is not a lookup."""
        with self._lock:
            return [(ka, kb, float(v)) for (ka, kb), v in self._entries.items()]

    def seed_rows(self, rows) -> int:
        """Warm the cache from persisted ``(key_a, key_b, value)`` rows.

        Counter-neutral, like the corpus seeding path: seeded entries do
        not touch hit/miss, so ``fresh`` keeps counting only the pairs
        actually solved in this process.  The cache grows to fit the
        seed — restoring a spilled cache must not silently evict its own
        warm set.  Returns the number of entries inserted.
        """
        rows = list(rows)
        if not rows:
            return 0
        self.grow(len(rows) + len(self._entries))
        for key_a, key_b, value in rows:
            self._put((bytes(key_a), bytes(key_b)), float(value))
        return len(rows)


class BasisCache(_LruCache):
    """Bounded LRU store of optimal spanning-tree bases per EMD* term.

    Keys are ``(supplier fingerprint, consumer fingerprint, opinion)``;
    values are :class:`repro.flow.basis.TransportBasis` objects whose
    entries are *stable labels* (global node ids, bank bins as negative
    labels), so a basis cached for one term can be re-anchored onto the
    reduced instance of a different, temporally nearby term.

    :meth:`get_warm` resolves a hint through three channels, cheapest
    first:

    1. **exact** — the same term was solved before (replays);
    2. **reverse** — the transposed term ``(consumer, supplier, opinion)``
       was solved: the role-swapped tree (same node sets) transposes into
       a structurally valid start — this warms terms 3/4 of a pair from
       terms 1/2 within the *same* pair;
    3. **supplier** — the most recent term with the same supplier state
       and opinion: the previous window shift / corpus row, whose reduced
       node sets overlap heavily on temporally local workloads.

    Each channel has its own hit counter (``exact_hits`` etc.) so tests
    and benchmarks can assert *which* locality actually fired; a
    :meth:`get_warm` call counts exactly one hit or one miss. Since any
    basis is merely a hint (the solver repairs it against the new
    marginals), a stale or partially overlapping entry can never change a
    result — only pivot counts.
    """

    def __init__(self, maxsize: int = DEFAULT_BASIS_CACHE_SIZE) -> None:
        super().__init__(maxsize)
        # (supplier fingerprint, opinion) -> most recent full key; an entry
        # leaves with the basis it points at, so it never outgrows the store.
        self._index: dict = {}
        self.exact_hits = 0
        self.reverse_hits = 0
        self.supplier_hits = 0

    def put_term(self, key: tuple, basis) -> None:
        """Store the optimal basis of the term *key* (ordered key:
        ``(fp_supplier, fp_consumer, opinion)``)."""
        self._put(key, basis)
        with self._lock:
            # A budget rebalance or another thread may already have evicted
            # the basis; indexing it then would point at a missing entry.
            if key in self._entries:
                self._index[(key[0], key[2])] = key

    def get_warm(self, key: tuple):
        """Best available warm-start hint for the term *key*, or ``None``."""
        fp_sup, fp_con, opinion = key
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self.exact_hits += 1
                return entry
            reverse_key = (fp_con, fp_sup, opinion)
            entry = self._entries.get(reverse_key)
            if entry is not None:
                self._entries.move_to_end(reverse_key)
                self.hits += 1
                self.reverse_hits += 1
                return entry.transpose()
            near_key = self._index.get((fp_sup, opinion))
            if near_key is not None:
                self._entries.move_to_end(near_key)
                self.hits += 1
                self.supplier_hits += 1
                return self._entries[near_key]
            self.misses += 1
            return None

    def _evict_oldest_locked(self) -> int:
        # LRU and memory-budget evictions both come through here.
        key = next(iter(self._entries))
        index_key = (key[0], key[2])
        if self._index.get(index_key) == key:
            del self._index[index_key]
        return super()._evict_oldest_locked()

    def stats(self) -> dict:
        out = super().stats()
        out["exact_hits"] = self.exact_hits
        out["reverse_hits"] = self.reverse_hits
        out["supplier_hits"] = self.supplier_hits
        return out

    def clear(self) -> None:
        super().clear()
        with self._lock:
            self._index.clear()

    def __getstate__(self):
        state = super().__getstate__()
        state["_index"] = {}  # entries don't travel, so neither does the index
        return state


class CacheManager:
    """One cache hierarchy for every SND entry point.

    Bundles a :class:`GroundCostCache`, a :class:`DijkstraRowCache`, a
    :class:`TransitionCache` and a :class:`BasisCache` behind a single
    stats surface and an optional shared *memory_budget* (bytes).
    Existing cache instances can be adopted
    (``CacheManager(ground=my_cache)``), which is how
    :meth:`~repro.snd.snd.SND.pairwise_matrix` swaps in a right-sized
    ground cache for one call while sharing the instance's other caches.

    The budget is enforced on insert: while the total retained bytes
    exceed it, the least-recently-used entry of whichever member cache
    currently retains the most bytes is evicted (so an oversized row cache
    cannot crowd out the ground-cost arrays, and vice versa). Eviction
    never breaks correctness — every cache is a pure memoisation layer —
    it only costs rebuilds, which the per-cache ``evictions`` counters
    expose.

    Pickling ships the configuration but no entries (same contract as the
    member caches): process-pool workers rebuild their own hierarchy.
    """

    def __init__(
        self,
        *,
        ground_size: int = DEFAULT_CACHE_SIZE,
        row_size: int = DEFAULT_ROW_CACHE_SIZE,
        transition_size: int = DEFAULT_TRANSITION_CACHE_SIZE,
        basis_size: int = DEFAULT_BASIS_CACHE_SIZE,
        memory_budget: int | None = None,
        ground: GroundCostCache | None = None,
        rows: DijkstraRowCache | None = None,
        transitions: TransitionCache | None = None,
        bases: "BasisCache | None" = None,
    ) -> None:
        if memory_budget is not None and memory_budget < 1:
            raise ValidationError(
                f"memory_budget must be >= 1 byte, got {memory_budget}"
            )
        self.memory_budget = memory_budget
        self.ground = ground if ground is not None else GroundCostCache(ground_size)
        self.rows = rows if rows is not None else DijkstraRowCache(row_size)
        self.transitions = (
            transitions if transitions is not None else TransitionCache(transition_size)
        )
        self.bases = bases if bases is not None else BasisCache(basis_size)
        for cache in self._members():
            # Adopt unowned caches only: a cache already reporting to a
            # budgeted manager keeps doing so when a transient manager
            # borrows it for one call.
            if cache._manager is None:
                cache._manager = self

    def _members(self) -> tuple[_LruCache, ...]:
        return (self.ground, self.rows, self.transitions, self.bases)

    @property
    def nbytes(self) -> int:
        """Total retained bytes across the hierarchy."""
        return sum(cache.nbytes for cache in self._members())

    def _rebalance(self) -> None:
        """Evict LRU entries from the biggest cache until under budget."""
        if self.memory_budget is None:
            return
        while self.nbytes > self.memory_budget:
            victim = max(self._members(), key=lambda c: c.nbytes)
            if victim.evict_oldest() == 0:
                break  # nothing evictable left anywhere

    def ensure_ground_capacity(self, n_entries: int) -> None:
        """Grow the ground cache so *n_entries* cost arrays fit at once,
        and keep it from holding fewer from now on (a pool worker holds
        every state's arrays this way; a pairwise matrix reserves its
        ``n_poles·N`` for the call only, :meth:`GroundCostCache.reserved`)."""
        self.ground.reserve(n_entries)

    def stats(self) -> dict:
        """Per-cache counters plus the hierarchy totals.

        Keys ``ground`` / ``rows`` / ``transitions`` / ``bases`` each map
        to the member's :meth:`_LruCache.stats` dict (hits, misses,
        builds, evictions, size, max_size, nbytes — the ground cache adds
        its current ``capacity``, the row cache its search counters and
        the basis store its per-channel warm-hit counters); ``total_nbytes`` and
        ``memory_budget`` summarise the shared budget.
        """
        return {
            "ground": self.ground.stats(),
            "rows": self.rows.stats(),
            "transitions": self.transitions.stats(),
            "bases": self.bases.stats(),
            "total_nbytes": self.nbytes,
            "memory_budget": self.memory_budget,
        }

    def clear(self) -> None:
        for cache in self._members():
            cache.clear()

    def __getstate__(self):
        return {
            "memory_budget": self.memory_budget,
            "ground": self.ground,
            "rows": self.rows,
            "transitions": self.transitions,
            "bases": self.bases,
        }

    def __setstate__(self, state):
        self.memory_budget = state["memory_budget"]
        self.ground = state["ground"]
        self.rows = state["rows"]
        self.transitions = state["transitions"]
        self.bases = state["bases"]
        for cache in self._members():
            if cache._manager is None:
                cache._manager = self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheManager(ground={len(self.ground)}, rows={len(self.rows)}, "
            f"transitions={len(self.transitions)}, bases={len(self.bases)}, "
            f"nbytes={self.nbytes}, budget={self.memory_budget})"
        )
