"""Tests for the unified cache hierarchy (repro.snd.cache)."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.flow.basis import TransportBasis
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState
from repro.snd import SND, CacheManager, GroundCostCache, TransitionCache
from repro.snd.cache import BasisCache, DijkstraRowCache, _value_nbytes


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(40, 0.15, seed=7)


@pytest.fixture(scope="module")
def snd(graph):
    return SND(graph, n_clusters=3, seed=0)


def fill_ground(manager: CacheManager, snd, graph, n: int) -> None:
    for k in range(n):
        state = NetworkState.from_active_sets(40, positive=[k])
        manager.ground.edge_costs(snd.ground, graph, state, 1)


class TestCacheManager:
    def test_members_and_adoption(self):
        ground = GroundCostCache(8)
        manager = CacheManager(ground=ground)
        assert manager.ground is ground
        assert manager.rows is not None and manager.transitions is not None
        # Adopted caches report into the manager.
        assert ground._manager is manager

    def test_stats_surface(self, graph, snd):
        manager = CacheManager()
        state = NetworkState.from_active_sets(40, positive=[0])
        manager.ground.edge_costs(snd.ground, graph, state, 1)
        manager.ground.edge_costs(snd.ground, graph, state, 1)
        stats = manager.stats()
        assert set(stats) == {
            "ground", "rows", "transitions", "bases", "total_nbytes",
            "memory_budget",
        }
        assert stats["ground"]["hits"] == 1
        assert stats["ground"]["misses"] == stats["ground"]["builds"] == 1
        assert stats["ground"]["size"] == 1
        assert stats["ground"]["nbytes"] > 0
        assert stats["total_nbytes"] >= stats["ground"]["nbytes"]
        assert stats["memory_budget"] is None

    def test_memory_budget_evicts(self, graph, snd):
        manager = CacheManager(memory_budget=1)  # essentially nothing fits
        fill_ground(manager, snd, graph, 4)
        assert manager.nbytes <= max(
            c.nbytes for c in manager._members()
        )  # all but (at most) the newest entry evicted
        assert manager.ground.stats()["evictions"] >= 3

    def test_budget_targets_biggest_cache(self, graph, snd):
        # Cost arrays dwarf transition floats: the budget must evict the
        # ground cache, not starve the transition cache.
        state_a = NetworkState.from_active_sets(40, positive=[0])
        state_b = NetworkState.from_active_sets(40, positive=[1])
        probe = CacheManager()
        probe.ground.edge_costs(snd.ground, graph, state_a, 1)
        one_array = probe.ground.nbytes
        manager = CacheManager(memory_budget=2 * one_array)
        fill_ground(manager, snd, graph, 6)
        for k in range(16):
            manager.transitions.put(
                NetworkState.from_active_sets(40, positive=[k]), state_b, float(k)
            )
        assert manager.transitions.stats()["evictions"] == 0
        assert manager.ground.stats()["evictions"] >= 4

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError):
            CacheManager(memory_budget=0)

    def test_eviction_never_breaks_values(self, graph, snd):
        # A starved hierarchy must still produce bit-identical results.
        from repro.opinions.state import StateSeries
        from repro.snd import SNDEngine

        states = [
            NetworkState.from_active_sets(40, positive=list(range(k + 1)))
            for k in range(5)
        ]
        series = StateSeries(states)
        reference = snd.evaluate_series(series)
        manager = CacheManager(memory_budget=1)
        with SNDEngine(snd, jobs=None, caches=manager) as engine:
            starved = engine.evaluate_series(series)
        assert np.array_equal(reference, starved)
        assert manager.nbytes <= 1

    def test_ensure_ground_capacity_grows_only(self):
        manager = CacheManager(ground_size=4)
        manager.ensure_ground_capacity(16)
        assert manager.ground.maxsize == 16
        manager.ensure_ground_capacity(2)
        assert manager.ground.maxsize == 16

    def test_clear(self, graph, snd):
        manager = CacheManager()
        fill_ground(manager, snd, graph, 3)
        manager.clear()
        assert manager.nbytes == 0
        assert len(manager.ground) == 0

    def test_pickle_drops_entries_keeps_config(self, graph, snd):
        manager = CacheManager(ground_size=7, memory_budget=12345)
        fill_ground(manager, snd, graph, 3)
        clone = pickle.loads(pickle.dumps(manager))
        assert clone.memory_budget == 12345
        assert clone.ground.maxsize == 7
        assert len(clone.ground) == 0 and clone.nbytes == 0
        # The clone is fully wired (budget enforcement still works).
        assert clone.ground._manager is clone
        fill_ground(clone, snd, graph, 2)
        assert len(clone.ground) >= 1


class TestCounters:
    def test_eviction_counter(self):
        cache = TransitionCache(maxsize=2)
        states = [NetworkState.from_active_sets(10, positive=[k]) for k in range(5)]
        for k in range(4):
            cache.put(states[k], states[k + 1], float(k))
        assert cache.evictions == 2
        assert cache.stats()["evictions"] == 2

    def test_contains_does_not_count(self):
        cache = TransitionCache()
        a = NetworkState.from_active_sets(10, positive=[0])
        b = NetworkState.from_active_sets(10, positive=[1])
        assert not cache.contains(a, b)
        cache.put(a, b, 1.0)
        assert cache.contains(a, b)
        assert cache.hits == 0 and cache.misses == 0

    def test_nbytes_tracks_entries(self):
        # A row key nests the cost key: ((fingerprint, opinion), reverse,
        # source); its fingerprint bytes count next to the row.
        cache = DijkstraRowCache(maxsize=4)
        row = np.arange(10, dtype=np.float64)
        key = ((b"fp", 1), False, 0)
        cache._put(key, row)
        assert cache.nbytes == row.nbytes + 2
        cache._put(key, row)  # overwrite: no double count
        assert cache.nbytes == row.nbytes + 2
        cache.evict_oldest()
        assert cache.nbytes == 0

    def test_transition_entry_counts_key_bytes(self):
        # An 8-byte value keyed by two 32-byte state digests retains 72
        # bytes whatever the number of users; the budget must see them.
        for n in (10, 20_000):
            a = NetworkState.from_active_sets(n, positive=[0])
            b = NetworkState.from_active_sets(n, positive=[1])
            cache = TransitionCache()
            cache.put(a, b, 1.0)
            assert cache.nbytes == 2 * 32 + 8
            manager = CacheManager(memory_budget=2 * 32 + 7)
            manager.transitions.put(a, b, 1.0)
            assert len(manager.transitions) == 0
            assert manager.transitions.evictions == 1
            assert manager.nbytes == 0


def _look_up(ground: GroundCostCache, snd, graph, k: int) -> np.ndarray:
    state = NetworkState.from_active_sets(40, positive=[k])
    return ground.edge_costs(snd.ground, graph, state, 1)


class TestGroundCapacity:
    """The ground cache keeps about twice the deepest LRU position its
    recent hits came from (at least MIN_SIZE arrays), goes back to maxsize
    when a miss names a key it evicted, never holds fewer than a
    reservation, and stores its arrays read-only."""

    def test_cached_costs_are_read_only(self, graph, snd):
        manager = CacheManager()
        state = NetworkState.from_active_sets(40, positive=[0, 3], negative=[5])
        costs = manager.ground.edge_costs(snd.ground, graph, state, 1)
        expected = snd.ground.edge_costs(graph, state, 1)
        with pytest.raises(ValueError):
            costs[0] = -1.0
        with pytest.raises(ValueError):
            costs += 1.0
        again = manager.ground.edge_costs(snd.ground, graph, state, 1)
        assert again is costs and manager.ground.hits == 1
        assert np.array_equal(again, expected)

    def test_shallow_hits_shrink_to_min_size(self, graph, snd):
        ground = GroundCostCache(64)
        for k in range(40):  # each key read twice in a row: depth 1
            _look_up(ground, snd, graph, k)
            _look_up(ground, snd, graph, k)
            assert len(ground) <= max(ground.MIN_SIZE, k + 1)
        assert ground.stats()["capacity"] == ground.MIN_SIZE
        assert len(ground) == ground.MIN_SIZE
        assert ground.builds == 40

    def test_deep_hits_keep_every_array(self, graph, snd):
        ground = GroundCostCache(64)
        for _ in range(4):  # a cycle over 20 keys: every hit at depth 20
            for k in range(20):
                _look_up(ground, snd, graph, k)
        assert ground.builds == 20 and ground.evictions == 0
        assert ground.stats()["capacity"] == 40

    def test_miss_on_evicted_key_restores_maxsize(self, graph, snd):
        ground = GroundCostCache(64)
        for k in range(20):
            _look_up(ground, snd, graph, k)
            _look_up(ground, snd, graph, k)
        assert ground.stats()["capacity"] == ground.MIN_SIZE
        _look_up(ground, snd, graph, 0)  # evicted long ago
        assert ground.builds == 21
        assert ground.stats()["capacity"] == 64

    def test_reservation_is_a_floor(self, graph, snd):
        manager = CacheManager(ground_size=16)
        manager.ensure_ground_capacity(30)
        for k in range(40):
            _look_up(manager.ground, snd, graph, k)
            _look_up(manager.ground, snd, graph, k)
        stats = manager.stats()["ground"]
        assert stats["capacity"] == stats["max_size"] == 30
        assert len(manager.ground) == 30

    def test_shallow_hits_evict_down_to_capacity(self, graph, snd):
        """A hit that lowers the capacity evicts down to it at once, not at
        the next insert: 20 arrays held, one hit 20 deep, then 64 hits one
        deep leave the cache at MIN_SIZE arrays."""
        ground = GroundCostCache(64)
        for k in range(20):
            _look_up(ground, snd, graph, k)
        for _ in range(1 + ground.HIT_WINDOW):  # depth 20 first, then depth 1
            _look_up(ground, snd, graph, 0)
        stats = ground.stats()
        assert stats["capacity"] == ground.MIN_SIZE
        assert stats["size"] == ground.MIN_SIZE
        assert stats["misses"] == stats["evictions"] + stats["size"]
        assert stats["nbytes"] == sum(32 + v.nbytes for v in ground._entries.values())

    def test_reservation_end_evicts_down_to_capacity(self, graph, snd):
        ground = GroundCostCache(64)
        with ground.reserved(30):
            for k in range(30):
                _look_up(ground, snd, graph, k)
                _look_up(ground, snd, graph, k)
            assert len(ground) == 30
        assert ground.stats()["capacity"] == ground.MIN_SIZE
        assert len(ground) == ground.MIN_SIZE
        # The newest arrays stay.
        _look_up(ground, snd, graph, 29)
        assert ground.builds == 30

    @pytest.mark.parametrize(
        "repeat", [pytest.param(k, marks=pytest.mark.slow) for k in range(1, 200)]
    )
    def test_counts_survive_threads_repeated(self, graph, snd, repeat):
        """The thread test again, 199 more times in one process (slow): a
        cache that outgrows its capacity fails it only in some
        interleavings."""
        self.test_counts_survive_threads(graph, snd)

    def test_counts_survive_threads(self, graph, snd):
        # Each thread reads its own keys twice in a row, so every build is
        # stored, then held or evicted: a lost update breaks either sum.
        ground = GroundCostCache(64)
        n_threads, per_thread = 8, 32  # users 8..39 join each thread's own

        def work(k: int) -> None:
            for i in range(per_thread):
                state = NetworkState.from_active_sets(40, positive=[k, 8 + i])
                for _ in range(2):
                    ground.edge_costs(snd.ground, graph, state, 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = ground.stats()
        assert stats["hits"] + stats["misses"] == 2 * n_threads * per_thread
        assert stats["misses"] == stats["evictions"] + stats["size"]
        assert stats["nbytes"] == sum(32 + v.nbytes for v in ground._entries.values())
        assert stats["size"] <= stats["capacity"]

    def test_long_stream_stays_bounded(self, graph, snd, rng):
        """Three hundred transitions streamed through the engine: the ground
        cache settles at MIN_SIZE arrays, a transition entry counts 72
        bytes whatever n is, and the hierarchy grows only by those 72
        bytes once the bounded caches are full."""
        from repro.snd import SNDEngine

        values = np.zeros(graph.num_nodes, dtype=np.int8)
        states = []
        for _ in range(301):
            values = values.copy()
            idx = rng.integers(0, graph.num_nodes, size=4)
            values[idx] = rng.integers(-1, 2, size=idx.size)
            states.append(NetworkState(values))
        manager = CacheManager(row_size=16, basis_size=16)
        n, m = graph.num_nodes, graph.num_edges
        # Every bounded cache at its largest: ground arrays, full dense
        # rows (or sparse ones, 12 bytes a node), and tree bases of at
        # most 2n + banks arcs; keys are 32-byte digests.
        banks = len(snd.banks.clusters) * snd.banks.n_banks
        bound = (
            GroundCostCache.MIN_SIZE * (8 * m + 32)
            + 16 * (12 * n + 8 + 32)
            + 16 * (16 * (2 * n + banks) + 64)
        )
        with SNDEngine(snd, jobs=None, caches=manager) as engine:
            for update in engine.stream(states):
                if update.index < 20:
                    continue
                assert len(manager.ground) <= GroundCostCache.MIN_SIZE
                assert manager.ground.stats()["capacity"] == GroundCostCache.MIN_SIZE
                transitions = manager.transitions
                assert transitions.nbytes == 72 * len(transitions)
                assert manager.nbytes <= bound + 72 * len(transitions)
        assert manager.transitions.fresh >= 300 - 5  # a repeated state is rare
        assert manager.ground.builds <= 2 * 301


class TestRowStorage:
    """The row cache stores only full rows, and only while its record
    starts terms full; a held row answers a request at any radius."""

    @staticmethod
    def _request(cache, graph, family, radius=np.inf) -> np.ndarray:
        costs = np.ones(graph.num_edges)
        return cache.distance_rows(
            graph, [0, 1], costs, reverse=family % 2 == 1, cost_key=("fresh", family),
            radius=radius,
        )

    @staticmethod
    def _warm(cache: DijkstraRowCache) -> DijkstraRowCache:
        """Give *cache* a record that starts terms at a finite radius."""
        for _ in range(cache.RADIUS_WARMUP):
            cache.record_radius(2.0, 0.1)
        assert cache.start_radius() == 2.0
        return cache

    def test_bounded_rows_are_never_stored(self, graph):
        cache = DijkstraRowCache()
        for family in range(10):
            first = self._request(cache, graph, family, radius=2.0)
            again = self._request(cache, graph, family, radius=2.0)
            assert again.tobytes() == first.tobytes()
        stats = cache.stats()
        assert stats["misses"] == 40 and stats["hits"] == 0
        assert stats["size"] == stats["nbytes"] == stats["evictions"] == 0

    def test_warm_up_rows_go_when_the_record_starts_bounded(self, graph):
        """Rows held while the record warmed up are dropped when it first
        starts terms at a radius, and held again once it runs full."""
        cache = DijkstraRowCache()
        for family in range(3):
            self._request(cache, graph, family)
        assert len(cache) == 6 and cache.nbytes > 0
        for _ in range(cache.RADIUS_WARMUP - 1):
            cache.record_radius(2.0, 0.1)
        assert len(cache) == 6  # still warming up: full rows
        cache.record_radius(2.0, 0.1)
        assert cache.start_radius() == 2.0
        assert len(cache) == 0 and cache.nbytes == 0
        for _ in range(cache.RADIUS_WINDOW):
            cache.record_radius(2.0, 0.9)  # rows reach most of the graph
        assert cache.start_radius() == np.inf
        self._request(cache, graph, 0)
        assert len(cache) == 2

    def test_full_rows_of_a_bounded_record_are_not_stored(self, graph):
        cache = self._warm(DijkstraRowCache())
        for family in range(10):
            self._request(cache, graph, family)
        assert len(cache) == 0 and cache.misses == 20
        cache.clear()  # the record starts terms full again
        self._request(cache, graph, 0)
        assert len(cache) == 2

    def test_rows_read_back_hit_at_any_radius(self, graph):
        cache = DijkstraRowCache(maxsize=4)
        for family in range(3 * 64):
            first = self._request(cache, graph, family)
            again = self._request(cache, graph, family, radius=1.5)
            assert again.tobytes() == np.where(first <= 1.5, first, np.inf).tobytes()
        assert cache.hits == cache.misses == 2 * 3 * 64
        assert len(cache) == 4 and cache.evictions == 2 * 3 * 64 - 4

    def test_counts_survive_threads(self, graph):
        # Every searched row is stored, then held or evicted: a lost
        # update of any of those counters breaks the sum.
        cache = DijkstraRowCache(maxsize=16)
        n_threads, per_thread = 8, 60

        def work(first: int) -> None:
            for family in range(first, first + per_thread):
                self._request(cache, graph, family)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(k * per_thread,))
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["misses"] == 2 * n_threads * per_thread and stats["hits"] == 0
        assert stats["misses"] == stats["evictions"] + stats["size"]

    def test_fresh_cache_stores_every_full_row(self, graph):
        cache = DijkstraRowCache()
        for family in range(20):
            self._request(cache, graph, family)
        assert len(cache) == 40
        assert set(cache.stats()) >= {"settled", "terms", "mirrored"}
        assert not {"extensions", "skipped"} & set(cache.stats())
        row = next(iter(cache._entries.values()))
        assert not row.flags.writeable and row.shape == (graph.num_nodes,)
        # Pickling drops the entries and the record alike.
        warm = pickle.loads(pickle.dumps(self._warm(cache)))
        assert len(warm) == 0 and warm.start_radius() == np.inf


def _basis(k: int, size: int = 8) -> TransportBasis:
    return TransportBasis(
        rows=np.arange(size) + k, cols=np.arange(size) + 2 * k
    )


class TestBasisCache:
    def test_exact_channel(self):
        cache = BasisCache()
        cache.put_term((b"a", b"b", 1), _basis(0))
        hit = cache.get_warm((b"a", b"b", 1))
        assert hit is not None and hit.cells() == _basis(0).cells()
        assert cache.exact_hits == 1 and cache.hits == 1 and cache.misses == 0

    def test_reverse_channel_transposes(self):
        cache = BasisCache()
        cache.put_term((b"a", b"b", 1), _basis(3))
        hit = cache.get_warm((b"b", b"a", 1))
        assert hit is not None
        assert hit.cells() == _basis(3).transpose().cells()
        assert cache.reverse_hits == 1 and cache.exact_hits == 0

    def test_supplier_channel_most_recent(self):
        cache = BasisCache()
        cache.put_term((b"s", b"old", 1), _basis(1))
        cache.put_term((b"s", b"new", 1), _basis(2))
        # Different consumer, same supplier + opinion: most recent wins.
        hit = cache.get_warm((b"s", b"other", 1))
        assert hit is not None and hit.cells() == _basis(2).cells()
        assert cache.supplier_hits == 1
        # Opinion is part of the index key: no cross-opinion leakage.
        assert cache.get_warm((b"s", b"other", -1)) is None
        assert cache.misses == 1

    def test_one_hit_or_miss_per_lookup(self):
        cache = BasisCache()
        cache.put_term((b"a", b"b", 1), _basis(0))
        cache.get_warm((b"a", b"b", 1))   # exact
        cache.get_warm((b"b", b"a", 1))   # reverse
        cache.get_warm((b"a", b"x", 1))   # supplier
        cache.get_warm((b"z", b"x", 1))   # miss
        assert cache.hits == 3 and cache.misses == 1
        assert (
            cache.exact_hits + cache.reverse_hits + cache.supplier_hits
            == cache.hits
        )

    def test_stale_index_dropped_after_eviction(self):
        cache = BasisCache(maxsize=1)
        cache.put_term((b"a", b"b", 1), _basis(0))
        cache.put_term((b"c", b"d", 1), _basis(1))  # evicts (a, b, 1)
        assert cache.get_warm((b"a", b"x", 1)) is None  # stale index entry
        assert (b"a", 1) not in cache._index
        assert cache.get_warm((b"c", b"x", 1)) is not None

    def test_index_bounded_by_entries(self):
        """An LRU eviction drops the supplier index entry that pointed at
        the evicted basis, so suppliers that are never looked up again
        leave nothing behind."""
        cache = BasisCache(maxsize=2)
        for k in range(10):
            cache.put_term((b"s%d" % k, b"c", 1), _basis(k))
            assert len(cache._index) <= len(cache)
        assert set(cache._index) == {(b"s8", 1), (b"s9", 1)}

    def test_index_survives_eviction_of_an_older_entry(self):
        """Evicting a supplier's older term keeps the index entry of its
        newer, still cached term."""
        cache = BasisCache(maxsize=2)
        cache.put_term((b"s", b"old", 1), _basis(1))
        cache.put_term((b"s", b"new", 1), _basis(2))
        cache.put_term((b"t", b"c", 1), _basis(3))  # evicts (s, old, 1)
        hit = cache.get_warm((b"s", b"other", 1))
        assert hit is not None and hit.cells() == _basis(2).cells()
        assert cache.supplier_hits == 1

    def test_basis_evicted_by_its_own_put_is_not_indexed(self):
        """A basis bigger than the whole budget is evicted by the rebalance
        of its own put: no index entry may point at it afterwards."""
        big = _basis(0, size=64)
        manager = CacheManager(memory_budget=big.nbytes // 2)
        manager.bases.put_term((b"s", b"c", 1), big)
        assert len(manager.bases) == 0
        assert manager.bases.get_warm((b"s", b"x", 1)) is None
        assert (b"s", 1) not in manager.bases._index

    def test_value_nbytes_counts_basis_payload(self):
        basis = _basis(0, size=16)
        assert _value_nbytes(basis) == basis.nbytes == 2 * 16 * 8

    def test_nbytes_accounting(self):
        # Payload plus the key's two one-byte fingerprints.
        cache = BasisCache(maxsize=4)
        cache.put_term((b"a", b"b", 1), _basis(0, size=16))
        assert cache.nbytes == 2 * 16 * 8 + 2
        cache.put_term((b"a", b"b", 1), _basis(1, size=4))  # overwrite
        assert cache.nbytes == 2 * 4 * 8 + 2

    def test_memory_budget_includes_bases(self):
        """Satellite contract: basis payloads participate in the shared
        budget, and the biggest-cache-first rule evicts the heavy basis
        store before starving the tiny transition floats."""
        basis_bytes = _basis(0, size=64).nbytes
        manager = CacheManager(memory_budget=3 * basis_bytes)
        for k in range(8):
            manager.bases.put_term((b"s%d" % k, b"c", 1), _basis(k, size=64))
        assert manager.bases.stats()["evictions"] >= 5
        assert manager.nbytes <= 3 * basis_bytes
        # A budget eviction takes the basis's supplier index entry along.
        assert len(manager.bases._index) <= len(manager.bases)
        # Tiny transition entries survive while bases are evicted.
        state_b = NetworkState.from_active_sets(40, positive=[1])
        for k in range(6):
            manager.transitions.put(
                NetworkState.from_active_sets(40, positive=[k]), state_b, float(k)
            )
        for k in range(8, 12):
            manager.bases.put_term((b"s%d" % k, b"c", 1), _basis(k, size=64))
        assert manager.transitions.stats()["evictions"] == 0
        assert manager.bases.stats()["evictions"] >= 8

    def test_pickle_resets_entries_and_index(self):
        cache = BasisCache(maxsize=7)
        cache.put_term((b"a", b"b", 1), _basis(0))
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.maxsize == 7
        assert len(clone) == 0 and clone._index == {}
        assert clone.get_warm((b"a", b"b", 1)) is None
        clone.put_term((b"a", b"b", 1), _basis(1))
        assert clone.get_warm((b"a", b"x", 1)) is not None

    def test_clear_resets_index(self):
        cache = BasisCache()
        cache.put_term((b"a", b"b", 1), _basis(0))
        cache.clear()
        assert cache._index == {}
        assert cache.get_warm((b"a", b"x", 1)) is None
