"""Tests for batch SND evaluation: caches, series, windows, pairwise.

``SND.evaluate_series`` / ``SND.pairwise_matrix`` run a one-call engine
over the instance caches; tests that need a process pool or a
non-default cache hierarchy hold an engine of their own.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState, StateSeries
from repro.snd import (
    SND,
    CacheManager,
    DijkstraRowCache,
    GroundCostCache,
    SNDEngine,
    TransitionCache,
)
from repro.snd.scheduler import _chunk_ranges


def random_series(n: int, length: int, rng: np.random.Generator) -> StateSeries:
    """A synthetic series where each step flips a few random opinions."""
    values = np.zeros(n, dtype=np.int8)
    states = []
    for _ in range(length):
        values = values.copy()
        idx = rng.integers(0, n, size=max(2, n // 10))
        values[idx] = rng.integers(-1, 2, size=idx.size)
        states.append(NetworkState(values))
    return StateSeries(states)


def distinct_series(n: int, length: int) -> StateSeries:
    """A series of pairwise-distinct states (state t has users ``0..t``
    positive), for tests that count cache entries per transition."""
    states = []
    for t in range(length):
        values = np.zeros(n, dtype=np.int8)
        values[: t + 1] = 1
        states.append(NetworkState(values))
    return StateSeries(states)


#: The engine's two execution modes: serial in-process, and a process pool.
ENGINE_MODES = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


def sweep(snd, series, *, jobs=None, caches=None, **kwargs):
    """``evaluate_series`` through an engine of the given shape."""
    with SNDEngine(snd, jobs=jobs, caches=caches) as engine:
        return engine.evaluate_series(series, **kwargs)


def matrix_of(snd, states, *, jobs=None, caches=None):
    """``pairwise_matrix`` through an engine of the given shape."""
    with SNDEngine(snd, jobs=jobs, caches=caches) as engine:
        return engine.pairwise_matrix(states)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(40, 0.15, seed=7)


@pytest.fixture(scope="module")
def snd(graph):
    return SND(graph, n_clusters=3, seed=0)


class TestGroundCostCache:
    def test_hit_returns_same_array(self, graph, snd):
        cache = GroundCostCache()
        state = NetworkState.from_active_sets(40, positive=[0, 1], negative=[5])
        first = cache.edge_costs(snd.ground, graph, state, 1)
        second = cache.edge_costs(snd.ground, graph, state, 1)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_keyed_by_content_not_identity(self, graph, snd):
        cache = GroundCostCache()
        a = NetworkState.from_active_sets(40, positive=[3])
        b = NetworkState.from_active_sets(40, positive=[3])  # equal, distinct
        cache.edge_costs(snd.ground, graph, a, 1)
        cache.edge_costs(snd.ground, graph, b, 1)
        assert cache.hits == 1 and cache.misses == 1

    def test_opinion_part_of_key(self, graph, snd):
        cache = GroundCostCache()
        state = NetworkState.from_active_sets(40, positive=[0], negative=[1])
        cache.edge_costs(snd.ground, graph, state, 1)
        cache.edge_costs(snd.ground, graph, state, -1)
        assert cache.misses == 2

    def test_lru_bound(self, graph, snd):
        cache = GroundCostCache(maxsize=2)
        states = [NetworkState.from_active_sets(40, positive=[k]) for k in range(4)]
        for s in states:
            cache.edge_costs(snd.ground, graph, s, 1)
        assert len(cache) == 2
        # Oldest entries evicted: re-asking for state 0 is a miss again.
        cache.edge_costs(snd.ground, graph, states[0], 1)
        assert cache.misses == 5

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValidationError):
            GroundCostCache(maxsize=0)

    def test_pickle_drops_entries_and_lock(self, graph, snd):
        cache = GroundCostCache()
        cache.edge_costs(snd.ground, graph, NetworkState.neutral(40), 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0
        assert clone.maxsize == cache.maxsize
        # Clone must be fully usable (lock re-created).
        clone.edge_costs(snd.ground, graph, NetworkState.neutral(40), 1)


class TestTransitionCache:
    def test_get_put_roundtrip(self):
        cache = TransitionCache()
        a = NetworkState.from_active_sets(10, positive=[0])
        b = NetworkState.from_active_sets(10, positive=[1])
        assert cache.get(a, b) is None
        cache.put(a, b, 2.5)
        assert cache.get(a, b) == 2.5
        assert cache.fresh == 1 and cache.reused == 1

    def test_key_is_ordered(self):
        # Eq. 3 is symmetric, but summation order differs under a swap, so
        # the cache must not conflate (a, b) with (b, a).
        cache = TransitionCache()
        a = NetworkState.from_active_sets(10, positive=[0])
        b = NetworkState.from_active_sets(10, positive=[1])
        cache.put(a, b, 1.0)
        assert cache.get(b, a) is None

    def test_keyed_by_content(self):
        cache = TransitionCache()
        a1 = NetworkState.from_active_sets(10, positive=[0])
        a2 = NetworkState.from_active_sets(10, positive=[0])
        b = NetworkState.from_active_sets(10, positive=[1])
        cache.put(a1, b, 3.0)
        assert cache.get(a2, b) == 3.0

    def test_lru_bound(self):
        cache = TransitionCache(maxsize=2)
        states = [NetworkState.from_active_sets(10, positive=[k]) for k in range(4)]
        for k in range(3):
            cache.put(states[k], states[k + 1], float(k))
        assert len(cache) == 2
        assert cache.get(states[0], states[1]) is None  # evicted

    def test_pickle_drops_entries(self):
        cache = TransitionCache()
        a = NetworkState.from_active_sets(10, positive=[0])
        b = NetworkState.from_active_sets(10, positive=[1])
        cache.put(a, b, 1.0)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 0 and clone.maxsize == cache.maxsize


class TestDijkstraRowCache:
    def _rows_direct(self, graph, snd, state, sources, *, reverse=False):
        from repro.shortestpath.dijkstra import multi_source_distances

        costs = snd.ground.edge_costs(graph, state, 1)
        return multi_source_distances(graph, sources, weights=costs, reverse=reverse)

    def test_stitched_rows_identical(self, graph, snd):
        state = NetworkState.from_active_sets(40, positive=[1, 5, 9])
        costs = snd.ground.edge_costs(graph, state, 1)
        key = (GroundCostCache.fingerprint(state), 1)
        cache = DijkstraRowCache()
        # Prime two of four sources, then ask for all four: the stitched
        # matrix must equal one direct batched run bit-for-bit.
        cache.distance_rows(graph, [1, 9], costs, reverse=False, cost_key=key)
        stitched = cache.distance_rows(
            graph, [1, 5, 9, 12], costs, reverse=False, cost_key=key
        )
        direct = self._rows_direct(graph, snd, state, [1, 5, 9, 12])
        assert np.array_equal(stitched, direct)
        assert cache.hits == 2 and cache.misses == 4

    def test_reverse_part_of_key(self, graph, snd):
        state = NetworkState.from_active_sets(40, positive=[2])
        costs = snd.ground.edge_costs(graph, state, 1)
        key = (GroundCostCache.fingerprint(state), 1)
        cache = DijkstraRowCache()
        fwd = cache.distance_rows(graph, [2], costs, reverse=False, cost_key=key)
        rev = cache.distance_rows(graph, [2], costs, reverse=True, cost_key=key)
        assert cache.misses == 2  # no cross-direction hit
        direct_rev = self._rows_direct(graph, snd, state, [2], reverse=True)
        assert np.array_equal(rev, direct_rev)
        assert fwd.shape == rev.shape

    def test_eviction_pressure_preserves_values(self, graph, snd, rng):
        series = random_series(40, 6, rng)
        reference = SND(graph, n_clusters=3, seed=0).pairwise_matrix(list(series))
        pressured = matrix_of(
            SND(graph, n_clusters=3, seed=0),
            list(series),
            caches=CacheManager(rows=DijkstraRowCache(1)),
        )
        assert np.array_equal(reference, pressured)


class TestEvaluateSeries:
    @pytest.mark.parametrize("trial", [1, 2, 3])
    def test_cached_matches_naive_loop(self, graph, rng, trial):
        snd = SND(graph, n_clusters=3, seed=0)
        series = random_series(40, 8, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        batched = snd.evaluate_series(series)
        assert np.max(np.abs(batched - naive)) <= 1e-9
        assert snd.ground_cache.builds <= 2 * (len(series) - 1) + 2

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_parallel_matches_naive_loop(self, snd, rng, jobs):
        series = random_series(40, 8, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        batched = sweep(snd, series, jobs=jobs)
        assert np.max(np.abs(batched - naive)) <= 1e-9
        assert np.array_equal(snd.evaluate_series(series, jobs=jobs), batched)

    def test_distance_series_unchanged(self, snd, rng):
        series = random_series(40, 6, rng)
        expected = np.array([snd.distance(a, b) for a, b in series.transitions()])
        assert np.array_equal(snd.distance_series(series), expected)

    def test_single_state_series(self, snd):
        series = StateSeries([NetworkState.neutral(40)])
        assert snd.evaluate_series(series).size == 0

    def test_more_jobs_than_transitions(self, snd, rng):
        series = random_series(40, 3, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        batched = sweep(snd, series, jobs=4)
        assert np.max(np.abs(batched - naive)) <= 1e-9

    def test_unknown_executor_rejected(self, snd):
        # The engine has one parallel mode, a process pool; the executor
        # option is gone and fails loudly rather than being ignored.
        with pytest.raises(TypeError, match="executor"):
            SNDEngine(snd, jobs=2, executor="gpu")

    def test_instance_cache_shared_across_calls(self, graph, rng):
        snd = SND(graph, n_clusters=3, seed=0)
        series = random_series(40, 5, rng)
        snd.evaluate_series(series)
        builds_first = snd.ground_cache.builds
        snd.evaluate_series(series)  # same states: everything cached
        assert snd.ground_cache.builds == builds_first

    def test_transitions_cache_skips_solved(self, graph, rng):
        snd = SND(graph, n_clusters=3, seed=0)
        series = random_series(40, 6, rng)
        cache = TransitionCache()
        first = sweep(snd, series, transitions=cache)
        solved = cache.fresh
        second = sweep(snd, series, transitions=cache)
        assert np.array_equal(first, second)
        assert cache.fresh == solved  # nothing re-solved


class TestSlidingWindow:
    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_windowed_identical_to_scratch(self, graph, rng, window):
        series = random_series(40, 7, rng)
        scratch = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        snd = SND(graph, n_clusters=3, seed=0)
        windowed = snd.evaluate_series(series, window=window)
        assert np.array_equal(scratch, windowed)

    def test_every_shift_matches_scratch_sweep(self, graph):
        series = distinct_series(40, 7)
        fresh = SND(graph, n_clusters=3, seed=0)
        snd = SND(graph, n_clusters=3, seed=0)
        window = 4
        for start in range(len(series) - window + 1):
            sub = series[start : start + window]
            windowed = snd.evaluate_series(sub, window=window)
            fresh.caches.clear()
            scratch = fresh.evaluate_series(sub)
            assert np.array_equal(windowed, scratch), f"shift {start} diverged"

    def test_one_fresh_transition_per_shift(self, graph):
        series = distinct_series(40, 8)
        snd = SND(graph, n_clusters=3, seed=0)
        window = 4
        cache = snd.transition_cache
        for start in range(len(series) - window + 1):
            before = cache.fresh
            snd.evaluate_series(series[start : start + window], window=window)
            fresh = cache.fresh - before
            expected = window - 1 if start == 0 else 1
            assert fresh == expected, f"shift {start}: {fresh} fresh != {expected}"

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_windowed_parallel_identical(self, graph, jobs):
        series = distinct_series(40, 6)
        scratch = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        snd = SND(graph, n_clusters=3, seed=0)
        windowed = sweep(snd, series, window=4, jobs=jobs)
        assert np.array_equal(scratch, windowed)
        assert snd.transition_cache.fresh == len(series) - 1

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_parallel_shifts_resolve_one_fresh(self, graph, jobs):
        series = distinct_series(40, 7)
        snd = SND(graph, n_clusters=3, seed=0)
        window = 5
        cache = snd.transition_cache
        reference = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        with SNDEngine(snd, jobs=jobs) as engine:
            for start in range(len(series) - window + 1):
                before = cache.fresh
                vals = engine.evaluate_series(
                    series[start : start + window], transitions=cache
                )
                assert np.array_equal(vals, reference[start : start + window - 1])
                expected = window - 1 if start == 0 else 1
                assert cache.fresh - before == expected

    def test_ground_cache_eviction_pressure(self, graph):
        # A one-entry ground-cost cache forces constant rebuilds; values
        # and the one-fresh-per-shift contract must survive.
        series = distinct_series(40, 6)
        scratch = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        caches = CacheManager(ground_size=1)
        windowed = sweep(
            SND(graph, n_clusters=3, seed=0), series, window=3, caches=caches
        )
        assert np.array_equal(scratch, windowed)
        assert caches.transitions.fresh == len(series) - 1

    def test_window_larger_than_series(self, graph, rng):
        series = random_series(40, 5, rng)
        scratch = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        snd = SND(graph, n_clusters=3, seed=0)
        assert np.array_equal(scratch, snd.evaluate_series(series, window=99))

    def test_window_must_span_a_transition(self, snd, rng):
        series = random_series(40, 4, rng)
        with pytest.raises(ValidationError):
            snd.evaluate_series(series, window=1)

    def test_instance_transition_cache_reused_across_calls(self, graph):
        series = distinct_series(40, 8)
        snd = SND(graph, n_clusters=3, seed=0)
        snd.evaluate_series(series[:6], window=3)
        solved = snd.transition_cache.fresh
        assert solved == 5
        # The stream advances by two states: exactly two new transitions.
        snd.evaluate_series(series[2:], window=3)
        assert snd.transition_cache.fresh == solved + 2

    @pytest.mark.slow
    @pytest.mark.parametrize("window", [2, 3, 4, 6, 9])
    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_full_window_matrix(self, graph, rng, window, jobs):
        """Every window size x engine mode: identical to scratch under cache
        pressure, one fresh transition per shift."""
        series = random_series(40, 9, rng)
        scratch = SND(graph, n_clusters=3, seed=0).evaluate_series(series)
        windowed = sweep(
            SND(graph, n_clusters=3, seed=0),
            series,
            window=window,
            jobs=jobs,
            caches=CacheManager(ground_size=2),
        )
        assert np.array_equal(scratch, windowed)


class TestPairwiseMatrix:
    def test_symmetric_zero_diagonal(self, snd, rng):
        series = random_series(40, 6, rng)
        matrix = snd.pairwise_matrix(series)
        assert matrix.shape == (6, 6)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_matches_per_pair_distance(self, snd, rng):
        states = list(random_series(40, 5, rng))
        matrix = snd.pairwise_matrix(states)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert matrix[i, j] == pytest.approx(
                    snd.distance(states[i], states[j]), abs=1e-9
                )

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_parallel_matches_serial(self, snd, rng, jobs):
        series = random_series(40, 5, rng)
        serial = snd.pairwise_matrix(series)
        assert np.array_equal(matrix_of(snd, series, jobs=jobs), serial)
        assert np.array_equal(snd.pairwise_matrix(series, jobs=jobs), serial)

    def test_build_count_linear_in_states(self, graph, rng):
        snd = SND(graph, n_clusters=3, seed=0)
        states = list(random_series(40, 6, rng))
        snd.pairwise_matrix(states)
        assert snd.ground_cache.builds <= 2 * len(states)

    def test_large_matrix_leaves_instance_ground_cache_unchanged(self, graph):
        # More states than the instance cache holds: the call builds each
        # state's arrays once in a right-sized cache of its own and does
        # not grow the instance cache to 2·N.
        snd = SND(graph, n_clusters=3, seed=0)
        n = snd.ground_cache.maxsize // 2 + 1
        states = [NetworkState.from_active_sets(40, positive=[k]) for k in range(n)]
        maxsize = snd.ground_cache.maxsize
        matrix = snd.pairwise_matrix(states)
        assert matrix.shape == (n, n)
        assert snd.ground_cache.maxsize == maxsize
        assert snd.ground_cache.builds == 0

    def test_empty_input(self, snd):
        out = snd.pairwise_matrix([])
        assert out.shape == (0, 0) and out.dtype == np.float64

    def test_single_state(self, snd):
        one = snd.pairwise_matrix([NetworkState.neutral(40)])
        assert one.shape == (1, 1) and one[0, 0] == 0.0

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_degenerate_sizes_with_jobs(self, snd, jobs):
        # 0/1-state inputs return before any pool is created, jobs or not.
        assert matrix_of(snd, [], jobs=jobs).shape == (0, 0)
        one = matrix_of(snd, [NetworkState.neutral(40)], jobs=jobs)
        assert one.shape == (1, 1) and one[0, 0] == 0.0

    def test_two_states_single_pair(self, snd, rng):
        states = list(random_series(40, 2, rng))
        serial = snd.pairwise_matrix(states)
        parallel = matrix_of(snd, states, jobs=4)
        assert np.array_equal(serial, parallel)


class TestRegistryBatchPath:
    def test_snd_series_routed_through_batch(self, graph, rng):
        from repro.distances import DistanceContext, default_registry

        series = random_series(40, 5, rng)
        registry = default_registry()
        context = DistanceContext(graph=graph)
        context.ensure_snd(n_clusters=3, seed=0)
        serial = registry.series("snd", series, context)
        naive = np.array(
            [context.snd.distance(a, b) for a, b in series.transitions()]
        )
        assert np.max(np.abs(serial - naive)) <= 1e-9
        # The batched path runs a serial engine over the SND instance cache.
        assert context.snd.ground_cache.builds > 0

    def test_generic_pairwise_fallback(self, graph, rng):
        from repro.distances import DistanceContext, default_registry
        from repro.distances.vector import hamming_distance

        series = random_series(40, 4, rng)
        registry = default_registry()
        context = DistanceContext(graph=graph)
        matrix = registry.pairwise("hamming", series, context)
        states = list(series)
        for i in range(len(states)):
            for j in range(len(states)):
                assert matrix[i, j] == hamming_distance(states[i], states[j])

    def test_unknown_measure_rejected(self, graph, rng):
        from repro.distances import DistanceContext, default_registry

        series = random_series(40, 3, rng)
        with pytest.raises(ValidationError):
            default_registry().pairwise("nope", series, DistanceContext(graph=graph))


class TestStateDistanceMatrix:
    def test_batched_object_used(self, snd, rng):
        from repro.analysis.metric_space import state_distance_matrix

        states = list(random_series(40, 4, rng))
        via_helper = state_distance_matrix(states, snd)
        direct = snd.pairwise_matrix(states)
        assert np.array_equal(via_helper, direct)

    def test_callable_fallback(self):
        from repro.analysis.metric_space import state_distance_matrix

        items = [0.0, 1.0, 3.0]
        matrix = state_distance_matrix(items, lambda a, b: abs(a - b))
        assert np.array_equal(
            matrix, np.abs(np.subtract.outer(items, items))
        )


class TestChunking:
    def test_ranges_cover_exactly(self):
        for n_items in (1, 5, 17):
            for n_chunks in (1, 2, 4, 30):
                ranges = _chunk_ranges(n_items, n_chunks)
                flat = [t for a, b in ranges for t in range(a, b)]
                assert flat == list(range(n_items))
                assert len(ranges) <= max(1, min(n_chunks, n_items))

    def test_zero_items(self):
        assert _chunk_ranges(0, 4) == []
        assert _chunk_ranges(-3, 4) == []

    def test_more_chunks_than_items(self):
        ranges = _chunk_ranges(3, 100)
        assert ranges == [(0, 1), (1, 2), (2, 3)]
        assert all(b > a for a, b in ranges)  # never an empty range

    def test_degenerate_chunk_counts(self):
        assert _chunk_ranges(5, 0) == [(0, 5)]
        assert _chunk_ranges(5, -2) == [(0, 5)]
