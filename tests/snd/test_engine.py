"""Tests for the persistent engine, the incremental corpus, and streaming."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState, StateSeries
from repro.snd import SND, Corpus, SNDEngine, TransitionCache
from repro.snd.cache import CacheManager, GroundCostCache
from repro.snd.engine import resolve_jobs


def random_series(n: int, length: int, rng: np.random.Generator) -> StateSeries:
    values = np.zeros(n, dtype=np.int8)
    states = []
    for _ in range(length):
        values = values.copy()
        idx = rng.integers(0, n, size=max(2, n // 10))
        values[idx] = rng.integers(-1, 2, size=idx.size)
        states.append(NetworkState(values))
    return StateSeries(states)


def distinct_states(n: int, count: int) -> list[NetworkState]:
    """Pairwise-distinct states (state t has users ``0..t`` positive) so
    transition-cache counters count pairs, not content duplicates."""
    states = []
    for t in range(count):
        values = np.zeros(n, dtype=np.int8)
        values[: t + 1] = 1
        states.append(NetworkState(values))
    return states


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(40, 0.15, seed=7)


@pytest.fixture(scope="module")
def snd(graph):
    return SND(graph, n_clusters=3, seed=0)


def fresh_snd(graph):
    return SND(graph, n_clusters=3, seed=0)


def _worker_cache_probe() -> tuple[int, int | None, int, int]:
    """``(pid, memory_budget, nbytes, evictions)`` of a pool worker's
    caches; sleeps briefly so concurrent probes spread over every worker."""
    import os
    import time

    from repro.snd.engine import _ENGINE_WORKER

    time.sleep(0.2)
    caches = _ENGINE_WORKER["caches"]
    evictions = sum(cache.evictions for cache in caches._members())
    return os.getpid(), caches.memory_budget, caches.nbytes, evictions


#: The engine's two execution modes: serial in-process, and a process pool.
ENGINE_MODES = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


class TestResolveJobs:
    def test_serial_spellings(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_auto_bounded(self, monkeypatch):
        import repro.snd.scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod.os, "cpu_count", lambda: 1)
        assert resolve_jobs("auto") == 1  # never a pool on 1 CPU
        monkeypatch.setattr(scheduler_mod.os, "cpu_count", lambda: 16)
        assert resolve_jobs("auto") == 4

    @pytest.mark.parametrize("bad", [0, -2, -1000])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValidationError, match=str(bad)):
            resolve_jobs(bad)

    @pytest.mark.parametrize("bad", ["fast", "", "2", 2.5, True, [1]])
    def test_non_integer_rejected(self, bad):
        # Each rejection names the offending value in the message.
        with pytest.raises(ValidationError, match="got"):
            resolve_jobs(bad)


class TestEngineSeries:
    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_matches_naive_loop(self, graph, snd, rng, jobs):
        series = random_series(40, 7, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        with SNDEngine(fresh_snd(graph), jobs=jobs) as engine:
            assert np.array_equal(engine.evaluate_series(series), naive)

    def test_serial_engine(self, graph, snd, rng):
        series = random_series(40, 6, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            assert np.array_equal(engine.evaluate_series(series), naive)
            assert engine.pool_starts == 0  # serial runs in-process, no pool

    def test_pool_persists_across_calls(self, graph, rng):
        series = random_series(40, 6, rng)
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            first = engine.evaluate_series(series)
            second = engine.evaluate_series(series)
            third = engine.pairwise_matrix(list(series)[:4])
            assert engine.pool_starts == 1  # one launch serves every call
            assert np.array_equal(first, second)
            assert third.shape == (4, 4)

    def test_pool_restarts_when_outgrown(self, graph, rng):
        small = random_series(40, 4, rng)
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            engine.evaluate_series(small)
            starts = engine.pool_starts
            capacity = engine.stats()["capacity"]
            big = random_series(40, capacity + 5, rng)
            reference = fresh_snd(graph).evaluate_series(big)
            assert np.array_equal(engine.evaluate_series(big), reference)
            assert engine.pool_starts == starts + 1

    def test_window_and_transitions(self, graph, rng):
        series = random_series(40, 7, rng)
        scratch = fresh_snd(graph).evaluate_series(series)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            windowed = engine.evaluate_series(series, window=3)
            assert np.array_equal(scratch, windowed)
            assert engine.caches.transitions.fresh == len(series) - 1
            # Re-sweep answers everything from the engine's hierarchy.
            again = engine.evaluate_series(
                series, transitions=engine.caches.transitions
            )
            assert np.array_equal(scratch, again)
            assert engine.caches.transitions.fresh == len(series) - 1

    def test_engine_shares_snd_cache_hierarchy(self, graph, rng):
        snd = fresh_snd(graph)
        series = random_series(40, 5, rng)
        with SNDEngine(snd, jobs=None) as engine:
            assert engine.caches is snd.caches
            engine.evaluate_series(series)
            assert snd.ground_cache.builds > 0

    def test_closed_engine_rejects_pool_use(self, graph, rng):
        engine = SNDEngine(fresh_snd(graph), jobs=2)
        series = random_series(40, 5, rng)
        engine.evaluate_series(series)
        engine.close()
        with pytest.raises(ValidationError):
            engine.evaluate_series(series)

    def test_stats_surface(self, graph, rng):
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            engine.evaluate_series(random_series(40, 5, rng))
            stats = engine.stats()
            assert stats["jobs"] == 2 and "executor" not in stats
            assert stats["pool_starts"] == 1 and stats["pool_alive"]
            assert "ground" in stats["caches"]

    def test_workers_keep_the_memory_budget(self, graph, rng):
        """Every pool worker caps its own cache hierarchy at the engine's
        memory budget, and the sweep's caching pressed against it."""
        budget = 1000
        caches = CacheManager(memory_budget=budget)
        with SNDEngine(fresh_snd(graph), jobs=2, caches=caches) as engine:
            engine.evaluate_series(random_series(40, 6, rng))
            probes = [engine._pool.submit(_worker_cache_probe) for _ in range(6)]
            results = [f.result(timeout=60) for f in probes]
        reports = {pid: rest for pid, *rest in results}
        assert len(reports) == 2
        for worker_budget, nbytes, _ in reports.values():
            assert worker_budget == budget
            assert nbytes <= budget
        assert sum(evictions for *_, evictions in reports.values()) > 0

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_rows_count_certified_terms(self, graph, rng, jobs):
        """``caches.rows.terms`` counts every term that moves mass, in this
        process or in a pool worker, so settled nodes per term read off
        ``stats()``."""
        series = random_series(40, 5, rng)
        snd = fresh_snd(graph)
        want = sum(
            stats.rounds > 0
            for a, b in zip(series, series[1:])
            for stats in snd.evaluate(a, b).stats
        )
        with SNDEngine(fresh_snd(graph), jobs=jobs) as engine:
            engine.evaluate_series(series)
            rows = engine.stats()["caches"]["rows"]
        assert want > 0 and rows["terms"] == want
        assert rows["settled"] > 0

    def test_bad_executor_rejected(self, graph):
        # The process pool is the one parallel mode; the executor option
        # is gone and fails loudly rather than being ignored.
        with pytest.raises(TypeError, match="executor"):
            SNDEngine(fresh_snd(graph), executor="gpu")


class TestEnginePairwise:
    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_matches_batch_wrapper(self, graph, snd, rng, jobs):
        states = list(random_series(40, 5, rng))
        reference = snd.pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=jobs) as engine:
            assert np.array_equal(engine.pairwise_matrix(states), reference)

    def test_transitions_skip_solved_pairs(self, graph):
        states = distinct_states(40, 5)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            cache = TransitionCache()
            first = engine.pairwise_matrix(states, transitions=cache)
            assert cache.fresh == 10  # 5*4/2 pairs
            second = engine.pairwise_matrix(states, transitions=cache)
            assert cache.fresh == 10  # nothing re-solved
            assert np.array_equal(first, second)

    def test_trivial_sizes(self, graph):
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            assert engine.pairwise_matrix([]).shape == (0, 0)
            one = engine.pairwise_matrix([NetworkState.neutral(40)])
            assert one.shape == (1, 1) and one[0, 0] == 0.0

    def test_ground_reservation_ends_with_the_call(self, graph):
        """A matrix holds ground arrays for its own states only while it
        runs: a long stream afterwards sizes the cache by its own hits."""
        rng = np.random.default_rng(3)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            engine.pairwise_matrix(random_series(40, 3, rng))
            for _update in engine.stream(random_series(40, 200, rng)):
                pass
            ground = engine.caches.ground.stats()
        assert ground["capacity"] == GroundCostCache.MIN_SIZE
        assert ground["size"] <= GroundCostCache.MIN_SIZE


class TestCorpusIncremental:
    """The acceptance contract: ``Corpus.extend`` is bit-identical to a
    from-scratch matrix while solving only the new transitions."""

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_extend_bit_identical_and_minimal(self, graph, jobs, k):
        states = distinct_states(40, 6 + k)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=jobs) as engine:
            corpus = Corpus(engine, states[:6])
            before = engine.caches.transitions.fresh
            extended = corpus.extend(states[6:])
            solved = engine.caches.transitions.fresh - before
            assert solved == k * 6 + k * (k - 1) // 2  # only the new pairs
            assert np.array_equal(extended, scratch)  # bit-identical

    @pytest.mark.parametrize("k", [1, 3])
    def test_extend_under_cache_pressure(self, graph, k):
        # A one-entry ground cache forces constant rebuilds; the matrix
        # and the solved-pair counter must both survive.
        states = distinct_states(40, 5 + k)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        snd = fresh_snd(graph)
        caches = CacheManager(ground=GroundCostCache(maxsize=1))
        with SNDEngine(snd, jobs=None, caches=caches) as engine:
            corpus = Corpus(engine, states[:5])
            before = engine.caches.transitions.fresh
            extended = corpus.extend(states[5:])
            assert engine.caches.transitions.fresh - before == k * 5 + k * (k - 1) // 2
            assert np.array_equal(extended, scratch)

    def test_extend_grows_undersized_transition_cache(self, graph):
        # With a cache smaller than the pair count, LRU eviction during
        # seeding used to chase the probe order and re-solve every old
        # pair; extend() must grow the cache to fit all pairs first.
        states = distinct_states(40, 8)
        caches = CacheManager(transition_size=2)
        with SNDEngine(fresh_snd(graph), jobs=None, caches=caches) as engine:
            corpus = Corpus(engine, states[:6])
            before = engine.caches.transitions.fresh
            corpus.extend(states[6:])
            assert engine.caches.transitions.fresh - before == 2 * 6 + 1
            assert engine.caches.transitions.maxsize >= 8 * 7 // 2

    def test_repeated_appends(self, graph):
        states = distinct_states(40, 7)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states[:4])
            for state in states[4:]:
                n_before = len(corpus)
                before = engine.caches.transitions.fresh
                corpus.append(state)
                assert engine.caches.transitions.fresh - before == n_before
            assert np.array_equal(corpus.matrix, scratch)

    def test_empty_extend_is_noop(self, graph):
        states = distinct_states(40, 3)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states)
            before = engine.caches.transitions.fresh
            matrix = corpus.extend([])
            assert engine.caches.transitions.fresh == before
            assert matrix.shape == (3, 3)

    def test_rejects_bare_snd(self, graph):
        # A corpus wrapping its own engine would start a pool and a
        # shared-memory block that nobody closes.
        with pytest.raises(ValidationError, match="SNDEngine"):
            Corpus(fresh_snd(graph), distinct_states(40, 3))

    def test_query_nearest(self, graph):
        states = distinct_states(40, 5)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states)
            hits = corpus.query(states[2], k=2)
            assert hits[0] == (2, 0.0)  # itself, at distance zero
            assert len(hits) == 2
            with pytest.raises(ValidationError):
                corpus.query(states[0], k=0)

    def test_query_empty_corpus(self, graph):
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            with pytest.raises(ValidationError):
                Corpus(engine).query(NetworkState.neutral(40))

    def test_save_load_roundtrip(self, graph):
        from repro.store import ExperimentStore

        states = distinct_states(40, 4)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states)
            with ExperimentStore(":memory:") as store:
                store.save_graph("g", graph)
                corpus.save(store, "g", "c")
                loaded = Corpus.load(store, engine, "g", "c")
            assert np.array_equal(loaded.matrix, corpus.matrix)
            assert all(a == b for a, b in zip(loaded.states, corpus.states))
            # Extension of the rehydrated corpus stays minimal: the stored
            # matrix reseeds the transition cache.
            fresh_engine_cache = engine.caches.transitions.fresh
            loaded.extend(distinct_states(40, 5)[4:])
            assert engine.caches.transitions.fresh - fresh_engine_cache == 4

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_extend_matrix_property(self, graph, rng, jobs, k):
        """Randomised extension property across engine modes and pressure."""
        series = random_series(40, 6 + k, rng)
        states = list(series)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        caches = CacheManager(ground=GroundCostCache(maxsize=2))
        with SNDEngine(fresh_snd(graph), jobs=jobs, caches=caches) as engine:
            corpus = Corpus(engine, states[:6])
            extended = corpus.extend(states[6:])
            assert np.array_equal(extended, scratch)


class TestStreaming:
    def test_stream_distances_match_series(self, graph, rng):
        series = random_series(40, 7, rng)
        reference = fresh_snd(graph).evaluate_series(series)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            updates = list(engine.stream(series, window=4))
        distances = [u.distance for u in updates if u.distance is not None]
        assert np.array_equal(np.array(distances), reference)
        # T state updates plus one final flush.
        assert len(updates) == len(series) + 1

    def test_stream_reuses_transition_cache(self, graph):
        states = distinct_states(40, 6)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            list(engine.stream(states))
            assert engine.caches.transitions.fresh == 5
            list(engine.stream(states))  # replay: all from cache
            assert engine.caches.transitions.fresh == 5

    def test_stream_window_bounds_recent_series(self, graph, rng):
        series = random_series(40, 8, rng)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            updates = list(engine.stream(series, window=3))
        for update in updates:
            assert update.window_distances.size <= 2  # window-1 distances

    def test_scores_lag_one_state(self, graph, rng):
        series = random_series(40, 6, rng)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            updates = list(engine.stream(series))
        # First two states carry no score; state t >= 2 scores t-2.
        assert updates[0].scored is None and updates[1].scored is None
        for t in range(2, len(series)):
            assert updates[t].scored is not None
            assert updates[t].scored.index == t - 2
        assert updates[-1].scored is not None  # the flush update

    def test_stream_scores_equal_offline_detector(self, graph, rng):
        from repro.analysis.anomaly import (
            StreamingAnomalyDetector,
            anomaly_scores,
            normalize_distance_series,
        )

        series = random_series(40, 8, rng)
        reference = fresh_snd(graph).evaluate_series(series)
        counts = series.activation_counts()
        offline = anomaly_scores(
            normalize_distance_series(reference, counts, scale=False)
        )
        detector = StreamingAnomalyDetector(threshold=0.5, scale=False)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            list(engine.stream(series, detector=detector))
        assert np.allclose(detector.scores(), offline, atol=1e-12)

    def test_empty_and_single_state_streams(self, graph):
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            assert list(engine.stream([])) == []
            only = list(engine.stream([NetworkState.neutral(40)]))
            assert len(only) == 1
            assert only[0].distance is None and only[0].scored is None

    def test_bad_window_rejected(self, graph):
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            with pytest.raises(ValidationError):
                list(engine.stream([NetworkState.neutral(40)], window=1))


class TestMetricSpaceConsumers:
    def test_state_distance_matrix_accepts_corpus(self, graph):
        from repro.analysis.metric_space import state_distance_matrix

        states = distinct_states(40, 4)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states)
            solved = engine.caches.transitions.fresh
            matrix = state_distance_matrix(states, corpus)
            assert engine.caches.transitions.fresh == solved  # no recompute
            assert np.array_equal(matrix, corpus.matrix)

    def test_state_distance_matrix_accepts_engine(self, graph, snd, rng):
        from repro.analysis.metric_space import state_distance_matrix

        states = list(random_series(40, 4, rng))
        reference = snd.pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            assert np.array_equal(state_distance_matrix(states, engine), reference)

    def test_corpus_with_other_items_falls_back_to_engine(self, graph):
        from repro.analysis.metric_space import state_distance_matrix

        states = distinct_states(40, 5)
        reference = fresh_snd(graph).pairwise_matrix(states[1:])
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            corpus = Corpus(engine, states[:3])
            matrix = state_distance_matrix(states[1:], corpus)
            assert np.array_equal(matrix, reference)


class TestCloseIdempotent:
    """close() must be safe to call twice, after __del__, and at exit."""

    def test_double_close(self, graph):
        engine = SNDEngine(fresh_snd(graph), jobs=None)
        engine.close()
        engine.close()  # must not raise

    def test_context_exit_after_explicit_close(self, graph):
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            engine.close()
        # __exit__ ran close() again — reaching here without raising is the test

    def test_del_after_close(self, graph):
        engine = SNDEngine(fresh_snd(graph), jobs=None)
        engine.close()
        engine.__del__()  # must not raise

    def test_double_close_with_live_pool_releases_shm(self, graph, rng):
        series = random_series(40, 4, rng)
        engine = SNDEngine(fresh_snd(graph), jobs=2)
        engine.evaluate_series(series)  # force pool + shm creation
        shm = engine._shm
        engine.close()
        assert engine._shm is None and engine._pool is None
        if shm is not None:
            # The segment is actually gone: re-attaching must fail.
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=shm.name)
        engine.close()
        engine.__del__()

    def test_del_on_partially_constructed_engine(self, graph):
        # __del__ after a failed __init__ sees missing attributes.
        engine = SNDEngine.__new__(SNDEngine)
        engine.__del__()  # must not raise

    def test_closed_engine_still_rejects_pool_use(self, graph, rng):
        series = random_series(40, 4, rng)
        engine = SNDEngine(fresh_snd(graph), jobs=2)
        engine.close()
        engine.close()
        with pytest.raises(ValidationError):
            engine._ensure_process_pool(list(series))


class TestConcurrentEngine:
    """Hammer one engine from many threads with overlapping pairs."""

    def test_threads_bit_identical_and_coalesced(self, graph):
        import threading

        states = distinct_states(40, 8)
        all_pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        serial_snd = fresh_snd(graph)
        expected = {
            (i, j): serial_snd.distance(states[i], states[j]) for i, j in all_pairs
        }
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            sched = engine.scheduler
            transitions = engine.caches.transitions
            # 6 threads, each sweeping an overlapping slice of the pairs
            # (every pair is requested by at least two threads).
            slices = [all_pairs[k::3] + all_pairs[(k + 1) % 3 :: 3] for k in range(6)]
            results: dict[int, list[float]] = {}
            errors: list[BaseException] = []

            def client(idx: int) -> None:
                try:
                    results[idx] = sched.evaluate(
                        states, slices[idx], transitions=transitions
                    )
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            for idx, pairs in enumerate(slices):
                assert results[idx] == [expected[p] for p in pairs], idx
            # Duplicates across threads were answered by cache/coalescing:
            # each unique pair was solved exactly once.
            assert sched.solved == len(all_pairs)
            assert sched.requested == sum(len(s) for s in slices)
            assert (
                sched.cache_answered + sched.coalesced
                == sched.requested - sched.solved
            )

    def test_threads_through_public_entry_points(self, graph, rng):
        import threading

        series = StateSeries(distinct_states(40, 6))
        serial_snd = fresh_snd(graph)
        expected_series = np.array(
            [serial_snd.distance(a, b) for a, b in series.transitions()]
        )
        expected_matrix = serial_snd.pairwise_matrix(list(series))
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            out: dict[str, object] = {}
            errors: list[BaseException] = []

            def run(name, fn):
                try:
                    out[name] = fn()
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=run, args=(f"s{k}", lambda: engine.evaluate_series(series))
                )
                for k in range(3)
            ] + [
                threading.Thread(
                    target=run,
                    args=(f"m{k}", lambda: engine.pairwise_matrix(list(series))),
                )
                for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            for k in range(3):
                assert np.array_equal(out[f"s{k}"], expected_series)
            for k in range(2):
                assert np.array_equal(out[f"m{k}"], expected_matrix)


class TestWarmStartedEngine:
    """The basis-cache layer: one warm-start rule, counter-asserted
    temporal locality, warm-vs-cold bit-identity, and append-only slots."""

    def constant_adopter_series(self, n: int, length: int) -> StateSeries:
        """States with a *constant* number of +1 and -1 adopters: every
        reduced transportation instance is balanced with integer masses,
        so network-simplex arithmetic stays fully integral and warm solves
        are bitwise identical to cold ones. Most adopters persist across
        states (one per camp drifts), giving consecutive instances the
        overlapping node-label sets that basis remapping feeds on — the
        paper's stationary-background regime."""
        states = []
        for t in range(length):
            values = np.zeros(n, dtype=np.int8)
            values[[0, 3, (6 + t) % n]] = 1
            values[[20, (25 + t) % n]] = -1
            states.append(NetworkState(values))
        return StateSeries(states)

    def ns_snd(self, graph):
        return SND(graph, n_clusters=3, seed=0, solver="network-simplex")

    def test_activation_policy(self, graph):
        """The basis store is active if and only if ``use_basis_cache``,
        whatever the solver; only network-simplex solves read it."""
        for solver in ("auto", "network-simplex", "ssp", "lp"):
            snd = SND(graph, n_clusters=3, seed=0, solver=solver)
            on = SNDEngine(snd, jobs=None)
            assert on.basis_cache is on.caches.bases
            assert on.stats()["basis_cache_active"]
            off = SNDEngine(snd, jobs=None, use_basis_cache=False)
            assert off.basis_cache is None
            assert not off.stats()["basis_cache_active"]
        stats = on.stats()
        assert "network_simplex" in stats and "slot_writes" in stats

    @pytest.mark.parametrize("jobs", ENGINE_MODES)
    def test_cold_solver_engine_stays_cold(self, graph, rng, jobs):
        """A cold solver never reads or stores a basis: a serial and a
        process engine with basis caching on are bitwise the per-pair
        ``SND.distance`` loop, and the basis store stays empty."""
        ssp = SND(graph, n_clusters=3, seed=0, solver="ssp")
        series = random_series(40, 6, rng)
        naive = np.array([ssp.distance(a, b) for a, b in series.transitions()])
        engine_snd = SND(graph, n_clusters=3, seed=0, solver="ssp")
        with SNDEngine(engine_snd, jobs=jobs, use_basis_cache=True) as engine:
            assert np.array_equal(engine.evaluate_series(series), naive)
            assert len(engine.caches.bases) == 0

    def test_bad_use_basis_cache_rejected(self, graph):
        for bad in ("always", "auto"):
            with pytest.raises(ValidationError, match="use_basis_cache"):
                SNDEngine(fresh_snd(graph), use_basis_cache=bad)

    def test_window_shift_of_one_hits_warm_start(self, graph):
        """The headline locality counter-assert: after sweeping a window,
        sweeping the window shifted by one state answers all but one
        transition from the transition cache and solves the single new
        transition with *warm* network-simplex solves (supplier-channel
        basis hits), pivoting less than the cold sweep did per solve."""
        series = self.constant_adopter_series(40, 7)
        with SNDEngine(self.ns_snd(graph), jobs=None) as engine:
            engine.evaluate_series(series[:6], transitions=engine.caches.transitions)
            cold = engine.stats()["network_simplex"]
            assert cold["cold_solves"] > 0
            hits_before = engine.caches.bases.stats()["hits"]
            engine.evaluate_series(series[1:7], transitions=engine.caches.transitions)
            total = engine.stats()["network_simplex"]
            bases = engine.caches.bases.stats()
        warm = {key: total[key] - cold[key] for key in (
            "solves", "cold_solves", "warm_solves", "warm_pivots"
        )}
        # Exactly one new transition was solved; its reverse terms (3/4)
        # are always warmed by terms 1/2 of the same pair (reverse
        # channel), while the forward terms depend on label overlap with
        # the previous window step — common-mass cancellation keeps only
        # the *moving* adopters in a reduced instance, so forward overlap
        # is workload-dependent (the corpus/flare benchmarks exercise it).
        assert warm["solves"] == 4  # one transition, four terms
        assert warm["warm_solves"] >= 2
        assert warm["warm_solves"] >= warm["cold_solves"]
        assert bases["hits"] > hits_before
        assert bases["supplier_hits"] + bases["reverse_hits"] + bases["exact_hits"] > 0
        assert warm["warm_pivots"] / warm["warm_solves"] < max(
            cold["cold_pivots_per_solve"], 1.0
        )

    def rotating_adopter_series(self, n: int, length: int) -> StateSeries:
        """Adopter camps that rotate by 10 positions per state: consecutive
        states share only 2 of 12 adopters per camp, so common-mass
        cancellation leaves ~10x10 reduced instances, large enough that
        a warm basis saves pivots over a cold solve."""
        states = []
        for t in range(length):
            values = np.zeros(n, dtype=np.int8)
            values[(np.arange(12) + t * 10) % n] = 1
            values[(np.arange(12) + 20 + t * 10) % n] = -1
            states.append(NetworkState(values))
        return StateSeries(states)

    def test_auto_solver_warm_starts_without_opt_in(self, graph):
        """Satellite counter-assert: under plain ``solver="auto"`` (no
        opt-in anywhere) the engine's basis cache is active and the auto
        policy solves the reduced instances with the network simplex,
        whose reverse-channel hits warm-start the second
        direction of every pair — visible in the pivots-per-solve
        counters of ``engine.stats()``."""
        series = self.rotating_adopter_series(40, 4)
        auto = SND(graph, n_clusters=3, seed=0, solver="auto")
        with SNDEngine(auto, jobs=None) as engine:
            values_warm = engine.evaluate_series(
                series, transitions=engine.caches.transitions
            )
            metrics = engine.stats()["network_simplex"]
            bases = engine.caches.bases.stats()
        assert metrics["solves"] > 0  # auto reached the simplex tier at all
        assert metrics["warm_solves"] > 0
        assert bases["hits"] > 0
        assert metrics["warm_pivots_per_solve"] < max(
            metrics["cold_pivots_per_solve"], 1.0
        )
        # Routing must not move the values: an auto engine with the basis
        # store disabled (ssp/lp tiers, all exact) agrees on every
        # transition.
        with SNDEngine(
            SND(graph, n_clusters=3, seed=0, solver="auto"),
            jobs=None,
            use_basis_cache=False,
        ) as cold_engine:
            values_cold = cold_engine.evaluate_series(series)
        assert values_warm == pytest.approx(values_cold, rel=1e-9, abs=1e-9)

    def test_stream_keeps_index_bounded(self, graph):
        """Streaming far more states than ``basis_size`` leaves at most one
        supplier index entry per cached basis: an evicted basis takes its
        index entry with it."""
        caches = CacheManager(basis_size=4)
        series = self.rotating_adopter_series(40, 24)
        with SNDEngine(self.ns_snd(graph), jobs=None, caches=caches) as engine:
            updates = list(engine.stream(series))
            bases = engine.caches.bases
            assert len(updates) == 25  # one per state, plus the flush
            assert bases.stats()["evictions"] > 0 and bases.hits > 0
            assert len(bases._index) <= len(bases)

    def test_warm_bit_identical_to_cold(self, graph):
        """Fully integral series: the warm-started engine's distances are
        *bitwise* the cold engine's (not merely close)."""
        series = self.constant_adopter_series(40, 8)
        with SNDEngine(self.ns_snd(graph), jobs=None) as warm_engine, SNDEngine(
            self.ns_snd(graph), jobs=None, use_basis_cache=False
        ) as cold_engine:
            warm_vals = warm_engine.evaluate_series(series)
            cold_vals = cold_engine.evaluate_series(series)
            assert warm_engine.caches.bases.stats()["hits"] > 0
            assert cold_engine.caches.bases.stats()["hits"] == 0
        assert np.array_equal(warm_vals, cold_vals)

    def test_slot_writes_append_only(self, graph):
        """Satellite contract: corpus appends write only the *new* rows of
        the shared state matrix (previously ``N + k`` rewrites per
        extend)."""
        states = distinct_states(40, 5)
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            corpus = Corpus(engine, states)
            assert engine.slot_writes == 5
            assert engine.pool_starts == 1
            corpus.extend(distinct_states(40, 7)[5:])  # 2 genuinely new states
            assert engine.slot_writes == 7
            assert engine.pool_starts == 1
            # Re-evaluating resident states writes nothing further.
            engine.pairwise_matrix(states)
            assert engine.slot_writes == 7
            assert engine.stats()["slot_writes"] == 7

    def test_slot_overflow_resets_map_not_pool(self, graph):
        """When distinct states outgrow the matrix rows, only the slot map
        resets — the pool (and its warmed worker caches) survives."""
        with SNDEngine(fresh_snd(graph), jobs=2) as engine:
            engine._ensure_process_pool(distinct_states(40, 5))
            assert engine._capacity == 64 and len(engine._slots) == 5
            starts = engine.pool_starts
            # 62 fresh fingerprints: 5 + 62 > 64 forces the map reset.
            batch = []
            for t in range(62):
                values = np.zeros(40, dtype=np.int8)
                values[t % 40] = -1
                values[(t + 1) % 40] = -1 if t < 40 else 1
                batch.append(NetworkState(values))
            _, slot_of = engine._ensure_process_pool(batch)
            assert engine.pool_starts == starts  # no relaunch
            assert sorted(slot_of) == list(range(len(batch)))  # remapped from 0
            assert len(engine._slots) == len(batch)


class TestPoolRecovery:
    """A dead pool worker breaks the pool, not the engine: the engine
    starts a fresh pool and dispatches the batch again, once."""

    @pytest.fixture(scope="class")
    def graph60(self):
        return erdos_renyi_graph(60, 0.1, seed=4)

    @staticmethod
    def _engine(graph, jobs) -> SNDEngine:
        # "cluster" rows are full and cold solves are bitwise those of any
        # process, so pooled values equal serial ones exactly.
        snd = SND(
            graph, n_clusters=3, seed=0, solver="network-simplex",
            bank_metric="cluster",
        )
        return SNDEngine(snd, jobs=jobs, use_basis_cache=False)

    def test_worker_killed_between_calls(self, graph60):
        import os
        import signal
        import time

        first, second = (
            random_series(60, 5, np.random.default_rng(seed)) for seed in (1, 2)
        )
        with self._engine(graph60, None) as serial:
            want = serial.pairwise_matrix(second)
        with self._engine(graph60, 2) as engine:
            engine.pairwise_matrix(first)
            pool = engine._pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken  # the next dispatch meets a broken pool
            got = engine.pairwise_matrix(second)
            assert engine.pool_starts == 2
            assert engine.scheduler.solved == 20
        np.testing.assert_array_equal(got, want)

    def test_second_failure_reaches_every_waiter(self, graph60, monkeypatch):
        """A batch whose fresh pool breaks too raises the pool's error, to
        its caller and to a request coalesced onto it, and counts no
        solve."""
        import threading
        import time
        from concurrent.futures.process import BrokenProcessPool

        states = list(random_series(60, 4, np.random.default_rng(3)))
        engine = self._engine(graph60, 2)
        scheduler = engine.scheduler
        maps, waiter_errors = [], []

        def waiter_run():
            try:
                scheduler.evaluate(states, [(0, 1)])
            except BrokenProcessPool as exc:
                waiter_errors.append(exc)

        waiter = threading.Thread(target=waiter_run)

        class DeadPool:
            def map(self, fn, chunks):
                maps.append(len(chunks))
                if len(maps) == 1:  # hold the batch until a request joins it
                    waiter.start()
                    deadline = time.monotonic() + 30
                    while scheduler.coalesced < 1 and time.monotonic() < deadline:
                        time.sleep(0.005)
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(
            engine, "_ensure_process_pool",
            lambda batch: (DeadPool(), list(range(len(batch)))),
        )
        with engine, pytest.raises(BrokenProcessPool):
            engine.evaluate_series(states)
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert scheduler.coalesced == 1 and len(waiter_errors) == 1
        assert len(maps) == 2  # one fresh pool, then the error
        assert scheduler.solved == 0 and scheduler.pending == 0


class TestSolverCounts:
    """Each engine counts its own network-simplex solves and pivots,
    wherever its pairs ran: a pool chunk returns its counts with its
    values."""

    @pytest.fixture(scope="class")
    def graph60(self):
        return erdos_renyi_graph(60, 0.1, seed=4)

    def test_pool_counts_equal_serial(self, graph60):
        """A jobs=2 matrix counts the solves and pivots a serial one does.
        Under the "cluster" bank metric every term solves once on full
        rows, so the work does not depend on which process's row cache
        saw which terms first."""
        states = random_series(60, 5, np.random.default_rng(1))
        counts = {}
        for jobs in (2, None):
            snd = SND(
                graph60, n_clusters=3, seed=0, solver="network-simplex",
                bank_metric="cluster",
            )
            with SNDEngine(snd, jobs=jobs, use_basis_cache=False) as engine:
                engine.pairwise_matrix(states)
                counts[jobs] = engine.stats()["network_simplex"]
                assert engine.pool_starts == (jobs is not None)
        assert counts[2] == counts[None]
        assert counts[None]["solves"] == 40  # 10 pairs, four terms each

    def test_pool_cache_counters_reach_stats(self, graph60):
        """A jobs=2 matrix reports its workers' cache lookups: one ground
        lookup per term, as the serial engine counts, and the rows and
        bases the workers built. Gauges stay this process's own."""
        states = random_series(60, 5, np.random.default_rng(1))
        caches, own = {}, {}
        for jobs in (2, None):
            snd = SND(
                graph60, n_clusters=3, seed=0, solver="network-simplex",
                bank_metric="cluster",
            )
            with SNDEngine(snd, jobs=jobs) as engine:
                engine.pairwise_matrix(states)
                caches[jobs] = engine.stats()["caches"]
                own[jobs] = engine.caches.stats()
        pooled, serial = caches[2], caches[None]

        def lookups(stats):
            return stats["ground"]["hits"] + stats["ground"]["misses"]

        assert lookups(pooled) == lookups(serial) > 0
        assert pooled["rows"]["misses"] > 0
        assert pooled["bases"]["builds"] > 0
        for name in ("ground", "rows", "bases"):
            for key in ("size", "nbytes"):
                assert pooled[name][key] == 0  # the parent process held none
        assert pooled["ground"]["capacity"] == own[2]["ground"]["capacity"]

    @pytest.mark.parametrize(
        "use_basis_cache, expected",
        [
            (False, {"solves": 41, "cold_solves": 40, "warm_solves": 1,
                     "cold_pivots": 125, "warm_pivots": 0, "warm_arcs_used": 4}),
            (True, {"solves": 41, "cold_solves": 20, "warm_solves": 21,
                    "cold_pivots": 64, "warm_pivots": 3, "warm_arcs_used": 63}),
        ],
        ids=["cold", "warm"],
    )
    def test_serial_stream_counts_pinned(self, graph60, use_basis_cache, expected):
        """The counts of a serial stream, pinned: each term adds every
        round's solve, cold or warm, as one solve."""
        states = random_series(60, 12, np.random.default_rng(8))
        snd = SND(graph60, n_clusters=3, seed=0, solver="network-simplex")
        with SNDEngine(snd, jobs=None, use_basis_cache=use_basis_cache) as engine:
            for _update in engine.stream(states):
                pass
            counts = engine.stats()["network_simplex"]
        assert {key: counts[key] for key in expected} == expected

    def test_threads_lose_no_counts(self, graph60):
        """Eight threads solving distinct pairs on one engine, switching
        every microsecond: the engine counts what one thread counts."""
        import sys
        import threading

        states = list(random_series(60, 9, np.random.default_rng(4)))
        pairs = [(i, i + 1) for i in range(8)]

        def engine():
            snd = SND(
                graph60, n_clusters=3, seed=0, solver="network-simplex",
                bank_metric="cluster",
            )
            return SNDEngine(snd, jobs=None, use_basis_cache=False)

        with engine() as serial:
            for i, j in pairs:
                serial.distance(states[i], states[j])
            expected = serial.stats()["network_simplex"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with engine() as shared:
                threads = [
                    threading.Thread(target=shared.distance, args=(states[i], states[j]))
                    for i, j in pairs
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                counts = shared.stats()["network_simplex"]
        finally:
            sys.setswitchinterval(interval)
        assert expected["solves"] > 0
        assert counts == expected

    def test_engines_count_separately(self, graph60):
        """Solves of one engine never show in another's counts."""
        states = random_series(60, 3, np.random.default_rng(2))
        snd = SND(graph60, n_clusters=3, seed=0, solver="network-simplex")
        busy, idle = SNDEngine(snd, jobs=None), SNDEngine(snd, jobs=None)
        with busy, idle:
            busy.evaluate_series(states)
            assert busy.stats()["network_simplex"]["solves"] > 0
            assert idle.stats()["network_simplex"]["solves"] == 0
