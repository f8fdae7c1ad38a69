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
    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_matches_naive_loop(self, graph, snd, rng, executor):
        series = random_series(40, 7, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        with SNDEngine(fresh_snd(graph), jobs=2, executor=executor) as engine:
            assert np.array_equal(engine.evaluate_series(series), naive)

    def test_serial_engine(self, graph, snd, rng):
        series = random_series(40, 6, rng)
        naive = np.array([snd.distance(a, b) for a, b in series.transitions()])
        with SNDEngine(fresh_snd(graph), jobs=None) as engine:
            assert np.array_equal(engine.evaluate_series(series), naive)

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_pool_persists_across_calls(self, graph, rng, executor):
        series = random_series(40, 6, rng)
        with SNDEngine(fresh_snd(graph), jobs=2, executor=executor) as engine:
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
            assert stats["jobs"] == 2 and stats["executor"] == "process"
            assert stats["pool_starts"] == 1 and stats["pool_alive"]
            assert "ground" in stats["caches"]

    def test_bad_executor_rejected(self, graph):
        with pytest.raises(ValidationError):
            SNDEngine(fresh_snd(graph), executor="gpu")


class TestEnginePairwise:
    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_matches_batch_wrapper(self, graph, snd, rng, executor):
        states = list(random_series(40, 5, rng))
        reference = snd.pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=2, executor=executor) as engine:
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


class TestCorpusIncremental:
    """The acceptance contract: ``Corpus.extend`` is bit-identical to a
    from-scratch matrix while solving only the new transitions."""

    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_extend_bit_identical_and_minimal(self, graph, executor, k):
        states = distinct_states(40, 6 + k)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        with SNDEngine(fresh_snd(graph), jobs=2, executor=executor) as engine:
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

    def test_accepts_bare_snd(self, graph):
        corpus = Corpus(fresh_snd(graph), distinct_states(40, 3))
        assert isinstance(corpus.engine, SNDEngine)
        assert corpus.matrix.shape == (3, 3)
        corpus.engine.close()

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
    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_extend_matrix_property(self, graph, rng, executor, k):
        """Randomised extension property across executors and pressure."""
        series = random_series(40, 6 + k, rng)
        states = list(series)
        scratch = fresh_snd(graph).pairwise_matrix(states)
        caches = CacheManager(ground=GroundCostCache(maxsize=2))
        with SNDEngine(fresh_snd(graph), jobs=2, executor=executor, caches=caches) as engine:
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
    """The basis-cache layer: solver-gated activation, counter-asserted
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
        assert SNDEngine(self.ns_snd(graph), jobs=None)._basis_cache() is not None
        # solver="auto" is warm-capable by default: its basis-aware
        # selection routes cached-basis instances to the network simplex.
        auto = SND(graph, n_clusters=3, seed=0, solver="auto")
        assert SNDEngine(auto, jobs=None)._basis_cache() is not None
        # Pure ssp never consumes a basis, so the store stays off.
        assert SNDEngine(fresh_snd(graph), jobs=None)._basis_cache() is None
        hybrid = SND(graph, n_clusters=3, seed=0, solver="sinkhorn-hybrid")
        assert SNDEngine(hybrid, jobs=None)._basis_cache() is None  # auto: warm-exact only
        assert (
            SNDEngine(hybrid, jobs=None, use_basis_cache=True)._basis_cache()
            is not None
        )
        assert (
            SNDEngine(self.ns_snd(graph), jobs=None, use_basis_cache=False)
            ._basis_cache()
            is None
        )
        stats = SNDEngine(self.ns_snd(graph), jobs=None).stats()
        assert stats["basis_cache_active"]
        assert "network_simplex" in stats and "slot_writes" in stats

    def test_bad_use_basis_cache_rejected(self, graph):
        with pytest.raises(ValidationError, match="use_basis_cache"):
            SNDEngine(fresh_snd(graph), use_basis_cache="always")

    def test_window_shift_of_one_hits_warm_start(self, graph):
        """The headline locality counter-assert: after sweeping a window,
        sweeping the window shifted by one state answers all but one
        transition from the transition cache and solves the single new
        transition with *warm* network-simplex solves (supplier-channel
        basis hits), pivoting less than the cold sweep did per solve."""
        from repro.flow.network_simplex import SIMPLEX_METRICS

        series = self.constant_adopter_series(40, 7)
        with SNDEngine(self.ns_snd(graph), jobs=None) as engine:
            SIMPLEX_METRICS.reset()
            engine.evaluate_series(series[:6], transitions=engine.caches.transitions)
            cold = SIMPLEX_METRICS.snapshot()
            assert cold["cold_solves"] > 0
            hits_before = engine.caches.bases.stats()["hits"]
            SIMPLEX_METRICS.reset()
            engine.evaluate_series(series[1:7], transitions=engine.caches.transitions)
            warm = SIMPLEX_METRICS.snapshot()
            bases = engine.caches.bases.stats()
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
        assert warm["warm_pivots_per_solve"] < max(
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
        from repro.flow.network_simplex import SIMPLEX_METRICS

        series = self.rotating_adopter_series(40, 4)
        auto = SND(graph, n_clusters=3, seed=0, solver="auto")
        with SNDEngine(auto, jobs=None) as engine:
            SIMPLEX_METRICS.reset()
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

    def test_thread_executor_matches_serial(self, graph):
        series = self.constant_adopter_series(40, 6)
        with SNDEngine(self.ns_snd(graph), jobs=None) as serial, SNDEngine(
            self.ns_snd(graph), jobs=2, executor="thread"
        ) as threaded:
            assert np.array_equal(
                serial.evaluate_series(series), threaded.evaluate_series(series)
            )

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
