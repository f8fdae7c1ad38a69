"""Tests for the PairScheduler: dedup, coalescing, backpressure, counters."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import SchedulerSaturatedError, ValidationError
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState
from repro.snd import SND, SNDEngine, TransitionCache
from repro.snd.scheduler import DEFAULT_MAX_PENDING, PairScheduler


def distinct_states(n: int, count: int) -> list[NetworkState]:
    states = []
    for t in range(count):
        values = np.zeros(n, dtype=np.int8)
        values[: t + 1] = 1
        states.append(NetworkState(values))
    return states


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(30, 0.2, seed=3)


def fresh_engine(graph, **kwargs) -> SNDEngine:
    return SNDEngine(SND(graph, n_clusters=2, seed=0), jobs=None, **kwargs)


class TestEvaluateBasics:
    def test_matches_naive_loop(self, graph):
        states = distinct_states(30, 5)
        pairs = [(0, 1), (1, 2), (0, 3), (2, 4)]
        snd = SND(graph, n_clusters=2, seed=0)
        naive = [snd.distance(states[i], states[j]) for i, j in pairs]
        with fresh_engine(graph) as engine:
            values = engine.scheduler.evaluate(states, pairs)
        assert values == naive

    def test_empty_request(self, graph):
        with fresh_engine(graph) as engine:
            assert engine.scheduler.evaluate([], []) == []
            assert engine.scheduler.requested == 0

    def test_submit_single_pair(self, graph):
        states = distinct_states(30, 2)
        with fresh_engine(graph) as engine:
            value = engine.scheduler.submit(states[0], states[1])
            assert value == engine.distance(states[0], states[1])

    def test_default_max_pending(self, graph):
        with fresh_engine(graph) as engine:
            assert engine.scheduler.max_pending == DEFAULT_MAX_PENDING

    def test_bad_max_pending_rejected(self, graph):
        with pytest.raises(ValidationError):
            PairScheduler(object(), max_pending=0)


class TestDedupAndCoalescing:
    def test_duplicate_pairs_in_one_batch_solved_once(self, graph):
        states = distinct_states(30, 3)
        # (0,1) three times, (1,2) once.  Keys follow TransitionCache.key,
        # which is order-sensitive: (1,0) would be a distinct pair, because
        # the float summation order inside the solve differs and the
        # bit-identity contract forbids substituting one for the other.
        pairs = [(0, 1), (0, 1), (0, 1), (1, 2)]
        with fresh_engine(graph) as engine:
            sched = engine.scheduler
            values = sched.evaluate(states, pairs)
            assert sched.requested == 4
            assert sched.solved == 2  # the two unique pairs
            assert sched.coalesced == 2
            assert values[0] == values[1] == values[2]
            assert values[0] == engine.distance(states[0], states[1])

    def test_cache_answered_before_any_solve(self, graph):
        states = distinct_states(30, 3)
        transitions = TransitionCache()
        with fresh_engine(graph) as engine:
            sched = engine.scheduler
            first = sched.evaluate(states, [(0, 1), (1, 2)], transitions=transitions)
            assert sched.solved == 2
            again = sched.evaluate(states, [(0, 1), (1, 2)], transitions=transitions)
            assert again == first
            assert sched.solved == 2  # nothing new solved
            assert sched.cache_answered == 2
            # Counter semantics preserved: one cache probe per request.
            assert transitions.fresh == 2 and transitions.reused == 2

    def test_concurrent_same_pair_coalesces_to_one_solve(self, graph):
        """N threads racing on one pair trigger exactly one solve; late
        arrivals attach to the in-flight entry and get the same float."""
        states = distinct_states(30, 2)
        n_threads = 6
        with fresh_engine(graph) as engine:
            sched = engine.scheduler
            solve_started = threading.Event()
            original = engine._solve_pairs_local

            def slow_solve(sts, pairs):
                solve_started.set()
                time.sleep(0.3)  # hold the pair in flight while others arrive
                return original(sts, pairs)

            engine._solve_pairs_local = slow_solve
            transitions = engine.caches.transitions
            results: list[float] = [None] * n_threads
            errors: list[BaseException] = []

            def client(idx: int) -> None:
                try:
                    if idx > 0:
                        solve_started.wait(timeout=10)
                    results[idx] = sched.submit(
                        states[0], states[1], transitions=transitions
                    )
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert sched.solved == 1  # THE counter-asserted guarantee
            assert sched.requested == n_threads
            # Every non-solving thread either coalesced onto the in-flight
            # solve or (if it arrived after publication) hit the cache.
            assert sched.coalesced + sched.cache_answered == n_threads - 1
            assert sched.coalesced >= 1
            assert len(set(results)) == 1
            engine._solve_pairs_local = original

    def test_coalesced_waiters_see_solver_error(self, graph):
        states = distinct_states(30, 2)
        with fresh_engine(graph) as engine:
            sched = engine.scheduler
            started = threading.Event()

            def boom(sts, pairs):
                started.set()
                time.sleep(0.2)
                raise RuntimeError("solver exploded")

            engine._solve_pairs_local = boom
            outcomes: list[str] = []

            def client(wait_for_start: bool) -> None:
                try:
                    if wait_for_start:
                        started.wait(timeout=10)
                    sched.submit(states[0], states[1])
                    outcomes.append("ok")
                except RuntimeError:
                    outcomes.append("error")

            threads = [
                threading.Thread(target=client, args=(w,)) for w in (False, True, True)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert outcomes == ["error", "error", "error"]
            # The failed entry must not wedge the queue.
            assert sched.pending == 0
            assert sched._inflight == {}


class TestBackpressure:
    def test_bounded_queue_slicewise_admission(self, graph):
        """More distinct pairs than max_pending still complete — owners
        break out of admission to solve (freeing room) instead of
        hold-and-waiting."""
        states = distinct_states(30, 6)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]  # 15 > 2
        with fresh_engine(graph, max_pending=2) as engine:
            sched = engine.scheduler
            values = sched.evaluate(states, pairs)
            assert len(values) == 15
            assert sched.solved == 15
            assert sched.peak_pending <= 2
            assert sched.pending == 0

    def test_nonblocking_rejection_when_full(self, graph):
        states = distinct_states(30, 4)
        with fresh_engine(graph, max_pending=1) as engine:
            sched = engine.scheduler
            hold = threading.Event()
            started = threading.Event()
            original = engine._solve_pairs_local

            def stalled(sts, pairs):
                started.set()
                hold.wait(timeout=10)
                return original(sts, pairs)

            engine._solve_pairs_local = stalled
            t = threading.Thread(
                target=lambda: sched.evaluate(states, [(0, 1)])
            )
            t.start()
            assert started.wait(timeout=10)
            with pytest.raises(SchedulerSaturatedError):
                sched.evaluate(states, [(2, 3)], block=False)
            assert sched.rejected == 1
            hold.set()
            t.join(timeout=30)
            assert sched.pending == 0

    def test_timeout_rejection_when_full(self, graph):
        states = distinct_states(30, 4)
        with fresh_engine(graph, max_pending=1) as engine:
            sched = engine.scheduler
            hold = threading.Event()
            started = threading.Event()
            original = engine._solve_pairs_local

            def stalled(sts, pairs):
                started.set()
                hold.wait(timeout=10)
                return original(sts, pairs)

            engine._solve_pairs_local = stalled
            t = threading.Thread(
                target=lambda: sched.evaluate(states, [(0, 1)])
            )
            t.start()
            assert started.wait(timeout=10)
            with pytest.raises(SchedulerSaturatedError):
                sched.evaluate(states, [(2, 3)], timeout=0.05)
            hold.set()
            t.join(timeout=30)

    def test_blocking_admission_resumes(self, graph):
        states = distinct_states(30, 4)
        with fresh_engine(graph, max_pending=1) as engine:
            sched = engine.scheduler
            hold = threading.Event()
            started = threading.Event()
            original = engine._solve_pairs_local

            def stalled(sts, pairs):
                if not started.is_set():
                    started.set()
                    hold.wait(timeout=10)
                return original(sts, pairs)

            engine._solve_pairs_local = stalled
            t = threading.Thread(target=lambda: sched.evaluate(states, [(0, 1)]))
            t.start()
            assert started.wait(timeout=10)
            releaser = threading.Timer(0.2, hold.set)
            releaser.start()
            # Blocks until the stalled solve publishes, then proceeds.
            values = sched.evaluate(states, [(2, 3)])
            assert len(values) == 1
            t.join(timeout=30)
            releaser.join()


class TestStats:
    def test_stats_keys_and_engine_embedding(self, graph):
        states = distinct_states(30, 3)
        with fresh_engine(graph) as engine:
            engine.scheduler.evaluate(states, [(0, 1), (0, 1)])
            stats = engine.scheduler.stats()
            for key in (
                "requested",
                "cache_answered",
                "coalesced",
                "solved",
                "batches",
                "rejected",
                "pending",
                "peak_pending",
                "max_pending",
            ):
                assert key in stats
            assert stats["requested"] == 2
            assert stats["solved"] == 1
            assert stats["coalesced"] == 1
            assert engine.stats()["scheduler"] == stats


def ssp_engine(graph, **kwargs) -> SNDEngine:
    return SNDEngine(
        SND(graph, n_clusters=2, seed=0, solver="ssp"),
        jobs=None,
        **kwargs,
    )


def throttle_ssp(monkeypatch, *, delay=0.0, hold=None, started=None):
    """Wrap the registered successive-shortest-paths solver so every reduced solve
    is slow (or blocks on *hold*), simulating large-instance latency while
    keeping values exact. Patching the registry entry throttles the real
    solve path (emd_star_term_fast -> solve_transportation), not a stub."""
    import repro.flow as flow_mod

    real = flow_mod._TRANSPORT_SOLVERS["ssp"]

    def throttled(problem, **kw):
        if started is not None:
            started.set()
        if hold is not None:
            hold.wait(timeout=30)
        if delay:
            time.sleep(delay)
        return real(problem, **kw)

    monkeypatch.setitem(flow_mod._TRANSPORT_SOLVERS, "ssp", throttled)
    return real


class TestThrottledColdSolves:
    """Slow cold solves must neither break coalescing nor dodge
    backpressure — the scheduler guarantees are solver-agnostic."""

    def test_concurrent_same_pair_still_one_solve(self, graph, monkeypatch):
        states = distinct_states(30, 2)
        reference = SND(graph, n_clusters=2, seed=0, solver="ssp").distance(
            states[0], states[1]
        )
        started = threading.Event()
        throttle_ssp(monkeypatch, delay=0.1, started=started)
        n_threads = 5
        with ssp_engine(graph) as engine:
            sched = engine.scheduler
            transitions = engine.caches.transitions
            results: list[float] = [None] * n_threads
            errors: list[BaseException] = []

            def client(idx: int) -> None:
                try:
                    if idx > 0:
                        started.wait(timeout=10)
                    results[idx] = sched.submit(
                        states[0], states[1], transitions=transitions
                    )
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert sched.solved == 1  # one slow solve, N answers
            assert sched.requested == n_threads
            assert sched.coalesced + sched.cache_answered == n_threads - 1
            assert len(set(results)) == 1
            assert results[0] == reference  # throttling never changes values

    def test_saturated_scheduler_raises_with_counters(self, graph, monkeypatch):
        states = distinct_states(30, 4)
        hold = threading.Event()
        started = threading.Event()
        throttle_ssp(monkeypatch, hold=hold, started=started)
        with ssp_engine(graph, max_pending=1) as engine:
            sched = engine.scheduler
            t = threading.Thread(target=lambda: sched.evaluate(states, [(0, 1)]))
            t.start()
            assert started.wait(timeout=10)  # the solve is now in flight
            with pytest.raises(SchedulerSaturatedError):
                sched.evaluate(states, [(2, 3)], block=False)
            assert sched.rejected == 1
            assert sched.pending == 1  # the stalled pair
            hold.set()
            t.join(timeout=60)
            assert sched.pending == 0
            stats = sched.stats()
            assert stats["rejected"] == 1
            assert stats["solved"] == 1


class TestClientFairness:
    """Per-client identity accounting, priority-scaled quotas, and the
    fail-fast ClientSaturatedError path."""

    def test_quota_disabled_by_default(self, graph):
        with fresh_engine(graph) as engine:
            assert engine.scheduler.client_max_pending is None
            assert engine.scheduler.client_quota("normal") is None

    def test_priority_scales_quota(self, graph):
        from repro.snd.scheduler import PRIORITY_WEIGHTS

        with fresh_engine(graph, client_max_pending=4) as engine:
            sched = engine.scheduler
            assert sched.client_quota("normal") == 4
            assert sched.client_quota("high") == int(4 * PRIORITY_WEIGHTS["high"])
            assert sched.client_quota("low") == 2

    def test_quota_floor_is_one(self, graph):
        with fresh_engine(graph, client_max_pending=1) as engine:
            # 1 * 0.5 truncates to 0 -> clamped so every client can
            # always make progress.
            assert engine.scheduler.client_quota("low") == 1

    def test_unknown_priority_rejected(self, graph):
        states = distinct_states(30, 2)
        with fresh_engine(graph) as engine:
            with pytest.raises(ValidationError):
                engine.scheduler.submit(states[0], states[1], priority="urgent")

    def test_bad_client_max_pending_rejected(self):
        with pytest.raises(ValidationError):
            PairScheduler(object(), client_max_pending=0)

    def test_per_client_counters(self, graph):
        states = distinct_states(30, 3)
        with fresh_engine(graph) as engine:
            sched = engine.scheduler
            sched.evaluate(states, [(0, 1), (1, 2)], client="alice")
            sched.evaluate(states, [(0, 1)], client="bob",
                           transitions=None)
            stats = sched.stats()
            assert stats["clients"]["alice"]["requested"] == 2
            assert stats["clients"]["alice"]["solved"] == 2
            assert stats["clients"]["alice"]["pending"] == 0
            assert stats["clients"]["bob"]["requested"] == 1

    def test_anonymous_requests_exempt_from_quota(self, graph):
        states = distinct_states(30, 4)
        pairs = [(0, 1), (1, 2), (2, 3)]
        with fresh_engine(graph, client_max_pending=1) as engine:
            # No client identity: the per-client cap never applies.
            values = engine.scheduler.evaluate(states, pairs)
            assert len(values) == 3
            assert engine.scheduler.client_rejected == 0

    def test_greedy_client_hits_429_path_while_other_flows(self, graph):
        """One client saturates its quota while a solve is held in
        flight; its next distinct pair fails fast with
        ClientSaturatedError, the other client's request still admits."""
        from repro.exceptions import ClientSaturatedError

        states = distinct_states(30, 6)
        with fresh_engine(graph, client_max_pending=1) as engine:
            sched = engine.scheduler
            solve_started = threading.Event()
            hold = threading.Event()
            original = engine._solve_pairs_local

            def slow_solve(sts, pairs):
                solve_started.set()
                hold.wait(timeout=30)
                return original(sts, pairs)

            engine._solve_pairs_local = slow_solve
            first: list[float] = []

            def greedy_first():
                first.append(
                    sched.submit(states[0], states[1], client="greedy")
                )

            t = threading.Thread(target=greedy_first)
            t.start()
            try:
                assert solve_started.wait(timeout=30)
                # greedy now holds its whole quota (1 pending pair): a
                # distinct second pair fails fast, it does not queue.
                with pytest.raises(ClientSaturatedError):
                    sched.submit(
                        states[2], states[3], client="greedy", block=False
                    )
            finally:
                hold.set()
                t.join(timeout=60)
            # A different identity was never rationed: its request admits
            # and solves normally.
            polite = sched.submit(states[4], states[5], client="polite")
            assert polite >= 0
            stats = sched.stats()
            assert stats["client_rejected"] == 1
            assert stats["clients"]["greedy"]["rejected"] == 1
            assert stats["clients"]["greedy"]["solved"] == 1
            assert stats["clients"]["polite"]["rejected"] == 0
            assert first and first[0] >= 0

    def test_coalesced_duplicates_do_not_consume_quota(self, graph):
        """Duplicates of an in-flight pair attach to the existing entry,
        so a client replaying one hot pair never trips its own quota."""
        states = distinct_states(30, 2)
        with fresh_engine(graph, client_max_pending=1) as engine:
            sched = engine.scheduler
            values = sched.evaluate(
                states, [(0, 1), (0, 1), (0, 1)], client="replayer"
            )
            assert len(set(values)) == 1
            assert sched.client_rejected == 0
            assert sched.stats()["clients"]["replayer"]["requested"] == 3
