"""The persistent SND engine: long-lived pools, corpora, and streaming.

The paper's online workloads — anomaly detection over arriving Twitter
states (§6.2) and metric-space search/clustering over growing corpora
(§9) — evaluate SND repeatedly against largely unchanged data. The
one-call :meth:`SND.evaluate_series` / :meth:`SND.pairwise_matrix` open a
transient engine, so they rebuild their process pool on every call and
recompute pairwise matrices from scratch on every append; this module
makes the evaluate-as-states-arrive path first-class:

:class:`SNDEngine`
    A long-lived evaluator over one :class:`~repro.snd.snd.SND` instance.
    Its worker pool persists across calls, and process workers attach
    **once** to a :mod:`multiprocessing.shared_memory`-backed state
    matrix: per-call payloads are bare index pairs, killing both the
    pool-startup cost and the per-call matrix pickling that make ``jobs=``
    lose on small sweeps. All entry points share the engine's
    :class:`~repro.snd.cache.CacheManager` hierarchy.

:class:`Corpus`
    An appendable state collection whose pairwise SND matrix extends
    incrementally: appending ``k`` states to an ``N``-state corpus solves
    only the ``k·N + k·(k-1)/2`` new pairs through the engine's
    :class:`~repro.snd.cache.TransitionCache` (counter-assertable), with
    the resulting matrix bit-identical to a from-scratch
    :meth:`SNDEngine.pairwise_matrix` — pairs are independent and run the
    exact same per-pair pipeline, so incremental extension is a pure
    work-avoidance transform.

:meth:`SNDEngine.stream`
    Consumes states one at a time, maintains the sliding-window distance
    series through the transition cache, and drives an online
    :class:`~repro.analysis.anomaly.StreamingAnomalyDetector` — the
    ``repro-snd watch`` CLI path.

The engine runs any :class:`~repro.snd.snd.SND`, including the k-pole
:class:`~repro.multipolar.snd.MultipolarSND`: pool workers rebuild
states from shared-memory rows through ``snd.state_from_row``.

Exactness contract: every path funnels through the same Eq. 3 loop as
:meth:`SND.evaluate`, ``SND._sum_terms`` (same cost arrays, same solver,
same summation order). Only network-simplex solves
(``"network-simplex"`` and ``"auto"``) ever warm-start. With a
cold solver (``"ssp"``, ``"lp"``) or with
``use_basis_cache=False``, results are bit-identical to the naive
per-pair loop in every execution mode. With warm starts on, a cached
basis only changes where pivoting starts, but the optimum can then be
summed in another order: values agree with the per-pair loop within 1e-9
(relative), and bitwise on fully integral instances.

Scheduling — cache probing, request coalescing, chunking, and pool
dispatch — lives in :mod:`repro.snd.scheduler`; every engine entry point
is a client of the engine's own :class:`~repro.snd.scheduler.PairScheduler`.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.opinions.state import NetworkState, StateSeries
from repro.snd.cache import (
    DEFAULT_CACHE_SIZE,
    CacheManager,
    GroundCostCache,
    TransitionCache,
)
from repro.snd.fast import SolverCounts
from repro.snd.scheduler import DEFAULT_MAX_PENDING, PairScheduler, resolve_jobs
from repro.snd.snd import BoundSides

__all__ = ["SNDEngine", "Corpus", "StreamUpdate", "resolve_jobs", "STATS_GAUGES"]

#: The keys of :meth:`SNDEngine.stats` (and of the serving shard stats
#: that embed it) whose values are levels: sizes, bounds, settings and
#: means. Every other numeric leaf is a monotone counter, so a pool
#: worker's count adds to the engine's and the scrape exports it as
#: ``_total``.
STATS_GAUGES = frozenset({
    "pending", "peak_pending", "max_pending", "client_max_pending",
    "size", "max_size", "capacity", "nbytes", "total_nbytes", "memory_budget",
    "cold_pivots_per_solve", "warm_pivots_per_solve",
    "jobs", "n_states",
})


# --------------------------------------------------------------------- #
# Process-pool plumbing
# --------------------------------------------------------------------- #

# Worker-global context, set once per process by the pool initializer so
# per-task payloads are bare index pairs (the SND instance crosses the
# process boundary exactly once, the state matrix zero times — workers
# read it straight out of shared memory).
_ENGINE_WORKER: dict = {}


def _attach_shared_memory(name: str):
    """Attach to an existing shared-memory block without registering it
    with this process's resource tracker (the creating engine owns the
    lifetime; double-registration makes the tracker unlink blocks that
    are still in use and spam warnings at worker exit)."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)  # py >= 3.13
    except TypeError:  # pragma: no cover - version-dependent
        # Older Pythons register even plain attaches; several forked
        # workers sharing one tracker would then race each other's
        # unregister at exit. Suppressing registration during the attach
        # (worker-local, initializer is single-threaded) sidesteps both.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _pool_context():
    """A forkserver, not a fork of the caller: a forked worker would keep
    the caller's open sockets (a server's listener and connections) for
    the pool's lifetime. Workers re-import the caller's main module, so a
    script using ``jobs >= 2`` needs an ``if __name__ == "__main__":``
    guard."""
    import multiprocessing

    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.snd.engine"])
    return context


def _init_engine_worker(
    snd, shm_name, shape, ground_size, row_size, basis_size, memory_budget
) -> None:
    """Attach this worker to the engine's shared state matrix (once).

    The worker's caches get the engine's *memory_budget* as their own cap,
    so the budget bounds each process. A *basis_size* of 0 disables the
    worker-local basis store (the cache object still exists —
    content-keyed caches are per-process, so a worker's basis store warms
    only solves dispatched to that worker; chunk contiguity keeps related
    pairs together).
    """
    if shm_name is None:
        matrix = shape  # no shared memory available: *shape* is the matrix
    else:
        shm = _attach_shared_memory(shm_name)
        _ENGINE_WORKER["shm"] = shm  # keep the mapping alive
        matrix = np.ndarray(shape, dtype=np.int8, buffer=shm.buf)
    _ENGINE_WORKER["snd"] = snd
    _ENGINE_WORKER["matrix"] = matrix
    caches = CacheManager(
        row_size=row_size, basis_size=max(1, basis_size), memory_budget=memory_budget
    )
    # Pairwise chunks re-read every state's arrays: hold them all.
    caches.ensure_ground_capacity(ground_size)
    _ENGINE_WORKER["caches"] = caches
    _ENGINE_WORKER["basis_cache_enabled"] = basis_size > 0


def _cache_counters(caches: CacheManager) -> dict[str, dict[str, int]]:
    """The counter (non-gauge) keys of each member cache's stats."""
    return {
        name: {key: value for key, value in member.items() if key not in STATS_GAUGES}
        for name, member in caches.stats().items()
        if isinstance(member, dict)
    }


def _engine_pairs_worker(
    pairs: list[tuple[int, int]],
) -> tuple[list[float], SolverCounts, dict[str, dict[str, int]]]:
    """Distances for explicit row-index pairs read from shared memory, the
    solver work they took, and the worker caches' counter delta (the
    engine adds both to its own counts).

    States are rebuilt from row *copies* (a row is ``n`` int8 bytes —
    negligible next to one SND solve), so later overwrites of the shared
    slots by the parent can never alias into a result; the worker's
    content-keyed caches provide the actual reuse across tasks.
    """
    snd = _ENGINE_WORKER["snd"]
    matrix = _ENGINE_WORKER["matrix"]
    caches: CacheManager = _ENGINE_WORKER["caches"]
    basis_cache = caches.bases if _ENGINE_WORKER["basis_cache_enabled"] else None
    local: dict = {}
    counts = SolverCounts()
    before = _cache_counters(caches)

    def state(i: int):
        s = local.get(i)
        if s is None:
            s = snd.state_from_row(matrix[i].copy())
            local[i] = s
        return s

    values = [
        snd._sum_terms(
            state(i), state(j), caches=caches, basis_cache=basis_cache, counts=counts
        )[0]
        for i, j in pairs
    ]
    delta = {
        name: {key: value - before[name][key] for key, value in member.items()}
        for name, member in _cache_counters(caches).items()
    }
    return values, counts, delta


# --------------------------------------------------------------------- #
# Stream updates
# --------------------------------------------------------------------- #


@dataclass
class StreamUpdate:
    """One step of :meth:`SNDEngine.stream`.

    *distance* is ``SND(G_{t-1}, G_t)`` for the state just consumed
    (``None`` for the first state); *window_distances* is the current
    sliding window of recent distances (most recent last); *scored* is the
    newly finalised anomaly score, which lags one state behind the
    distance because the spike score ``S_t`` needs the right neighbour
    ``d_{t+1}`` (the final flush update carries ``distance=None`` and the
    last score).
    """

    index: int
    state: NetworkState | None
    distance: float | None
    window_distances: np.ndarray = field(default_factory=lambda: np.empty(0))
    scored: "object | None" = None


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class SNDEngine:
    """Long-lived SND evaluator with a persistent worker pool.

    Parameters
    ----------
    snd:
        The :class:`~repro.snd.snd.SND` instance to evaluate through
        (bipolar or k-pole).
    jobs:
        ``"auto"`` (default — serial on single-CPU hosts, up to 4 workers
        otherwise), an explicit worker count (>= 1), or ``None`` for
        serial. Parallel work runs on a process pool that reads the
        states from a shared-memory matrix.
    caches:
        A :class:`~repro.snd.cache.CacheManager` to draw from; defaults to
        the SND instance's own hierarchy so the engine, the one-call
        :class:`~repro.snd.snd.SND` batch methods, and single-pair calls
        all reuse one set of caches. Per-source Dijkstra rows are always
        reused across terms (value-preserving).
    use_basis_cache:
        Thread the cache hierarchy's basis store through every solve
        (default ``True``). Only network-simplex solves (``"auto"`` and
        ``"network-simplex"``) read and store bases; other solvers run
        cold either way. ``False`` disables warm-starting.
    max_pending:
        Bound on unique pairs the engine's scheduler will hold admitted
        at once (backpressure; see :class:`~repro.snd.scheduler.PairScheduler`).
    client_max_pending:
        Optional per-client fairness quota for the scheduler (see
        :class:`~repro.snd.scheduler.PairScheduler`); ``None`` (default)
        disables per-client caps.

    The pool and the shared-memory block are created lazily on the first
    parallel call and reused until :meth:`close` (the engine is a context
    manager). ``pool_starts`` counts pool launches, which makes
    persistence testable: two sweeps through one engine show one start,
    where two one-call :meth:`SND.evaluate_series` sweeps would show two.

    Every evaluation entry point routes through ``self.scheduler``, so
    concurrent callers sharing one engine get their duplicate pairs
    coalesced into single solves (assertable via ``scheduler.stats()``).
    """

    def __init__(
        self,
        snd,
        *,
        jobs="auto",
        caches: CacheManager | None = None,
        use_basis_cache: bool = True,
        max_pending: int = DEFAULT_MAX_PENDING,
        client_max_pending: int | None = None,
    ) -> None:
        if not isinstance(use_basis_cache, bool):
            raise ValidationError(
                f"use_basis_cache must be True or False, got {use_basis_cache!r}"
            )
        self.snd = snd
        self.jobs = resolve_jobs(jobs)
        self.caches = caches if caches is not None else snd.caches
        #: The basis store threaded through every solve, or ``None``.
        self.basis_cache = self.caches.bases if use_basis_cache else None
        self.pool_starts = 0
        self.slot_writes = 0
        self._slots: dict[bytes, int] = {}
        self._pool = None
        self._shm = None
        self._matrix: np.ndarray | None = None
        self._capacity = 0
        self._n_users: int | None = None
        self._closed = False
        self.scheduler = PairScheduler(
            self, max_pending=max_pending, client_max_pending=client_max_pending
        )
        self._queries = {"queries": 0, "bounded": 0, "refined": 0, "solved": 0}
        self._solver_counts = SolverCounts()
        #: Cache counters the pool workers added, by member cache.
        self._worker_caches: dict[str, dict[str, int]] = {}
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down the worker pool and release the shared-memory block.

        Idempotent: double ``close()``, context-manager exit after an
        explicit ``close()``, and ``__del__`` after ``close()`` are all
        no-ops that neither raise nor double-release the segment.
        """
        self._shutdown_pool()
        self._closed = True

    def _shutdown_pool(self) -> None:
        # getattr guards: __del__ can run on a partially constructed
        # instance (failed __init__) or during interpreter shutdown.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            self._pool = None
            pool.shutdown(wait=True)
        shm = getattr(self, "_shm", None)
        if shm is not None:
            # None out first so a re-entrant/second call can never see a
            # half-released segment and unlink it twice.
            self._shm = None
            self._matrix = None
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - gone
                pass
        self._capacity = 0
        self._slots = {}

    def __enter__(self) -> "SNDEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self._shutdown_pool()
        except BaseException:
            # Interpreter shutdown can leave modules half-torn-down;
            # nothing useful can be reported from a finalizer.
            pass

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #

    def _ensure_process_pool(self, states: Sequence[NetworkState]):
        """The persistent process pool plus a slot index for *states*.

        Slot assignment is **append-only**: a state already resident in
        the shared matrix (matched by content fingerprint) keeps its slot
        and is not rewritten, so extending an ``N``-state corpus by ``k``
        states writes ``k`` rows instead of ``N + k`` (``slot_writes``
        counts actual row writes, which makes this assertable). When the
        distinct-state population outgrows the matrix, only the slot
        *map* is reset and rows are reassigned from slot 0 — the pool
        survives. That is safe because dispatches fully drain before
        returning (no task is in flight between calls, so a remapped slot
        can never race a reader) and worker caches are content-keyed, so
        remapping costs nothing but the row writes.

        Returns ``(pool, slot_of)`` where ``slot_of[i]`` is the shared
        matrix row now holding ``states[i]``.
        """
        if self._closed:
            raise ValidationError("engine is closed")
        n, n_users = len(states), states[0].n
        if self._pool is not None and (
            n > self._capacity
            or n_users != self._n_users
            # Without shared memory the workers hold a pickled snapshot of
            # the matrix, so the pool cannot survive a data change.
            or self._shm is None
        ):
            self._shutdown_pool()  # outgrown: remap and relaunch
        if self._pool is None:
            self._capacity = max(64, 2 * n)
            self._n_users = n_users
            self._slots = {}
            shm_name = None
            shape = (self._capacity, n_users)
            try:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(
                    create=True, size=self._capacity * n_users
                )
                self._matrix = np.ndarray(shape, dtype=np.int8, buffer=self._shm.buf)
                shm_name = self._shm.name
            except (ImportError, OSError):  # pragma: no cover - no /dev/shm
                self._shm = None
                self._matrix = np.zeros(shape, dtype=np.int8)
            ground_size = max(
                self.caches.ground.maxsize, self.snd.n_poles * self._capacity
            )
            basis_size = 0 if self.basis_cache is None else self.basis_cache.maxsize
            init_matrix = None if shm_name is not None else self._matrix
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_init_engine_worker,
                initargs=(
                    self.snd,
                    shm_name,
                    shape if shm_name is not None else init_matrix,
                    ground_size,
                    self.caches.rows.maxsize,
                    basis_size,
                    self.caches.memory_budget,
                ),
            )
            self.pool_starts += 1
        slots = self._slots
        fingerprints = [GroundCostCache.fingerprint(s) for s in states]
        fresh = [fp for fp in dict.fromkeys(fingerprints) if fp not in slots]
        if len(slots) + len(fresh) > self._capacity:
            slots.clear()  # out of rows: remap from slot 0, keep the pool
        for fp, s in zip(fingerprints, states):
            if fp not in slots:
                slot = len(slots)
                slots[fp] = slot
                self._matrix[slot] = s.values
                self.slot_writes += 1
        return self._pool, [slots[fp] for fp in fingerprints]

    # ------------------------------------------------------------------ #
    # Core pair evaluation
    # ------------------------------------------------------------------ #

    def distance(self, a: NetworkState, b: NetworkState) -> float:
        """SND between two states through the engine's cache hierarchy."""
        counts = SolverCounts()
        try:
            return self.snd._sum_terms(
                a, b, caches=self.caches, basis_cache=self.basis_cache, counts=counts
            )[0]
        finally:
            self._count_solves(counts)

    def _solve_pairs_local(
        self,
        states: Sequence[NetworkState],
        pairs: Sequence[tuple[int, int]],
    ) -> list[float]:
        """Serial in-process solve of index *pairs* over *states*."""
        return [self.distance(states[i], states[j]) for i, j in pairs]

    def _dispatch_chunks(
        self,
        states: Sequence[NetworkState],
        chunks: list[list[tuple[int, int]]],
    ) -> list[list[float]]:
        """Dispatch pre-chunked index pairs to the persistent pool.

        Callers (the scheduler) must serialize dispatches: each dispatch
        rewrites *states* into the shared matrix rows, so two concurrent
        dispatches would clobber each other's slots. Chunks are expected
        to be contiguous-ish so worker caches keep supplier states hot.

        A worker that dies (a crash, a kill) breaks the whole pool: the
        chunks then go again, once, to a fresh pool, and a second
        failure raises.
        """

        def run() -> list:
            pool, slot_of = self._ensure_process_pool(states)
            # Translate caller indices to shared-matrix slots: append-only
            # assignment means a state's slot is stable across dispatches,
            # not necessarily equal to its position in *states*.
            slot_chunks = [[(slot_of[i], slot_of[j]) for i, j in chunk] for chunk in chunks]
            return list(pool.map(_engine_pairs_worker, slot_chunks))

        try:
            results = run()
        except BrokenProcessPool:
            self._shutdown_pool()
            results = run()
        for _values, counts, cache_delta in results:
            self._count_solves(counts, cache_delta)
        return [values for values, *_counts in results]

    # ------------------------------------------------------------------ #
    # Series evaluation
    # ------------------------------------------------------------------ #

    def evaluate_series(
        self,
        series: StateSeries,
        *,
        transitions: TransitionCache | None = None,
        window: int | None = None,
    ) -> np.ndarray:
        """Adjacent-state distances ``d_t = SND(G_t, G_{t+1})``.

        *transitions* (optional) memoises finished values across calls:
        cached transitions are answered before any worker dispatch, so a
        sweep over a window shifted by one state re-solves exactly one
        transition. *window* runs the whole series through overlapping
        length-*window* sub-sweeps sharing the engine transition cache and
        returns the same ``(T-1,)`` array as the from-scratch sweep.

        Values equal ``[snd.distance(a, b) for a, b in
        series.transitions()]`` in every mode: bitwise for cold solvers
        and with the basis cache off, within 1e-9 with warm starts (see
        the module's exactness contract).
        """
        n_transitions = len(series) - 1
        if n_transitions <= 0:
            return np.empty(0, dtype=np.float64)

        if window is not None:
            if window < 2:
                raise ValidationError(
                    f"window must span at least one transition (>= 2 states), "
                    f"got {window}"
                )
            if transitions is None:
                transitions = self.caches.transitions
            window = min(int(window), len(series))
            out = np.empty(n_transitions, dtype=np.float64)
            for start in range(0, len(series) - window + 1):
                vals = self.evaluate_series(
                    series[start : start + window], transitions=transitions
                )
                out[start : start + window - 1] = vals
            return out

        states = list(series)
        pairs = [(t, t + 1) for t in range(n_transitions)]
        # The scheduler probes the transition cache per pair (preserving
        # its hit/miss counters exactly), solves the misses in contiguous
        # chunks, and writes the fresh values back.
        values = self.scheduler.evaluate(states, pairs, transitions=transitions)
        return np.asarray(values, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Pairwise matrices
    # ------------------------------------------------------------------ #

    def pairwise_matrix(
        self,
        states,
        *,
        transitions: TransitionCache | None = None,
    ) -> np.ndarray:
        """Symmetric ``(N, N)`` SND matrix over *states*, upper triangle only.

        Eq. 3 is symmetric by construction, so only the ``N·(N-1)/2``
        pairs ``i < j`` are evaluated and mirrored; the diagonal is
        exactly 0. For the call, the ground cache holds at least
        ``n_poles·N`` cost arrays, so each state's arrays are built once;
        afterwards it is sized as before. *transitions*
        (optional) answers already-solved pairs from the cache before any
        dispatch — the lever behind :meth:`Corpus.extend`.
        """
        states = list(states)
        n = len(states)
        out = np.zeros((n, n), dtype=np.float64)
        if n < 2:
            return out
        # Pairs are emitted grouped by row, so the scheduler's contiguous
        # chunks keep the supplier-side cost arrays hot in each worker.
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        with self.caches.ground.reserved(max(DEFAULT_CACHE_SIZE, self.snd.n_poles * n)):
            values = self.scheduler.evaluate(states, pairs, transitions=transitions)
        for (i, j), v in zip(pairs, values):
            out[i, j] = out[j, i] = v
        return out

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def stream(
        self,
        states: Iterable[NetworkState],
        *,
        window: int | None = None,
        detector=None,
        transitions: TransitionCache | None = None,
    ) -> Iterator[StreamUpdate]:
        """Consume states one at a time, yielding a :class:`StreamUpdate`
        per state (plus one final flush update).

        Each arriving state solves exactly one new transition — unless the
        transition cache already holds it (replays, overlapping streams) —
        maintains the sliding window of the last ``window - 1`` distances,
        and feeds the online *detector* (default: a fresh
        :class:`~repro.analysis.anomaly.StreamingAnomalyDetector`). The
        spike score needs the right neighbour, so ``update.scored`` lags
        one state behind ``update.distance``; the final flush update
        (``distance=None``) carries the last transition's score.
        """
        from repro.analysis.anomaly import StreamingAnomalyDetector

        if window is not None and window < 2:
            raise ValidationError(
                f"window must span at least one transition (>= 2 states), "
                f"got {window}"
            )
        if transitions is None:
            transitions = self.caches.transitions
        if detector is None:
            detector = StreamingAnomalyDetector()
        recent: deque = deque(maxlen=(window - 1) if window is not None else None)
        prev: NetworkState | None = None
        index = -1
        for index, state in enumerate(states):
            distance = None
            scored = None
            if prev is not None:
                # One pair through the scheduler: answered from the
                # transition cache when already solved (replays,
                # overlapping streams), coalesced with any concurrent
                # request for the same transition otherwise.
                distance = self.scheduler.submit(prev, state, transitions=transitions)
                recent.append(distance)
                scored = detector.push(distance, active_count=state.n_active)
            yield StreamUpdate(
                index=index,
                state=state,
                distance=distance,
                window_distances=np.asarray(recent, dtype=np.float64),
                scored=scored,
            )
            prev = state
        final = detector.finalize()
        if final is not None:
            yield StreamUpdate(
                index=index,
                state=prev,
                distance=None,
                window_distances=np.asarray(recent, dtype=np.float64),
                scored=final,
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _count_query(self, *, bounded: int, refined: int, solved: int) -> None:
        """Add one :meth:`Corpus.query` to the ``corpus_query`` counters."""
        with self._counts_lock:
            self._queries["queries"] += 1
            self._queries["bounded"] += bounded
            self._queries["refined"] += refined
            self._queries["solved"] += solved

    def _count_solves(self, counts: SolverCounts, cache_delta: dict | None = None) -> None:
        """Add one pair's or one pool chunk's solver work, and a chunk's
        worker cache counters, to the engine's."""
        with self._counts_lock:
            self._solver_counts.merge(counts)
            for name, member in (cache_delta or {}).items():
                mine = self._worker_caches.setdefault(name, {})
                for key, value in member.items():
                    mine[key] = mine.get(key, 0) + value

    def stats(self) -> dict:
        """Cache hierarchy counters plus engine/pool state (benchmark
        JSON-ready).

        One schema: a key in :data:`STATS_GAUGES` is a level, every other
        numeric leaf a monotone counter. ``/v1/metrics`` exports each leaf
        under its key (``repro.serve.metrics``) and ``--cache-stats``
        prints the ``"caches"`` dicts as they are. The ``"caches"`` counters
        include what pool workers' own caches counted, returned with each
        chunk's values; the gauges (``size``, ``nbytes``, ``capacity``,
        ...) are this process's caches only.

        The ``"network_simplex"`` block counts the solver work of this
        engine's pairs, wherever they ran: in this process or in a pool
        worker, which returns its counts with its values (see
        :class:`~repro.snd.fast.SolverCounts`). It splits solves and pivots
        cold vs warm (``cold_pivots_per_solve`` / ``warm_pivots_per_solve``
        — the headline temporal-locality numbers in ``BENCH_engine.json``).
        Per-solve diagnostics stay on each solve's ``plan.info``.
        ``slot_writes`` counts shared-matrix row writes — append-only
        slot assignment keeps it at the number of *distinct* states ever
        dispatched, not dispatches times states. ``corpus_query`` counts
        :meth:`Corpus.query` calls on this engine and the member pairs they
        bounded, refined (checked against the hop-aware bound) and solved
        exactly (solved < bounded when pruning works).
        """
        caches = self.caches.stats()
        with self._counts_lock:
            queries = dict(self._queries)
            solver_counts = self._solver_counts.snapshot()
            for name, member in self._worker_caches.items():
                for key, value in member.items():
                    caches[name][key] += value
        return {
            "caches": caches,
            "scheduler": self.scheduler.stats(),
            **solver_counts,
            "jobs": self.jobs,
            "pool_starts": self.pool_starts,
            "pool_alive": self._pool is not None,
            "shared_memory": self._shm is not None,
            "capacity": self._capacity,
            "slot_writes": self.slot_writes,
            "basis_cache_active": self.basis_cache is not None,
            "corpus_query": queries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SNDEngine(jobs={self.jobs}, "
            f"pool_starts={self.pool_starts}, capacity={self._capacity})"
        )


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #

#: :meth:`Corpus.query` prunes a member only when its lower bound exceeds
#: the k-th exact distance by more than this relative margin: the bound
#: sums its terms in another order than the solver, so a member tied with
#: the k-th value could otherwise be pruned on a last-bit overshoot.
BOUND_RTOL = 1e-9


class Corpus:
    """An appendable state corpus with an incrementally extended SND matrix.

    The §9 metric-space applications (search, clustering, classification)
    consume all-pairs distance matrices over corpora that *grow*:
    recomputing the matrix from scratch on every append wastes
    ``N·(N-1)/2`` solved pairs. A corpus keeps its matrix and solves only
    the ``k·N + k·(k-1)/2`` new pairs when ``k`` states arrive, through
    the engine's :class:`~repro.snd.cache.TransitionCache` — bit-identical
    to a from-scratch :meth:`SNDEngine.pairwise_matrix` because every pair
    runs the exact same per-pair pipeline and pairs are independent.

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> from repro.opinions import NetworkState
    >>> from repro.snd import SND, SNDEngine, Corpus
    >>> g = erdos_renyi_graph(30, 0.2, seed=1)
    >>> engine = SNDEngine(SND(g, n_clusters=2, seed=0), jobs=None)
    >>> states = [NetworkState.from_active_sets(30, positive=[k]) for k in range(3)]
    >>> corpus = Corpus(engine, states)
    >>> corpus.matrix.shape
    (3, 3)
    >>> corpus.extend([NetworkState.from_active_sets(30, positive=[9])]).shape
    (4, 4)
    """

    def __init__(self, engine: SNDEngine, states: Sequence[NetworkState] = ()) -> None:
        if not isinstance(engine, SNDEngine):
            # The caller owns the engine's pool and shared memory; a corpus
            # never starts one it could not close.
            raise ValidationError(
                f"Corpus needs an SNDEngine, got {type(engine).__name__}"
            )
        self.engine = engine
        # The members and their index (what SND.member_bounds reads of
        # them), replaced together so a query reads one consistent pair.
        self._members: tuple[list[NetworkState], BoundSides] = (
            [], engine.snd.bound_sides([]),
        )
        self._matrix = np.zeros((0, 0), dtype=np.float64)
        states = list(states)
        if states:
            self.extend(states)

    @property
    def _states(self) -> list[NetworkState]:
        return self._members[0]

    @property
    def states(self) -> list[NetworkState]:
        """The corpus members, append order preserved."""
        return list(self._states)

    def _add_members(self, new_states: list[NetworkState]) -> None:
        """Append *new_states* and their index rows."""
        states, index = self._members
        more = self.engine.snd.bound_sides(new_states, self.engine.caches)
        self._members = (states + new_states, index + more)

    @property
    def matrix(self) -> np.ndarray:
        """The current ``(N, N)`` pairwise SND matrix (a copy)."""
        return self._matrix.copy()

    def __len__(self) -> int:
        return len(self._states)

    def append(self, state: NetworkState) -> np.ndarray:
        """Add one state; solves exactly ``N`` new pairs."""
        return self.extend([state])

    def extend(self, new_states: Sequence[NetworkState]) -> np.ndarray:
        """Append *new_states*, extending the matrix incrementally.

        Only pairs touching a new state are solved (``k·N + k·(k-1)/2``
        fresh transitions through the engine's transition cache — its
        ``fresh`` counter makes that assertable); the existing ``N×N``
        block is copied verbatim. Returns the new matrix (a copy).
        """
        new_states = list(new_states)
        if not new_states:
            return self.matrix
        old_n = len(self._states)
        states = self._states + new_states
        n = len(states)
        transitions = self.engine.caches.transitions
        # Every pair of the extended matrix must fit in the cache at once:
        # with a smaller capacity, LRU eviction during seeding would chase
        # the probe order and silently re-solve old pairs (values stay
        # correct, work-avoidance doesn't). grow() never shrinks.
        transitions.grow(n * (n - 1) // 2)
        # Seed the cache with the already-solved block so the engine's
        # pairwise sweep only dispatches pairs touching a new state. The
        # counter-free membership probe keeps ``transitions.fresh`` equal
        # to the number of pairs actually solved.
        for i in range(old_n):
            for j in range(i + 1, old_n):
                if not transitions.contains(self._states[i], self._states[j]):
                    transitions.put(self._states[i], self._states[j], self._matrix[i, j])
        matrix = self.engine.pairwise_matrix(states, transitions=transitions)
        assert matrix.shape == (n, n)
        self._add_members(new_states)
        self._matrix = matrix
        return self.matrix

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, state: NetworkState, k: int = 1) -> list[tuple[int, float]]:
        """The *k* nearest corpus members to *state*: ``(index, distance)``
        pairs, nearest first (ties broken by index).

        The answer is exact, the same as solving *state* against every
        member and sorting, but found by bound-pruning. Every member gets
        a row-free lower bound (:meth:`~repro.snd.snd.SND.lower_bound`,
        which assumes no metric), all in one pass over the corpus's member
        index (:meth:`~repro.snd.snd.SND.member_bounds`). Members are
        solved exactly in bound order: the first *k* in one batch, then,
        round by round, every member whose bound is at most the current
        k-th exact distance. A member whose bound exceeds it by more than
        ``BOUND_RTOL`` cannot place and is never solved. Before a member is
        solved in a later round, its hop-aware bound
        (:meth:`~repro.snd.snd.SND.hop_bound`, from the pair's reductions)
        is checked against the k-th distance in the same way.
        ``engine.stats()["corpus_query"]`` counts the bounded, refined and
        solved pairs. The query reads the members as they stood when it
        began, whatever an :meth:`extend` running meanwhile adds.
        """
        members, index = self._members
        if not members:
            raise ValidationError("corpus is empty")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        engine = self.engine
        snd = engine.snd
        k = min(k, len(members))
        bounds = snd.member_bounds(state, index, engine.caches)
        # Stable: members with equal bounds are solved in index order.
        order = np.argsort(bounds, kind="stable")
        sorted_bounds = bounds[order]
        # (query, member) argument order is preserved through the
        # scheduler so values stay bit-identical to the per-pair loop.
        query_states = [state] + members
        exact: dict[int, float] = {}
        batch, seen, refined = order[:k].tolist(), k, 0
        while batch:
            values = engine.scheduler.evaluate(query_states, [(0, m + 1) for m in batch])
            exact.update(zip(batch, values))
            # <=, not <: a member tied with the k-th value may win on index.
            cut = sorted(exact.values())[k - 1] * (1 + BOUND_RTOL)
            end = int(np.searchsorted(sorted_bounds, cut, side="right"))
            # The k-th value only falls, so a member pruned now stays pruned.
            candidates = order[seen:end].tolist()
            seen = max(seen, end)
            refined += len(candidates)
            batch = [
                m for m in candidates
                if snd.hop_bound(snd.bound_terms(state, members[m], engine.caches)) <= cut
            ]
        engine._count_query(bounded=len(bounds), refined=refined, solved=len(exact))
        nearest = sorted(exact.items(), key=lambda item: (item[1], item[0]))[:k]
        return [(int(i), float(d)) for i, d in nearest]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, store, graph_name: str, corpus_name: str) -> int:
        """Persist states + matrix to an :class:`~repro.store.ExperimentStore`."""
        series = StateSeries(self._states) if self._states else None
        if series is None:
            raise ValidationError("cannot save an empty corpus")
        return store.save_corpus(graph_name, corpus_name, series, self._matrix)

    @classmethod
    def load(cls, store, engine: SNDEngine, graph_name: str, corpus_name: str) -> "Corpus":
        """Rehydrate a saved corpus; the stored matrix is trusted verbatim
        (it was produced by the same bit-identical pipeline)."""
        series, matrix = store.load_corpus(graph_name, corpus_name)
        corpus = cls(engine)
        corpus._add_members(list(series))
        corpus._matrix = np.asarray(matrix, dtype=np.float64).copy()
        return corpus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Corpus(n_states={len(self._states)}, engine={self.engine!r})"
