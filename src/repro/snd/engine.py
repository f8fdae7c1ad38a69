"""The persistent SND engine: long-lived pools, corpora, and streaming.

The paper's online workloads — anomaly detection over arriving Twitter
states (§6.2) and metric-space search/clustering over growing corpora
(§9) — evaluate SND repeatedly against largely unchanged data. The batch
wrappers in :mod:`repro.snd.batch` rebuild their process pool on every
call and recompute pairwise matrices from scratch on every append; this
module makes the evaluate-as-states-arrive path first-class:

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

Exactness contract: every path funnels through the same
:func:`_pair_distance` per-pair pipeline as :meth:`SND.evaluate` (same
cost arrays, same solver, same summation order), so results are
bit-identical to the naive per-pair loop in every execution mode.

Scheduling — cache probing, request coalescing, chunking, and pool
dispatch — lives in :mod:`repro.snd.scheduler`; every engine entry point
is a client of the engine's own :class:`~repro.snd.scheduler.PairScheduler`.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.flow.network_simplex import SIMPLEX_METRICS
from repro.flow.sinkhorn_hybrid import HYBRID_METRICS
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState, StateSeries
from repro.snd.cache import (
    DEFAULT_CACHE_SIZE,
    CacheManager,
    GroundCostCache,
    TransitionCache,
)
from repro.snd.scheduler import (  # noqa: F401 - re-exported for compat
    DEFAULT_MAX_PENDING,
    PairScheduler,
    _chunk_ranges,
    _missing_runs,
    resolve_jobs,
)

__all__ = ["SNDEngine", "Corpus", "StreamUpdate", "resolve_jobs"]

#: Solvers whose per-term solves can consume a warm spanning-tree basis.
#: ``use_basis_cache="auto"`` activates the basis store for the pure
#: network-simplex solver and for ``solver="auto"`` (whose exact branch
#: is the network simplex — value-neutral by the warm-exactness contract);
#: ``use_basis_cache=True`` extends it to the sinkhorn-hybrid tier by
#: routing its restricted exact solve through the network simplex.
WARM_SOLVERS = ("network-simplex", "sinkhorn-hybrid")


# --------------------------------------------------------------------- #
# Single-pair evaluation through the caches
# --------------------------------------------------------------------- #


def _pair_distance(
    snd,
    a: NetworkState,
    b: NetworkState,
    cache: GroundCostCache,
    row_cache=None,
    basis_cache=None,
) -> float:
    """One Eq. 3 evaluation with ground costs drawn from *cache*.

    Term order and summation match :meth:`SND.evaluate` exactly so the
    result is bit-identical to the unbatched path; *row_cache* (optional)
    additionally reuses per-source Dijkstra rows across terms, which is
    value-preserving (rows are per-source deterministic). *basis_cache*
    (optional, warm-capable solvers only) keys each term's optimal
    spanning-tree basis by ``(fingerprint_supplier, fingerprint_consumer,
    opinion)`` so temporally adjacent pairs — window shifts, corpus
    appends, the reverse terms of this very pair — warm-start the network
    simplex; warm solves are exact, so this too is value-preserving.
    """
    ground, graph = snd.ground, snd.graph
    key_a, key_b = GroundCostCache.fingerprint(a), GroundCostCache.fingerprint(b)
    terms = (
        snd.term(
            a, b, POSITIVE,
            edge_costs=cache.edge_costs(ground, graph, a, POSITIVE),
            row_cache=row_cache, cost_key=(key_a, POSITIVE),
            basis_cache=basis_cache, basis_key=(key_a, key_b, POSITIVE),
        ),
        snd.term(
            a, b, NEGATIVE,
            edge_costs=cache.edge_costs(ground, graph, a, NEGATIVE),
            row_cache=row_cache, cost_key=(key_a, NEGATIVE),
            basis_cache=basis_cache, basis_key=(key_a, key_b, NEGATIVE),
        ),
        snd.term(
            b, a, POSITIVE,
            edge_costs=cache.edge_costs(ground, graph, b, POSITIVE),
            row_cache=row_cache, cost_key=(key_b, POSITIVE),
            basis_cache=basis_cache, basis_key=(key_b, key_a, POSITIVE),
        ),
        snd.term(
            b, a, NEGATIVE,
            edge_costs=cache.edge_costs(ground, graph, b, NEGATIVE),
            row_cache=row_cache, cost_key=(key_b, NEGATIVE),
            basis_cache=basis_cache, basis_key=(key_b, key_a, NEGATIVE),
        ),
    )
    return 0.5 * sum(terms)


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


def _init_engine_worker(snd, shm_name, shape, ground_size, row_size, basis_size=0) -> None:
    """Attach this worker to the engine's shared state matrix (once).

    *row_size* and *basis_size* of 0 disable the respective worker-local
    cache (the cache object still exists — content-keyed caches are
    per-process, so a worker's basis store warms only solves dispatched
    to that worker; chunk contiguity keeps related pairs together).
    """
    if shm_name is None:
        matrix = shape  # no shared memory available: *shape* is the matrix
    else:
        shm = _attach_shared_memory(shm_name)
        _ENGINE_WORKER["shm"] = shm  # keep the mapping alive
        matrix = np.ndarray(shape, dtype=np.int8, buffer=shm.buf)
    _ENGINE_WORKER["snd"] = snd
    _ENGINE_WORKER["matrix"] = matrix
    _ENGINE_WORKER["caches"] = CacheManager(
        ground_size=ground_size,
        row_size=max(1, row_size),
        basis_size=max(1, basis_size),
    )
    _ENGINE_WORKER["row_cache_enabled"] = row_size > 0
    _ENGINE_WORKER["basis_cache_enabled"] = basis_size > 0


def _engine_pairs_worker(pairs: list[tuple[int, int]]) -> list[float]:
    """Distances for explicit row-index pairs read from shared memory.

    States are rebuilt from row *copies* (a row is ``n`` int8 bytes —
    negligible next to one SND solve), so later overwrites of the shared
    slots by the parent can never alias into a result; the worker's
    content-keyed caches provide the actual reuse across tasks.
    """
    snd = _ENGINE_WORKER["snd"]
    matrix = _ENGINE_WORKER["matrix"]
    caches: CacheManager = _ENGINE_WORKER["caches"]
    row_cache = caches.rows if _ENGINE_WORKER["row_cache_enabled"] else None
    basis_cache = caches.bases if _ENGINE_WORKER["basis_cache_enabled"] else None
    local: dict[int, NetworkState] = {}

    def state(i: int) -> NetworkState:
        s = local.get(i)
        if s is None:
            s = NetworkState(matrix[i].copy())
            local[i] = s
        return s

    return [
        _pair_distance(snd, state(i), state(j), caches.ground, row_cache, basis_cache)
        for i, j in pairs
    ]


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
        The :class:`~repro.snd.snd.SND` instance to evaluate through.
    jobs:
        ``"auto"`` (default — serial on single-CPU hosts, up to 4 workers
        otherwise), an explicit worker count (>= 1), or ``None`` for
        serial.
    executor:
        ``"process"`` (default; shared-memory state matrix) or
        ``"thread"`` (workers share the engine caches directly).
    caches:
        A :class:`~repro.snd.cache.CacheManager` to draw from; defaults to
        the SND instance's own hierarchy so the engine, the batch
        wrappers, and single-pair calls all reuse one set of caches.
    use_row_cache:
        Reuse per-source Dijkstra rows across terms (on by default;
        value-preserving).
    use_basis_cache:
        Warm-start transportation solves from cached optimal bases.
        ``"auto"`` (default) activates the basis store when the SND
        instance solves with ``"network-simplex"`` (warm bases consumed
        natively, provably value-preserving) or with ``"auto"`` (whose
        exact branch is the network simplex, so temporally-local engine
        workloads warm-start without any opt-in). ``True`` additionally opts the
        ``"sinkhorn-hybrid"`` tier in (its restricted exact solve is then
        routed through the network simplex; same support, so certified
        error bounds are unchanged). ``False`` disables warm-starting.
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
    where the batch wrappers would show two.

    Every evaluation entry point routes through ``self.scheduler``, so
    concurrent callers sharing one engine get their duplicate pairs
    coalesced into single solves (assertable via ``scheduler.stats()``).
    """

    def __init__(
        self,
        snd,
        *,
        jobs="auto",
        executor: str = "process",
        caches: CacheManager | None = None,
        use_row_cache: bool = True,
        use_basis_cache: "bool | str" = "auto",
        max_pending: int = DEFAULT_MAX_PENDING,
        client_max_pending: int | None = None,
    ) -> None:
        if executor not in ("process", "thread"):
            raise ValidationError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        if use_basis_cache not in (True, False, "auto"):
            raise ValidationError(
                f"use_basis_cache must be True, False or 'auto', "
                f"got {use_basis_cache!r}"
            )
        self.snd = snd
        self.jobs = resolve_jobs(jobs)
        self.executor = executor
        self.caches = caches if caches is not None else snd.caches
        self.use_row_cache = use_row_cache
        self.use_basis_cache = use_basis_cache
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
            ground_size = max(self.caches.ground.maxsize, 2 * self._capacity)
            row_size = self.caches.rows.maxsize if self.use_row_cache else 0
            basis_size = (
                self.caches.bases.maxsize if self._basis_cache() is not None else 0
            )
            init_matrix = None if shm_name is not None else self._matrix
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_engine_worker,
                initargs=(
                    self.snd,
                    shm_name,
                    shape if shm_name is not None else init_matrix,
                    ground_size,
                    row_size,
                    basis_size,
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

    def _ensure_thread_pool(self):
        if self._closed:
            raise ValidationError("engine is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.jobs)
            self.pool_starts += 1
        return self._pool

    # ------------------------------------------------------------------ #
    # Core pair evaluation
    # ------------------------------------------------------------------ #

    def _row_cache(self):
        return self.caches.rows if self.use_row_cache else None

    def _basis_cache(self):
        """The engine's warm-start basis store, or ``None`` when inactive.

        Activation is solver-gated (see ``use_basis_cache``): warm hints
        are only consumed by :data:`WARM_SOLVERS`, and under ``"auto"``
        only by warm-exact routes — the pure network simplex and the
        ``"auto"`` solver, whose exact branch
        (:func:`repro.flow.select_transport_method`) is the network simplex.
        """
        mode = self.use_basis_cache
        if mode is False:
            return None
        solver = getattr(self.snd, "solver", None)
        active = (
            solver in ("network-simplex", "auto")
            if mode == "auto"
            else solver in WARM_SOLVERS + ("auto",)
        )
        return self.caches.bases if active else None

    def _pair(self, a: NetworkState, b: NetworkState) -> float:
        """One serial pair evaluation through the engine caches."""
        return _pair_distance(
            self.snd, a, b, self.caches.ground, self._row_cache(), self._basis_cache()
        )

    def distance(self, a: NetworkState, b: NetworkState) -> float:
        """SND between two states through the engine's cache hierarchy."""
        return self._pair(a, b)

    def _solve_pairs_local(
        self,
        states: Sequence[NetworkState],
        pairs: Sequence[tuple[int, int]],
    ) -> list[float]:
        """Serial in-process solve of index *pairs* over *states*."""
        row_cache = self._row_cache()
        basis_cache = self._basis_cache()
        return [
            _pair_distance(
                self.snd, states[i], states[j], self.caches.ground, row_cache,
                basis_cache,
            )
            for i, j in pairs
        ]

    def _dispatch_chunks(
        self,
        states: Sequence[NetworkState],
        chunks: list[list[tuple[int, int]]],
    ) -> list[list[float]]:
        """Dispatch pre-chunked index pairs to the persistent pool.

        Callers (the scheduler) must serialize dispatches: the process
        path rewrites *states* into the shared matrix rows, so two
        concurrent dispatches would clobber each other's slots. Chunks
        are expected to be contiguous-ish so worker caches keep supplier
        states hot.
        """
        if self.executor == "thread":
            pool = self._ensure_thread_pool()
            row_cache = self._row_cache()
            basis_cache = self._basis_cache()

            def run(chunk: list[tuple[int, int]]) -> list[float]:
                return [
                    _pair_distance(
                        self.snd, states[i], states[j], self.caches.ground, row_cache,
                        basis_cache,
                    )
                    for i, j in chunk
                ]

            return list(pool.map(run, chunks))
        pool, slot_of = self._ensure_process_pool(states)
        # Translate caller indices to shared-matrix slots: append-only
        # assignment means a state's slot is stable across dispatches, not
        # necessarily equal to its position in *states*.
        slot_chunks = [[(slot_of[i], slot_of[j]) for i, j in chunk] for chunk in chunks]
        return list(pool.map(_engine_pairs_worker, slot_chunks))

    def _evaluate_pairs(
        self,
        states: Sequence[NetworkState],
        chunks: list[list[tuple[int, int]]],
    ) -> list[list[float]]:
        """Distances for pre-chunked index pairs over *states*.

        Serial when the engine is serial or there is a single tiny chunk;
        otherwise dispatched to the persistent pool.
        """
        n_pairs = sum(len(c) for c in chunks)
        if self.jobs <= 1 or n_pairs <= 1:
            return [self._solve_pairs_local(states, chunk) for chunk in chunks]
        return self._dispatch_chunks(states, chunks)

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

        Values are bit-identical to ``[snd.distance(a, b) for a, b in
        series.transitions()]`` in every mode.
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
        jobs=None,
    ) -> np.ndarray:
        """Symmetric ``(N, N)`` SND matrix over *states*, upper triangle only.

        Eq. 3 is symmetric by construction, so only the ``N·(N-1)/2``
        pairs ``i < j`` are evaluated and mirrored; the diagonal is
        exactly 0. The ground cache is grown to hold ``2·N`` cost arrays
        so each state's two arrays are built once. *transitions*
        (optional) answers already-solved pairs from the cache before any
        dispatch — the lever behind :meth:`Corpus.extend`. *jobs*
        overrides the engine's worker count for this call only (it cannot
        exceed the persistent pool's size).
        """
        states = list(states)
        n = len(states)
        out = np.zeros((n, n), dtype=np.float64)
        if n < 2:
            return out
        self.caches.ensure_ground_capacity(max(DEFAULT_CACHE_SIZE, 2 * n))

        # Pairs are emitted grouped by row, so the scheduler's contiguous
        # chunks keep the supplier-side cost arrays hot in each worker.
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        values = self.scheduler.evaluate(
            states, pairs, transitions=transitions, jobs=jobs
        )
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

    def stats(self) -> dict:
        """Cache hierarchy counters plus engine/pool state (benchmark
        JSON-ready).

        The ``"hybrid"`` block aggregates the sinkhorn-hybrid solver's
        per-solve diagnostics (support density, certified error bounds);
        the ``"network_simplex"`` block aggregates the warm-startable
        simplex tier's pivot counters, split cold vs warm
        (``cold_pivots_per_solve`` / ``warm_pivots_per_solve`` — the
        headline temporal-locality numbers in ``BENCH_engine.json``).
        Both are process-local: serial and thread executors are covered
        fully; process workers accumulate in-worker and this snapshot
        then only reflects solves that ran in the engine's own process.
        ``slot_writes`` counts shared-matrix row writes — append-only
        slot assignment keeps it at the number of *distinct* states ever
        dispatched, not dispatches times states.
        """
        return {
            "caches": self.caches.stats(),
            "scheduler": self.scheduler.stats(),
            "hybrid": HYBRID_METRICS.snapshot(),
            "network_simplex": SIMPLEX_METRICS.snapshot(),
            "jobs": self.jobs,
            "executor": self.executor,
            "pool_starts": self.pool_starts,
            "pool_alive": self._pool is not None,
            "shared_memory": self._shm is not None,
            "capacity": self._capacity,
            "slot_writes": self.slot_writes,
            "basis_cache_active": self._basis_cache() is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SNDEngine(jobs={self.jobs}, executor={self.executor!r}, "
            f"pool_starts={self.pool_starts}, capacity={self._capacity})"
        )


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #


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
            engine = SNDEngine(engine)  # accept a bare SND for convenience
        self.engine = engine
        self._states: list[NetworkState] = []
        self._matrix = np.zeros((0, 0), dtype=np.float64)
        states = list(states)
        if states:
            self.extend(states)

    @property
    def states(self) -> list[NetworkState]:
        """The corpus members, append order preserved."""
        return list(self._states)

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
        self._states = states
        self._matrix = matrix
        return self.matrix

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, state: NetworkState, k: int = 1) -> list[tuple[int, float]]:
        """The *k* nearest corpus members to *state*: ``(index, distance)``
        pairs, nearest first (ties broken by index)."""
        if not self._states:
            raise ValidationError("corpus is empty")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        # (query, member) argument order is preserved through the
        # scheduler so values stay bit-identical to the per-pair loop.
        query_states = [state] + self._states
        query_pairs = [(0, m + 1) for m in range(len(self._states))]
        distances = np.array(self.engine.scheduler.evaluate(query_states, query_pairs))
        order = np.argsort(distances, kind="stable")[: min(k, len(self._states))]
        return [(int(i), float(distances[i])) for i in order]

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
        corpus._states = list(series)
        corpus._matrix = np.asarray(matrix, dtype=np.float64).copy()
        return corpus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Corpus(n_states={len(self._states)}, engine={self.engine!r})"
