"""The engine scheduling layer: request queueing, dedup, and coalescing.

The serving workloads the paper motivates — anomaly monitoring over live
network states (§6.2), metric-space queries against growing corpora (§9) —
hit the SND stack with *many concurrent, heavily duplicated* pair
requests.  Before this module, every entry point
(:meth:`~repro.snd.engine.SNDEngine.evaluate_series`,
:meth:`~repro.snd.engine.SNDEngine.pairwise_matrix`, streaming, the
one-call batch methods) carried its own copy of the request plumbing: probe the
:class:`~repro.snd.cache.TransitionCache`, partition the missing pairs
into chunks, dispatch to the pool, fill the cache back in.

:class:`PairScheduler` extracts that plumbing into one layer that every
client shares:

* **Dedup against the transition cache** — each requested pair is probed
  against the (optional) :class:`~repro.snd.cache.TransitionCache` before
  any dispatch, preserving the cache's historical hit/miss ("fresh")
  counter semantics exactly.
* **Coalescing** — concurrent requests for the same (fingerprint-ordered)
  pair share one solve: requests arriving while a pair is in flight
  attach to the existing solve instead of re-dispatching it, and
  duplicate pairs inside one batch are solved once.  The ``coalesced`` /
  ``solved`` counters make this assertable the same way ``pool_starts``
  makes pool persistence assertable.
* **Batched chunk submission** — admitted pairs are split into contiguous
  chunks (:func:`_chunk_ranges`) and submitted to the engine's persistent
  pool; pool dispatch is serialized so concurrent clients can never race
  each other's rows in the shared-memory state matrix.
* **Bounded queue with backpressure** — at most ``max_pending`` unique
  pairs may be admitted (queued-or-solving) at once.  Further admissions
  block until solves release slots, fail fast (``block=False``), or time
  out — both failure modes raise
  :class:`~repro.exceptions.SchedulerSaturatedError`, which the serve
  tier maps to HTTP 503.

Exactness contract: the scheduler changes *when* and *how often* pairs
are solved, never *how* — every solve runs the engine's unchanged
per-pair pipeline, so values are bit-identical to the naive loop, and
coalesced requests receive the exact float the single solve produced.
Warm-start locality rides the same dispatch path for free: each
dispatched pair runs through the engine's shared
:class:`~repro.snd.cache.BasisCache`, so a pair temporally adjacent to an
earlier one (window shift, corpus append, the reverse terms of the same
pair) reuses its optimal spanning-tree basis inside the network-simplex
solver — contiguous chunking keeps those related pairs on the same
worker, where the per-process basis store can see them.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from repro.exceptions import (
    ClientSaturatedError,
    SchedulerSaturatedError,
    ValidationError,
)
from repro.opinions.state import NetworkState
from repro.snd.cache import TransitionCache

__all__ = [
    "DEFAULT_MAX_PENDING",
    "PRIORITY_WEIGHTS",
    "PairScheduler",
    "resolve_jobs",
]

#: Default bound on unique pairs admitted (queued or solving) at once.
#: Large enough that one-shot batch sweeps (series, moderate matrices)
#: fit in a single admission slice; small enough to bound memory and give
#: the serve tier a meaningful saturation signal.
DEFAULT_MAX_PENDING = 4096

#: Priority classes for per-client admission: the multiplier applied to
#: ``client_max_pending`` when computing a client's effective quota.
#: ``high`` clients may hold twice the base quota, ``low`` half (never
#: below 1); the global ``max_pending`` bound applies on top regardless.
PRIORITY_WEIGHTS: dict[str, float] = {"low": 0.5, "normal": 1.0, "high": 2.0}


# --------------------------------------------------------------------- #
# Work partitioning (extracted from the engine)
# --------------------------------------------------------------------- #


def _chunk_ranges(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``0..n_items`` into at most *n_chunks* contiguous ranges.

    Degenerate inputs are handled explicitly: ``n_items <= 0`` yields no
    ranges, and ``n_chunks`` is clamped to ``1..n_items`` (asking for more
    chunks than items never produces empty ranges).
    """
    if n_items <= 0:
        return []
    n_chunks = max(1, min(int(n_chunks), n_items))
    bounds = np.linspace(0, n_items, n_chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def resolve_jobs(jobs) -> int:
    """Normalise a ``jobs`` request to a worker count.

    ``"auto"`` sizes to the host: serial on single-CPU machines (where
    pool startup can only lose) and ``min(4, cpu_count)`` otherwise.
    ``None`` means serial.  Anything else must be a positive integer —
    ``0``, negative, and non-integer values are rejected here with a
    clear error instead of falling through to opaque pool-construction
    failures (``ProcessPoolExecutor(max_workers=0)`` raises a bare
    ``ValueError`` with no hint about which argument was wrong).
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs == "auto":
            cpus = os.cpu_count() or 1
            return 1 if cpus < 2 else min(4, cpus)
        raise ValidationError(
            f"jobs must be a positive integer, None, or 'auto', got {jobs!r}"
        )
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)):
        raise ValidationError(
            f"jobs must be a positive integer, None, or 'auto', got {jobs!r}"
        )
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


# --------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------- #


class _InFlight:
    """One pending solve; concurrent requests for its key attach here."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: float | None = None
        self.error: BaseException | None = None


class PairScheduler:
    """Request queue + dedup + coalescing in front of one engine's pool.

    Parameters
    ----------
    engine:
        The :class:`~repro.snd.engine.SNDEngine` whose pool (or serial
        per-pair path) executes admitted work.  The engine creates its own
        scheduler; every evaluation entry point routes through it.
    max_pending:
        Bound on unique pairs admitted (queued or solving) at once — the
        backpressure knob.
    client_max_pending:
        Optional per-client fairness quota: a bound on the pairs any one
        client identity may hold admitted at once, scaled by that
        client's priority class (:data:`PRIORITY_WEIGHTS`).  ``None``
        (the default) disables fairness caps entirely.  A client over
        its quota fails fast with
        :class:`~repro.exceptions.ClientSaturatedError` (HTTP 429 at the
        serve tier) instead of blocking, so a greedy client can never
        park the whole queue behind its own backlog.  Anonymous requests
        (``client=None``) are exempt — only identified clients are
        rationed.  Coalesced requests never consume quota: attaching to
        someone else's solve costs nothing.

    Thread safety: the scheduler is the one component that *must* be
    shared across threads (that is its point).  All queue state lives
    under one lock; pool dispatch is additionally serialized by a
    dedicated lock because the engine's shared-memory state matrix is
    (re)written per dispatch.

    Counters (all monotonic, exposed by :meth:`stats`):

    ``requested``
        Pair requests received.
    ``cache_answered``
        Requests answered from the transition cache before any dispatch.
    ``coalesced``
        Requests attached to an existing solve of the same
        fingerprint-ordered pair (in-flight from another thread, or a
        duplicate earlier in the same batch).
    ``solved``
        Fresh solves that returned a value (a batch that raised counts
        none).  With a shared transition cache, N concurrent requests for
        one pair contribute exactly 1.
    ``batches``
        Chunk submissions (serial runs count one batch per slice).
    ``rejected``
        Admissions refused by global backpressure (``block=False`` or
        timeout).
    ``client_rejected``
        Admissions refused by a per-client quota (fairness rejections;
        a strict subset of neither — disjoint from — ``rejected``).
    """

    def __init__(
        self,
        engine,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        client_max_pending: int | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValidationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if client_max_pending is not None and client_max_pending < 1:
            raise ValidationError(
                f"client_max_pending must be >= 1, got {client_max_pending}"
            )
        self.engine = engine
        self.max_pending = int(max_pending)
        self.client_max_pending = (
            None if client_max_pending is None else int(client_max_pending)
        )
        self._lock = threading.Lock()
        self._room = threading.Condition(self._lock)
        self._inflight: dict[tuple[bytes, bytes], _InFlight] = {}
        self._pending = 0
        self._dispatch_lock = threading.Lock()
        self._clients: dict[str, dict[str, int]] = {}
        self.requested = 0
        self.cache_answered = 0
        self.coalesced = 0
        self.solved = 0
        self.batches = 0
        self.rejected = 0
        self.client_rejected = 0
        self.peak_pending = 0

    def _client_entry(self, client: str) -> dict[str, int]:
        """Per-client counter record, created on first sight (lock held)."""
        entry = self._clients.get(client)
        if entry is None:
            entry = {
                "requested": 0,
                "cache_answered": 0,
                "coalesced": 0,
                "solved": 0,
                "rejected": 0,
                "pending": 0,
            }
            self._clients[client] = entry
        return entry

    def client_quota(self, priority: str) -> int | None:
        """Effective pending quota for *priority*, or ``None`` when
        fairness caps are disabled."""
        if priority not in PRIORITY_WEIGHTS:
            raise ValidationError(
                f"priority must be one of {sorted(PRIORITY_WEIGHTS)}, "
                f"got {priority!r}"
            )
        if self.client_max_pending is None:
            return None
        return max(1, int(self.client_max_pending * PRIORITY_WEIGHTS[priority]))

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #

    def submit(
        self,
        a: NetworkState,
        b: NetworkState,
        *,
        transitions: TransitionCache | None = None,
        block: bool = True,
        timeout: float | None = None,
        client: str | None = None,
        priority: str = "normal",
    ) -> float:
        """One pair through the full queue/dedup/coalesce path."""
        return self.evaluate(
            [a, b],
            [(0, 1)],
            transitions=transitions,
            block=block,
            timeout=timeout,
            client=client,
            priority=priority,
        )[0]

    def evaluate(
        self,
        states: Sequence[NetworkState],
        pairs: Sequence[tuple[int, int]],
        *,
        transitions: TransitionCache | None = None,
        block: bool = True,
        timeout: float | None = None,
        client: str | None = None,
        priority: str = "normal",
    ) -> list[float]:
        """Distances for index *pairs* over *states*, in request order.

        Each request is answered from, in order: the *transitions* cache
        (counting its historical hit/miss semantics — one probe per
        request), an in-flight or earlier-in-batch solve of the same
        fingerprint-ordered pair (coalesced), or a fresh solve batched
        into chunk submissions to the engine.  Admission of fresh pairs
        respects ``max_pending``; when the queue is full, admission
        blocks (``block=True``, optional *timeout* seconds) or raises
        :class:`~repro.exceptions.SchedulerSaturatedError`.

        *client* names the requesting identity for per-client accounting
        and (when ``client_max_pending`` is set) fairness quotas scaled
        by *priority*; an identified client over its quota fails fast
        with :class:`~repro.exceptions.ClientSaturatedError`.

        Values are bit-identical to
        ``[engine.distance(states[i], states[j]) for i, j in pairs]``.
        """
        quota = self.client_quota(priority)  # validates priority up front
        pairs = list(pairs)
        n = len(pairs)
        with self._lock:
            self.requested += n
            if client is not None:
                self._client_entry(client)["requested"] += n
        if n == 0:
            return []
        results: list[float | None] = [None] * n
        keys = [
            TransitionCache.key(states[i], states[j]) for i, j in pairs
        ]
        shared_waits: list[tuple[_InFlight, int]] = []
        pos = 0
        while pos < n:
            # One admission slice: classify requests under the lock until
            # the input is exhausted or backpressure stops admission.
            owned: list[tuple[tuple[bytes, bytes], tuple[int, int]]] = []
            owned_targets: dict[tuple[bytes, bytes], list[int]] = {}
            with self._room:
                record = None if client is None else self._client_entry(client)
                while pos < n:
                    i, j = pairs[pos]
                    key = keys[pos]
                    if transitions is not None:
                        cached = transitions.get(states[i], states[j])
                        if cached is not None:
                            results[pos] = float(cached)
                            self.cache_answered += 1
                            if record is not None:
                                record["cache_answered"] += 1
                            pos += 1
                            continue
                    targets = owned_targets.get(key)
                    if targets is not None:  # duplicate within this slice
                        targets.append(pos)
                        self.coalesced += 1
                        if record is not None:
                            record["coalesced"] += 1
                        pos += 1
                        continue
                    entry = self._inflight.get(key)
                    if entry is not None:  # another client is solving it
                        shared_waits.append((entry, pos))
                        self.coalesced += 1
                        if record is not None:
                            record["coalesced"] += 1
                        pos += 1
                        continue
                    if (
                        quota is not None
                        and record is not None
                        and record["pending"] >= quota
                    ):
                        if owned:
                            break  # solve what we hold; it frees our quota
                        # Fail fast rather than block: the quota exists so a
                        # backlogged client cannot park threads in the queue.
                        self.client_rejected += 1
                        record["rejected"] += 1
                        raise ClientSaturatedError(
                            f"client {client!r} is over its pending quota "
                            f"({record['pending']}/{quota} pairs pending at "
                            f"priority {priority!r})"
                        )
                    if self._pending >= self.max_pending:
                        if owned:
                            break  # solve what we hold; it frees room
                        if not block:
                            self.rejected += 1
                            if record is not None:
                                record["rejected"] += 1
                            raise SchedulerSaturatedError(
                                f"scheduler queue is full "
                                f"({self._pending}/{self.max_pending} pairs pending)"
                            )
                        if not self._room.wait_for(
                            lambda: self._pending < self.max_pending, timeout
                        ):
                            self.rejected += 1
                            if record is not None:
                                record["rejected"] += 1
                            raise SchedulerSaturatedError(
                                f"timed out after {timeout}s waiting for queue room "
                                f"({self._pending}/{self.max_pending} pairs pending)"
                            )
                        continue  # re-classify: the cache may now hold it
                    entry = _InFlight()
                    self._inflight[key] = entry
                    self._pending += 1
                    self.peak_pending = max(self.peak_pending, self._pending)
                    if record is not None:
                        record["pending"] += 1
                    owned.append((key, (i, j)))
                    owned_targets[key] = [pos]
                    pos += 1
            if not owned:
                continue
            try:
                values = self._solve(states, [pair for _, pair in owned])
            except BaseException as exc:
                self._publish(
                    owned, None, owned_targets, results, transitions, states, exc,
                    client=client,
                )
                raise
            self._publish(
                owned, values, owned_targets, results, transitions, states, None,
                client=client,
            )

        for entry, idx in shared_waits:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            results[idx] = entry.value
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _solve(
        self,
        states: Sequence[NetworkState],
        pairs: list[tuple[int, int]],
    ) -> list[float]:
        """Dispatch admitted *pairs* to the engine: in-process when the
        engine is serial or there is a single pair, otherwise chunked
        across its worker pool — the one place that decides where a batch
        runs."""
        engine = self.engine
        if engine.jobs <= 1 or len(pairs) <= 1:
            self.batches += 1
            values = engine._solve_pairs_local(states, pairs)
        else:
            chunks = [pairs[a:b] for a, b in _chunk_ranges(len(pairs), engine.jobs)]
            self.batches += len(chunks)
            # The engine (re)writes states into the shared-memory matrix per
            # dispatch, so concurrent dispatches must not interleave.
            with self._dispatch_lock:
                chunk_values = engine._dispatch_chunks(states, chunks)
            values = [value for chunk in chunk_values for value in chunk]
        self.solved += len(pairs)  # only pairs that were answered
        return values

    def _publish(
        self,
        owned: list[tuple[tuple[bytes, bytes], tuple[int, int]]],
        values: list[float] | None,
        owned_targets: dict[tuple[bytes, bytes], list[int]],
        results: list[float | None],
        transitions: TransitionCache | None,
        states: Sequence[NetworkState],
        error: BaseException | None,
        client: str | None = None,
    ) -> None:
        """Resolve owned entries: fill caches/results, wake waiters, free slots."""
        if error is None and transitions is not None:
            for (key, (i, j)), value in zip(owned, values):
                transitions.put(states[i], states[j], value)
        with self._room:
            record = None if client is None else self._client_entry(client)
            for slot, (key, _pair) in enumerate(owned):
                entry = self._inflight.pop(key)
                if error is None:
                    entry.value = float(values[slot])
                    for target in owned_targets[key]:
                        results[target] = entry.value
                else:
                    entry.error = error
                entry.event.set()
                self._pending -= 1
                if record is not None:
                    record["pending"] -= 1
                    if error is None:
                        record["solved"] += 1
            self._room.notify_all()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Unique pairs currently admitted (queued or solving)."""
        return self._pending

    def stats(self) -> dict:
        """Queue/coalescing counters (JSON-ready; the ``stats`` endpoint
        and ``SNDEngine.stats()`` embed this)."""
        with self._lock:
            clients = {
                name: dict(entry) for name, entry in self._clients.items()
            }
        return {
            "requested": self.requested,
            "cache_answered": self.cache_answered,
            "coalesced": self.coalesced,
            "solved": self.solved,
            "batches": self.batches,
            "rejected": self.rejected,
            "client_rejected": self.client_rejected,
            "pending": self._pending,
            "peak_pending": self.peak_pending,
            "max_pending": self.max_pending,
            "client_max_pending": self.client_max_pending,
            "clients": clients,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PairScheduler(pending={self._pending}/{self.max_pending}, "
            f"solved={self.solved}, coalesced={self.coalesced}, "
            f"cache_answered={self.cache_answered})"
        )
