"""The in-process distance service: named corpora over engine shards.

:class:`SNDService` is the single implementation of every serving
operation; the ``repro-snd`` CLI subcommands and the HTTP server in
:mod:`repro.serve.http` are both thin clients of it, so a one-shot CLI
invocation and a long-lived server request run the exact same code path
(and therefore produce bit-identical values — the scheduler and engine
underneath carry the repo-wide exactness contract).

Layout
------
One :class:`EngineShard` per graph name.  A shard owns the graph, its
saved series, a :class:`~repro.distances.DistanceContext` (so non-SND
measures work too), a lazily created persistent
:class:`~repro.snd.engine.SNDEngine` sharing the SND instance's unified
cache hierarchy and shared-memory state matrix, and the corpora loaded
for that graph.  Every SND operation — pair, series, matrix, watch and
corpus — runs on that one engine and funnels through its
:class:`~repro.snd.scheduler.PairScheduler`, which is what makes the
service safe to hammer from many threads (duplicate concurrent requests
for one pair coalesce into a single solve) and puts every request in the
shard's counters.  The engine's worker count is ``EngineConfig.jobs``;
no request can change it.

The SQLite store is opened fresh per operation (connections are pinned
to their creating thread), so service methods may run on any executor
thread.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.opinions.state import NetworkState
from repro.serve.config import EngineConfig

__all__ = ["SNDService", "EngineShard"]


class EngineShard:
    """Everything the service holds for one named graph.

    Created lazily by :meth:`SNDService.shard` on first use of the name;
    the engine (and its worker pool / shared-memory matrix) is created
    even more lazily, on the first SND operation.

    When the service config enables ``persist_transitions`` (the
    default), the first SND build warms the shard's
    :class:`~repro.snd.cache.TransitionCache` from the store's
    ``transition_cache`` table (counter-neutral seeding — ``fresh`` keeps
    counting only this process's solves), and :meth:`flush_transitions`
    spills the cache back.  A restarted server therefore answers a
    previously-served trace entirely from cache: ``solved == 0``,
    ``cache_answered == requested``.
    """

    def __init__(self, service: "SNDService", graph_name: str) -> None:
        from repro.distances import DistanceContext

        self.service = service
        self.graph_name = graph_name
        with service._open_store() as store:
            self.graph = store.load_graph(graph_name)
            self.series = store.load_series(graph_name, "series")
        self.context = DistanceContext(graph=self.graph)
        self.corpora: dict = {}
        self._engine = None
        self._lock = threading.Lock()
        self.transitions_loaded = 0
        self.transitions_persisted = 0
        self.flush_failures = 0
        self._warmed = False
        # (size, fresh) snapshot at the last successful flush: an
        # unchanged cache skips the store round-trip entirely.
        self._last_flush_state: tuple[int, int] | None = None
        # One flush at a time, so a snapshot is written and recorded once;
        # it also guards the two flush counters.
        self._flush_lock = threading.Lock()

    def ensure_snd(self):
        """The shard's SND instance (created on first SND use, mirroring
        the CLI's measure-gated construction so non-SND operations never
        build one).  First creation also warms the transition cache from
        the store and applies the configured cache memory budget."""
        config = self.service.config
        snd = self.context.ensure_snd(**config.snd_kwargs())
        with self._lock:
            if not self._warmed:
                self._warmed = True
                if config.memory_budget is not None:
                    snd.caches.memory_budget = config.memory_budget
                if config.persist_transitions:
                    with self.service._open_store() as store:
                        rows = store.load_transitions(self.graph_name)
                    if rows:
                        self.transitions_loaded = snd.caches.transitions.seed_rows(rows)
                        self._last_flush_state = (
                            len(snd.caches.transitions),
                            snd.caches.transitions.fresh,
                        )
        return snd

    def engine(self):
        """The shard's one persistent engine, created on first use from
        the service config's ``engine_kwargs()`` (so its worker count is
        ``EngineConfig.jobs``, fixed for the shard's lifetime)."""
        snd = self.ensure_snd()
        with self._lock:
            if self._engine is None:
                self._engine = snd.create_engine(
                    **self.service.config.engine_kwargs()
                )
            return self._engine

    def flush_transitions(self) -> int:
        """Spill the transition cache to the store (if dirty).

        Returns the number of rows written (0 when persistence is off,
        no SND instance exists yet, or nothing changed since the last
        flush — the ``(size, fresh)`` snapshot makes periodic flushing
        nearly free on an idle server).  Upsert semantics in the store
        make re-flushing overlapping snapshots idempotent.

        The snapshot is recorded only once the write succeeds: a write
        that raises counts one ``flush_failures`` and re-raises, and the
        next flush (periodic, or :meth:`close`) writes the rows again.
        """
        if not self.service.config.persist_transitions:
            return 0
        snd = self.context.snd
        if snd is None or snd._caches is None:
            return 0
        transitions = snd.caches.transitions
        with self._flush_lock:
            state = (len(transitions), transitions.fresh)
            if state == self._last_flush_state:
                return 0
            rows = transitions.export_rows()
            written = 0
            if rows:
                try:
                    with self.service._open_store() as store:
                        written = store.save_transitions(self.graph_name, rows)
                except Exception:
                    self.flush_failures += 1
                    raise
            self._last_flush_state = state
            self.transitions_persisted += written
        return written

    def corpus(self, corpus_name: str, *, reload: bool = False):
        """The named corpus, loaded from the store through the shard
        engine (cached across calls unless *reload*)."""
        from repro.snd.engine import Corpus

        with self._lock:
            cached = self.corpora.get(corpus_name)
        if cached is not None and not reload:
            return cached
        engine = self.engine()
        with self.service._open_store() as store:
            corpus = Corpus.load(store, engine, self.graph_name, corpus_name)
        with self._lock:
            self.corpora[corpus_name] = corpus
        return corpus

    def stats(self) -> dict:
        """Cache + scheduler + pool counters for this shard (engine stats
        when the engine exists, bare cache stats before that)."""
        with self._lock:
            engine = self._engine
        if engine is not None:
            payload = engine.stats()
        else:
            payload = {"caches": self.context.cache_stats()}
        payload = dict(payload)
        payload["n_states"] = len(self.series)
        payload["corpora"] = sorted(self.corpora)
        payload["transitions_loaded"] = self.transitions_loaded
        payload["transitions_persisted"] = self.transitions_persisted
        payload["flush_failures"] = self.flush_failures
        return payload

    def close(self) -> None:
        try:
            self.flush_transitions()
        finally:
            with self._lock:
                engine, self._engine = self._engine, None
            if engine is not None:
                engine.close()


def _each(shards, method) -> list:
    """``method(shard)`` for every shard, even after one raises (a store
    write that fails for one shard must not skip the others); the first
    exception is re-raised at the end."""
    results, failure = [], None
    for shard in shards:
        try:
            results.append(method(shard))
        except Exception as exc:
            failure = failure or exc
    if failure is not None:
        raise failure
    return results


class SNDService:
    """Named-corpus distance service over one experiment store.

    Parameters
    ----------
    store_path:
        Path of the :class:`~repro.store.ExperimentStore` holding the
        graphs, series, and corpora to serve.
    config:
        An :class:`~repro.serve.config.EngineConfig` consolidating every
        construction knob — SND (``clusters`` / ``solver`` / ``seed``),
        engine (``jobs`` / ``memory_budget``), scheduler (``max_pending`` /
        ``client_max_pending``), and persistence
        (``persist_transitions`` / ``flush_interval``).  ``None`` means
        all defaults.  With ``solver="network-simplex"`` each shard's
        engine warm-starts repeat solves from its shared basis cache,
        which pays off on exactly the serving access patterns — repeated
        windows and growing corpora (see :mod:`repro.flow.network_simplex`).
    """

    def __init__(self, store_path: str, *, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self.store_path = store_path
        self._shards: dict[str, EngineShard] = {}
        self._shards_lock = threading.Lock()
        # Per-measure request counters (bake-off observability): every
        # distance-serving entry point bumps its measure, so traffic mixes
        # show up in stats()/"measures" -> /v1/metrics and --cache-stats.
        self._measure_requests: dict[str, int] = {}
        self._measures_lock = threading.Lock()

    def _count_measure(self, measure: str) -> None:
        with self._measures_lock:
            self._measure_requests[measure] = (
                self._measure_requests.get(measure, 0) + 1
            )

    def measure_requests(self) -> dict[str, int]:
        """Snapshot of requests served per distance measure."""
        with self._measures_lock:
            return dict(self._measure_requests)

    def _open_store(self):
        from repro.store import ExperimentStore

        return ExperimentStore(self.store_path)

    # ------------------------------------------------------------------ #
    # Shards
    # ------------------------------------------------------------------ #

    def shard(self, graph_name: str) -> EngineShard:
        """The shard for *graph_name*, loading it on first use."""
        with self._shards_lock:
            shard = self._shards.get(graph_name)
            if shard is None:
                shard = EngineShard(self, graph_name)
                self._shards[graph_name] = shard
            return shard

    def names(self) -> list[str]:
        """Graph names currently loaded as shards."""
        with self._shards_lock:
            return sorted(self._shards)

    def list_corpora(self, graph_name: str | None = None) -> list[tuple]:
        """``(graph, corpus, n_states)`` rows from the store."""
        with self._open_store() as store:
            return store.list_corpora(graph_name)

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #

    def series_distances(
        self,
        graph_name: str,
        *,
        measure: str = "snd",
        window: int | None = None,
    ) -> np.ndarray:
        """Adjacent-state distances over the shard's saved series.

        SND runs on the shard engine (*window* selects its incremental
        sliding-window sweep); other measures run the registry's generic
        loop, for which *window* changes nothing.  Only SND builds an SND
        instance, so ``--cache-stats`` can truthfully report none for
        baselines."""
        from repro.distances import default_registry

        shard = self.shard(graph_name)
        self._count_measure(measure)
        if measure == "snd":
            return shard.engine().evaluate_series(shard.series, window=window)
        return default_registry().series(measure, shard.series, shard.context)

    def matrix(self, graph_name: str, *, measure: str = "snd") -> np.ndarray:
        """All-pairs distance matrix over the shard's saved series (SND on
        the shard engine, other measures through the registry)."""
        from repro.distances import default_registry

        shard = self.shard(graph_name)
        self._count_measure(measure)
        if measure == "snd":
            return shard.engine().pairwise_matrix(shard.series)
        return default_registry().pairwise(measure, shard.series, shard.context)

    def distance_pair(
        self,
        graph_name: str,
        i: int,
        j: int,
        *,
        client: str | None = None,
        priority: str | None = None,
    ) -> float:
        """SND between series states *i* and *j*, through the shard
        engine's scheduler and transition cache — the endpoint behind
        ``POST /v1/distance``, and the one that coalesces duplicate
        bursts.  *client* / *priority* identify the requester for the
        scheduler's per-client accounting and fairness quotas (the HTTP
        layer forwards ``X-Client`` / ``X-Priority`` headers here; the
        CLI forwards ``--client`` / ``--priority`` flags)."""
        shard = self.shard(graph_name)
        series = shard.series
        for idx in (i, j):
            if not 0 <= idx < len(series):
                raise ValidationError(
                    f"state index {idx} out of range [0, {len(series) - 1}]"
                )
        engine = shard.engine()
        if client is None:
            client = self.config.client
        if priority is None:
            priority = self.config.priority
        self._count_measure("snd")
        return engine.scheduler.submit(
            series[i],
            series[j],
            transitions=engine.caches.transitions,
            client=client,
            priority=priority,
        )

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def watch(
        self,
        graph_name: str,
        *,
        window: int | None = 10,
        threshold: float | None = None,
        states: Sequence[NetworkState] | None = None,
    ) -> Iterator:
        """Stream the shard's series (or *states*) through the engine,
        yielding :class:`~repro.snd.engine.StreamUpdate` objects with
        online anomaly scores — the ``watch`` CLI/HTTP surface."""
        from repro.analysis.anomaly import StreamingAnomalyDetector

        shard = self.shard(graph_name)
        engine = shard.engine()
        detector = StreamingAnomalyDetector(threshold=threshold)
        source = shard.series if states is None else states
        self._count_measure("snd")
        return engine.stream(source, window=window, detector=detector)

    # ------------------------------------------------------------------ #
    # Corpora
    # ------------------------------------------------------------------ #

    def corpus_build(
        self,
        graph_name: str,
        corpus_name: str,
        *,
        first: int | None = None,
    ) -> dict:
        """Build a corpus from the saved series' states and persist it."""
        from repro.snd.engine import Corpus

        shard = self.shard(graph_name)
        engine = shard.engine()
        states = list(shard.series)
        if first is not None:
            states = states[:first]
        corpus = Corpus(engine, states)
        with self._open_store() as store:
            corpus.save(store, graph_name, corpus_name)
        with shard._lock:
            shard.corpora[corpus_name] = corpus
        n = len(corpus)
        return {"corpus": corpus_name, "n_states": n, "pairs_solved": n * (n - 1) // 2}

    def corpus_extend(
        self,
        graph_name: str,
        corpus_name: str,
        *,
        take: int = 1,
    ) -> dict:
        """Append the next *take* series states to the corpus, solving
        only the new pairs (counter-asserted via the transition cache)."""
        shard = self.shard(graph_name)
        corpus = shard.corpus(corpus_name)
        old_n = len(corpus)
        new_states = list(shard.series)[old_n : old_n + take]
        if not new_states:
            return {
                "corpus": corpus_name,
                "old_n": old_n,
                "n_states": old_n,
                "added": 0,
                "solved": 0,
                "series_states": len(shard.series),
            }
        engine = corpus.engine
        before = engine.caches.transitions.fresh
        corpus.extend(new_states)
        solved = engine.caches.transitions.fresh - before
        with self._open_store() as store:
            corpus.save(store, graph_name, corpus_name)
        return {
            "corpus": corpus_name,
            "old_n": old_n,
            "n_states": len(corpus),
            "added": len(new_states),
            "solved": solved,
            "series_states": len(shard.series),
        }

    def corpus_query(
        self,
        graph_name: str,
        corpus_name: str,
        state_index: int,
        *,
        k: int = 3,
    ) -> list[tuple[int, float]]:
        """The *k* nearest corpus members to series state *state_index*."""
        shard = self.shard(graph_name)
        if not 0 <= state_index < len(shard.series):
            raise ValidationError(
                f"state index {state_index} out of range "
                f"[0, {len(shard.series) - 1}]"
            )
        corpus = shard.corpus(corpus_name)
        return corpus.query(shard.series[state_index], k=k)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def cache_stats(self, graph_name: str) -> dict | None:
        """The shard's unified-cache counters, pool workers' included
        (``stats()["caches"]``, the ``--cache-stats`` surface; ``None``
        when no SND instance was used)."""
        return self.shard(graph_name).stats()["caches"]

    def stats(self) -> dict:
        """Service-wide counters: one entry per loaded shard (cache
        hierarchy + scheduler + pool state + persistence counters) — the
        ``stats`` endpoint, and the tree
        :func:`repro.serve.metrics.samples_from_stats` translates into
        Prometheus samples for ``/v1/metrics``."""
        with self._shards_lock:
            shards = dict(self._shards)
        return {
            "store": self.store_path,
            "config": self.config.to_dict(),
            "measures": self.measure_requests(),
            "shards": {name: shard.stats() for name, shard in shards.items()},
        }

    def flush(self) -> int:
        """Spill every shard's transition cache to the store; returns the
        total rows written (the HTTP server calls this periodically, and
        :meth:`close` calls it on the way out)."""
        with self._shards_lock:
            shards = list(self._shards.values())
        return sum(_each(shards, EngineShard.flush_transitions))

    def close(self) -> None:
        """Flush transition caches, then close every shard engine
        (idempotent, like the engines)."""
        with self._shards_lock:
            shards, self._shards = list(self._shards.values()), {}
        _each(shards, EngineShard.close)

    def __enter__(self) -> "SNDService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
