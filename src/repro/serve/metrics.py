"""Stdlib-only Prometheus metrics registry for the serving tier.

The paper's target deployment — continuous anomaly monitoring over live
opinion series (PAPER.md §VI) — is only operable if the serving process
is observable: operators need to see cache efficacy, coalescing rates,
saturation, and latency without attaching a debugger.  This module
provides that spine with zero new dependencies: a tiny metric registry
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`) whose
:func:`render` emits the Prometheus *text exposition format 0.0.4*
(``# HELP`` / ``# TYPE`` lines, ``name{label="value"} sample`` rows,
cumulative ``_bucket{le=...}`` histogram rows) that any Prometheus
scraper, ``promtool``, or a human with ``curl`` can read.

The design splits metrics into two kinds:

* **Live HTTP metrics** (:class:`ServeMetrics`) — per-route request
  counters and latency histograms, recorded by the HTTP server as each
  request finishes.  These are genuine registry instruments because the
  HTTP layer is the only place the observations exist.
* **Snapshot metrics** (:func:`samples_from_stats`) — everything the
  engine stack already counts (scheduler, caches, solver metric
  families, persistence).  Rather than double-book those counters into
  registry objects (and risk drift), each scrape converts the existing
  ``SNDService.stats()`` tree into metric samples on the fly.  One
  schema therefore serves the ``/v1/metrics`` scrape, the CLI
  ``--cache-stats`` path, and benchmark JSON — they all read the same
  stats tree this module translates.

Metric naming matches the stats-tree keys (snake_case, ``_total`` suffix
on monotonic counters) so a Grafana query and a ``stats()`` lookup use
the same vocabulary; ``docs/serving.md`` carries the reference table.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable, Iterator

from repro.exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Sample",
    "ServeMetrics",
    "samples_from_stats",
    "render_samples",
    "CONTENT_TYPE",
]

#: The Content-Type a compliant scraper expects for text format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds) for HTTP request histograms: tuned
#: for a solver service whose responses range from sub-millisecond cache
#: hits to multi-second cold matrix solves.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote, and newline must be backslash-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``, floats
    via ``repr`` (full precision), infinities as ``+Inf``/``-Inf``."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + parts + "}"


class Sample:
    """One exposition row: ``name{labels} value`` plus family metadata.

    ``mtype`` is the family's ``# TYPE`` (counter / gauge / histogram —
    histogram *component* rows such as ``_bucket`` carry the family name
    in ``family`` so grouping still works).
    """

    __slots__ = ("family", "name", "labels", "value", "help", "mtype")

    def __init__(
        self,
        family: str,
        name: str,
        labels: dict[str, str] | None,
        value: float,
        help: str,
        mtype: str,
    ) -> None:
        self.family = family
        self.name = name
        self.labels = labels
        self.value = value
        self.help = help
        self.mtype = mtype

    def line(self) -> str:
        return f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"


def render_samples(samples: Iterable[Sample]) -> str:
    """Assemble exposition text: families grouped, each preceded by one
    ``# HELP`` / ``# TYPE`` pair, in first-seen order."""
    by_family: dict[str, list[Sample]] = {}
    meta: dict[str, tuple[str, str]] = {}
    for sample in samples:
        by_family.setdefault(sample.family, []).append(sample)
        meta.setdefault(sample.family, (sample.help, sample.mtype))
    out: list[str] = []
    for family, rows in by_family.items():
        help_text, mtype = meta[family]
        out.append(f"# HELP {family} {help_text}")
        out.append(f"# TYPE {family} {mtype}")
        out.extend(row.line() for row in rows)
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------- #
# Live instruments
# --------------------------------------------------------------------- #


class Counter:
    """A monotonically increasing counter with optional labels.

    Label sets are materialised lazily on first increment; ``collect()``
    yields one sample per label set seen so far.
    """

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        if not name.endswith("_total"):
            raise ValidationError(
                f"counter names must end in '_total', got {name!r}"
            )
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValidationError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValidationError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def collect(self) -> Iterator[Sample]:
        with self._lock:
            items = list(self._values.items())
        for key, value in items:
            labels = dict(zip(self.labelnames, key))
            yield Sample(self.name, self.name, labels, value, self.help, "counter")


class Gauge:
    """A value that can go up and down (queue depths, sizes, budgets)."""

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            self._values[key] = float(value)

    def collect(self) -> Iterator[Sample]:
        with self._lock:
            items = list(self._values.items())
        for key, value in items:
            labels = dict(zip(self.labelnames, key))
            yield Sample(self.name, self.name, labels, value, self.help, "gauge")


class Histogram:
    """A cumulative-bucket histogram (the Prometheus shape).

    Emits ``<name>_bucket{le="..."}`` rows (cumulative, including the
    mandatory ``le="+Inf"``), ``<name>_sum``, and ``<name>_count``.
    """

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValidationError("histograms need at least one bucket bound")
        self._lock = threading.Lock()
        # key -> (per-bucket counts, sum, count)
        self._series: dict[tuple[str, ...], list] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * len(self.buckets), 0.0, 0]
                self._series[key] = series
            counts, _total, _n = series
            for idx, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[idx] += 1
            series[1] += float(value)
            series[2] += 1

    def collect(self) -> Iterator[Sample]:
        with self._lock:
            items = [
                (key, (list(counts), total, n))
                for key, (counts, total, n) in self._series.items()
            ]
        for key, (counts, total, n) in items:
            base = dict(zip(self.labelnames, key))
            cumulative = 0
            for idx, bound in enumerate(self.buckets):
                cumulative = counts[idx]
                yield Sample(
                    self.name,
                    f"{self.name}_bucket",
                    {**base, "le": _format_value(bound)},
                    cumulative,
                    self.help,
                    "histogram",
                )
            yield Sample(
                self.name,
                f"{self.name}_bucket",
                {**base, "le": "+Inf"},
                n,
                self.help,
                "histogram",
            )
            yield Sample(self.name, f"{self.name}_sum", base or None, total, self.help, "histogram")
            yield Sample(self.name, f"{self.name}_count", base or None, n, self.help, "histogram")


class MetricRegistry:
    """An ordered collection of instruments with one ``collect()``."""

    def __init__(self) -> None:
        self._metrics: list = []

    def register(self, metric):
        self._metrics.append(metric)
        return metric

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        return self.register(Counter(name, help, labelnames))

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        return self.register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help, labelnames, buckets))

    def collect(self) -> Iterator[Sample]:
        for metric in self._metrics:
            yield from metric.collect()


# --------------------------------------------------------------------- #
# Stats-tree → samples bridge
# --------------------------------------------------------------------- #

_SCHEDULER_COUNTERS = {
    "requested": "Pair requests received by the scheduler.",
    "cache_answered": "Requests answered from the transition cache before dispatch.",
    "coalesced": "Requests attached to an existing solve of the same pair.",
    "solved": "Fresh pair solves dispatched.",
    "batches": "Chunk submissions to the engine pool.",
    "rejected": "Admissions refused by global backpressure.",
    "client_rejected": "Admissions refused by a per-client fairness quota.",
}

_SCHEDULER_GAUGES = {
    "pending": "Unique pairs currently admitted (queued or solving).",
    "peak_pending": "High-water mark of admitted pairs.",
    "max_pending": "Configured global backpressure bound.",
    "client_max_pending": "Configured per-client pending quota (before priority scaling).",
}

_CACHE_COUNTERS = {
    "hits": "Cache lookups answered.",
    "misses": "Cache lookups that missed.",
    "builds": "Entries computed (all stored except the row cache's skipped ones).",
    "evictions": "Entries evicted by the LRU or the memory budget.",
    "extensions": "Row searches that grew a cached row to a larger radius.",
    "settled": "Nodes settled by the row searches.",
    "skipped": "Rows searched but not stored (sampled admission).",
}

_CACHE_GAUGES = {
    "size": "Entries currently held.",
    "max_size": "Configured entry capacity.",
    "capacity": "Entries kept before the LRU evicts (the ground cache sizes it by its hits).",
    "nbytes": "Approximate bytes held.",
}

_SIMPLEX_COUNTERS = {
    "solves": "Network-simplex solves.",
    "cold_solves": "Solves started from a fresh basis.",
    "warm_solves": "Solves warm-started from a cached basis.",
    "cold_pivots": "Pivots performed by cold solves.",
    "warm_pivots": "Pivots performed by warm-started solves.",
    "warm_arcs_used": "Basis arcs successfully reused by warm starts.",
}

_SIMPLEX_GAUGES = {
    "cold_pivots_per_solve": "Mean pivots per cold solve.",
    "warm_pivots_per_solve": "Mean pivots per warm-started solve.",
}

_HYBRID_COUNTERS = {
    "solves": "Hybrid-tier transport solves.",
    "screened_solves": "Solves where Sinkhorn screening reduced the support.",
}

_HYBRID_GAUGES = {
    "support_density": "Mean retained support density after screening.",
    "max_screen_error_bound": "Largest a-posteriori error bound observed.",
}

_PERSIST_COUNTERS = {
    "transitions_loaded": "Transition-cache entries warmed from the store.",
    "transitions_persisted": "Transition-cache entries flushed to the store.",
    "flush_failures": "Transition flushes whose store write raised (retried next flush).",
}


_CORPUS_QUERY_COUNTERS = {
    "queries": "Corpus top-k queries answered.",
    "bounded": "Corpus member pairs ranked by their row-free SND lower bound.",
    "solved": "Corpus member pairs solved exactly (the rest were pruned).",
}


def _emit(
    out: list[Sample],
    family: str,
    source: dict,
    spec: dict[str, str],
    mtype: str,
    labels: dict[str, str] | None,
    *,
    suffix: str = "",
) -> None:
    for key, help_text in spec.items():
        if key not in source or source[key] is None:
            continue
        out.append(
            Sample(
                f"{family}_{key}{suffix}",
                f"{family}_{key}{suffix}",
                dict(labels) if labels else None,
                float(source[key]),
                help_text,
                mtype,
            )
        )


def samples_from_stats(stats: dict) -> list[Sample]:
    """Convert an ``SNDService.stats()`` tree into metric samples.

    The tree shape is ``{"store": ..., "shards": {graph: shard_stats}}``
    where each shard embeds ``engine.stats()`` (scheduler / caches /
    network_simplex / hybrid sections) once its engine exists, plus the
    persistence counters the service maintains.  A bare
    ``engine.stats()`` dict (no ``shards`` wrapper) is also accepted so
    the CLI and benchmarks can reuse the bridge for a single engine.

    Per-shard families, the solver families (``snd_simplex_*``,
    ``snd_hybrid_*``, each shard's own engine counts) included, are
    labelled ``graph="<name>"``.
    """
    out: list[Sample] = []
    for measure, count in (stats.get("measures") or {}).items():
        out.append(Sample(
            "snd_measure_requests_total",
            "snd_measure_requests_total",
            {"measure": str(measure)},
            float(count),
            "Distance requests served, by registry measure (bake-off "
            "traffic observability).",
            "counter",
        ))
    shards = stats.get("shards")
    if shards is None:
        shards = {stats.get("graph", "default"): stats}
    for graph, shard in shards.items():
        labels = {"graph": str(graph)}
        sched = shard.get("scheduler")
        if sched:
            _emit(out, "snd_scheduler", sched, _SCHEDULER_COUNTERS,
                  "counter", labels, suffix="_total")
            _emit(out, "snd_scheduler", sched, _SCHEDULER_GAUGES, "gauge", labels)
            for client, rec in (sched.get("clients") or {}).items():
                clabels = {**labels, "client": str(client)}
                _emit(out, "snd_client", rec,
                      {k: v for k, v in _SCHEDULER_COUNTERS.items() if k in rec},
                      "counter", clabels, suffix="_total")
                _emit(out, "snd_client", rec,
                      {"pending": _SCHEDULER_GAUGES["pending"]},
                      "gauge", clabels)
        caches = shard.get("caches")
        if caches:
            for cache_name, cache_stats in caches.items():
                if not isinstance(cache_stats, dict):
                    continue
                clabels = {**labels, "cache": str(cache_name)}
                _emit(out, "snd_cache", cache_stats, _CACHE_COUNTERS,
                      "counter", clabels, suffix="_total")
                _emit(out, "snd_cache", cache_stats, _CACHE_GAUGES, "gauge", clabels)
            _emit(out, "snd_cache", caches, {
                "total_nbytes": "Approximate bytes held across all caches.",
            }, "gauge", labels)
            _emit(out, "snd_cache", caches, {
                "memory_budget": "Configured shared cache memory budget.",
            }, "gauge", labels, suffix="_bytes")
        _emit(out, "snd_engine", shard, {
            "pool_starts": "Worker pool cold starts.",
            "slot_writes": "State-matrix slot writes to shared memory.",
        }, "counter", labels, suffix="_total")
        _emit(out, "snd_persistence", shard, _PERSIST_COUNTERS,
              "counter", labels, suffix="_total")
        _emit(out, "snd_corpus_query", shard.get("corpus_query") or {},
              _CORPUS_QUERY_COUNTERS, "counter", labels, suffix="_total")
        for family, key, counters, gauges in (
            ("snd_simplex", "network_simplex", _SIMPLEX_COUNTERS, _SIMPLEX_GAUGES),
            ("snd_hybrid", "hybrid", _HYBRID_COUNTERS, _HYBRID_GAUGES),
        ):
            solver = shard.get(key) or {}
            _emit(out, family, solver, counters, "counter", labels, suffix="_total")
            _emit(out, family, solver, gauges, "gauge", labels)
    return out


# --------------------------------------------------------------------- #
# The serving-tier metrics facade
# --------------------------------------------------------------------- #

#: Known route templates; anything else is bucketed as ``other`` so a
#: path-scanning client cannot explode label cardinality.
KNOWN_ROUTES = (
    "/healthz", "/stats", "/corpora", "/metrics",
    "/distance", "/series", "/matrix", "/corpus/query", "/watch",
)


class ServeMetrics:
    """Live HTTP instruments + the scrape renderer for one server.

    The HTTP layer calls :meth:`observe_request` as each request
    completes; :meth:`render` combines the live instruments with a
    snapshot conversion of the service stats tree into one exposition
    document.
    """

    def __init__(self) -> None:
        self.registry = MetricRegistry()
        self.requests = self.registry.counter(
            "snd_http_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "status"),
        )
        self.latency = self.registry.histogram(
            "snd_http_request_duration_seconds",
            "Wall-clock HTTP request latency by route.",
            ("route",),
        )
        self.started = time.time()

    @staticmethod
    def route_bucket(path: str) -> str:
        """Collapse a request path to a bounded route label."""
        return path if path in KNOWN_ROUTES else "other"

    def observe_request(self, path: str, status: int, seconds: float) -> None:
        route = self.route_bucket(path)
        self.requests.inc(route=route, status=str(status))
        self.latency.observe(seconds, route=route)

    def render(self, service_stats: dict | None = None) -> str:
        samples: list[Sample] = [
            Sample(
                "snd_serve_uptime_seconds", "snd_serve_uptime_seconds", None,
                time.time() - self.started,
                "Seconds since the metrics facade was created.", "gauge",
            )
        ]
        samples.extend(self.registry.collect())
        if service_stats is not None:
            samples.extend(samples_from_stats(service_stats))
        return render_samples(samples)
