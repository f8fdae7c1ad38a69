"""Stdlib-only Prometheus exposition for the serving tier.

The paper's target deployment — continuous anomaly monitoring over live
opinion series (PAPER.md §VI) — is only operable if the serving process
is observable: operators need to see cache efficacy, coalescing rates,
saturation, and latency without attaching a debugger.  This module
renders the Prometheus *text exposition format 0.0.4* (``# HELP`` /
``# TYPE`` lines, ``name{label="value"} sample`` rows, cumulative
``_bucket{le=...}`` histogram rows) that any Prometheus scraper,
``promtool``, or a human with ``curl`` can read.

Families come from two places:

* **Live HTTP families** (:class:`ServeMetrics`) — requests by route and
  status, and their latency histogram, recorded by the HTTP server as
  each request finishes (the HTTP layer is the only place these
  observations exist).
* **Stats families** (:func:`samples_from_stats`) — everything the
  engine stack already counts.  Each scrape walks the
  ``SNDService.stats()`` tree: a section's name picks the family
  (:data:`FAMILIES`), a key in :data:`repro.snd.engine.STATS_GAUGES` is a
  gauge, and every other numeric leaf is a ``<family>_<key>_total``
  counter.  Metric names are therefore the stats keys, which are also
  the ``key=value`` pairs ``--cache-stats`` prints, and a key added to any
  ``stats()`` dict is exported without editing this module.

``docs/serving.md`` carries the reference table.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Iterable, NamedTuple

from repro.snd.engine import STATS_GAUGES

__all__ = [
    "Sample",
    "ServeMetrics",
    "samples_from_stats",
    "render_samples",
    "CONTENT_TYPE",
]

#: The Content-Type a compliant scraper expects for text format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) of the HTTP request histogram: tuned
#: for a solver service whose responses range from sub-millisecond cache
#: hits to multi-second cold matrix solves.
LATENCY_BUCKETS = (
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


class Sample(NamedTuple):
    """One exposition row: ``name{labels} value`` plus family metadata.

    ``mtype`` is the family's ``# TYPE`` (counter / gauge / histogram —
    histogram *component* rows such as ``_bucket`` carry the family name
    in ``family`` so grouping still works).
    """

    family: str
    name: str
    labels: dict[str, str] | None
    value: float
    help: str
    mtype: str

    def line(self) -> str:
        return f"{self.name}{_format_labels(self.labels)} {_format_value(self.value)}"


def render_samples(samples: Iterable[Sample]) -> str:
    """Assemble exposition text: families grouped, each preceded by one
    ``# HELP`` / ``# TYPE`` pair, in first-seen order."""
    by_family: dict[str, list[Sample]] = {}
    for sample in samples:
        by_family.setdefault(sample.family, []).append(sample)
    out: list[str] = []
    for family, rows in by_family.items():
        out.append(f"# HELP {family} {rows[0].help}")
        out.append(f"# TYPE {family} {rows[0].mtype}")
        out.extend(row.line() for row in rows)
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------- #
# Stats-tree → samples bridge
# --------------------------------------------------------------------- #

#: Stats section → metric family.  A shard's own numeric keys are
#: ``snd_engine`` (the service's persistence keys ``snd_persistence``).
FAMILIES = {
    "scheduler": "snd_scheduler",
    "clients": "snd_client",
    "caches": "snd_cache",
    "corpus_query": "snd_corpus_query",
    "network_simplex": "snd_simplex",
}

#: Families whose nested dicts are labelled records (one per cache, one
#: per client), and the label naming the record.
_RECORD_LABELS = {"snd_cache": "cache", "snd_client": "client"}

_PERSISTENCE_KEYS = ("transitions_loaded", "transitions_persisted", "flush_failures")

#: Unit suffixes the stats key leaves implicit.
_UNITS = {"memory_budget": "_bytes"}

#: HELP text by stats key; a ``<family>_<key>`` entry overrides a key whose
#: meaning depends on its section.
_HELP = {
    # scheduler (and, per client, the same keys)
    "requested": "Pair requests received by the scheduler.",
    "cache_answered": "Requests answered from the transition cache before dispatch.",
    "coalesced": "Requests attached to an existing solve of the same pair.",
    "solved": "Fresh pair solves dispatched.",
    "batches": "Chunk submissions to the engine pool.",
    "rejected": "Admissions refused by global backpressure.",
    "client_rejected": "Admissions refused by a per-client fairness quota.",
    "snd_client_rejected": "Admissions of this client refused by its fairness quota or by global backpressure.",
    "pending": "Unique pairs currently admitted (queued or solving).",
    "peak_pending": "High-water mark of admitted pairs.",
    "max_pending": "Configured global backpressure bound.",
    "client_max_pending": "Configured per-client pending quota (before priority scaling).",
    # caches
    "hits": "Cache lookups answered.",
    "misses": "Cache lookups that missed.",
    "builds": "Entries computed (the row cache stores only full rows searched while its record starts terms full).",
    "evictions": "Entries evicted by the LRU or the memory budget.",
    "settled": "Nodes settled by the row searches.",
    "terms": "Certified terms started by the row cache.",
    "mirrored": "Certified terms started at their mirror term's dual radii instead of the record.",
    "exact_hits": "Basis-store hits on the same term solved before.",
    "reverse_hits": "Basis-store hits on the transposed term (supplier and consumer swapped).",
    "supplier_hits": "Basis-store hits on the latest term with the same supplier state.",
    "size": "Entries currently held.",
    "max_size": "Configured entry capacity.",
    "capacity": "Entries kept before the LRU evicts (the ground cache sizes it by its hits).",
    "nbytes": "Approximate bytes held.",
    "total_nbytes": "Approximate bytes held across all caches.",
    "memory_budget": "Configured shared cache memory budget.",
    # solvers
    "solves": "Network-simplex solves.",
    "cold_solves": "Solves started from a fresh basis.",
    "warm_solves": "Solves warm-started from a cached basis.",
    "cold_pivots": "Pivots performed by cold solves.",
    "warm_pivots": "Pivots performed by warm-started solves.",
    "warm_arcs_used": "Basis arcs successfully reused by warm starts.",
    "cold_pivots_per_solve": "Mean pivots per cold solve.",
    "warm_pivots_per_solve": "Mean pivots per warm-started solve.",
    # engine, persistence, corpus queries
    "jobs": "Worker processes per parallel dispatch (1: serial).",
    "pool_starts": "Worker pool cold starts.",
    "snd_engine_capacity": "State-matrix rows allocated in shared memory.",
    "slot_writes": "State-matrix slot writes to shared memory.",
    "n_states": "States in the shard's series.",
    "transitions_loaded": "Transition-cache entries warmed from the store.",
    "transitions_persisted": "Transition-cache entries flushed to the store.",
    "flush_failures": "Transition flushes whose store write raised (retried next flush).",
    "queries": "Corpus top-k queries answered.",
    "bounded": "Corpus member pairs ranked by their row-free SND lower bound.",
    "refined": "Corpus member pairs checked against their hop-aware lower bound before a solve.",
    "snd_corpus_query_solved": "Corpus member pairs solved exactly (the rest were pruned).",
}


def _walk(out: list[Sample], tree: dict, family: str, labels: dict[str, str]) -> None:
    """Append a sample per numeric leaf of *tree*, recursing into the
    sections of :data:`FAMILIES` and into labelled records."""
    record_label = _RECORD_LABELS.get(family)
    for key, value in tree.items():
        if isinstance(value, dict):
            if record_label is not None:
                _walk(out, value, family, {**labels, record_label: str(key)})
            elif key in FAMILIES:
                _walk(out, value, FAMILIES[key], labels)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue  # flags, lists, names and unset (None) settings
        prefix = "snd_persistence" if key in _PERSISTENCE_KEYS else family
        gauge = key in STATS_GAUGES
        name = f"{prefix}_{key}{_UNITS.get(key, '')}{'' if gauge else '_total'}"
        help_text = _HELP.get(f"{prefix}_{key}") or _HELP.get(key, f"stats() key {key!r}.")
        out.append(Sample(
            name, name, dict(labels), float(value), help_text,
            "gauge" if gauge else "counter",
        ))


def samples_from_stats(stats: dict) -> list[Sample]:
    """Convert an ``SNDService.stats()`` tree into metric samples.

    The tree shape is ``{"measures": ..., "shards": {graph: shard_stats}}``
    where each shard embeds ``engine.stats()`` (scheduler / caches /
    network_simplex / corpus_query sections) once its engine
    exists, plus the persistence counters the service maintains.  A bare
    ``engine.stats()`` dict (no ``shards`` wrapper) is also accepted so
    the CLI and benchmarks can reuse the bridge for a single engine.

    Every per-shard sample is labelled ``graph="<name>"``.
    """
    out = [
        Sample(
            "snd_measure_requests_total",
            "snd_measure_requests_total",
            {"measure": str(measure)},
            float(count),
            "Distance requests served, by registry measure (bake-off "
            "traffic observability).",
            "counter",
        )
        for measure, count in (stats.get("measures") or {}).items()
    ]
    shards = stats.get("shards")
    if shards is None:
        shards = {stats.get("graph", "default"): stats}
    for graph, shard in shards.items():
        _walk(out, shard, "snd_engine", {"graph": str(graph)})
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

_REQUESTS = "snd_http_requests_total"
_LATENCY = "snd_http_request_duration_seconds"


class ServeMetrics:
    """Live HTTP families + the scrape renderer for one server.

    The HTTP layer calls :meth:`observe_request` as each request
    completes; :meth:`render` combines the live families with a snapshot
    conversion of the service stats tree into one exposition document.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(route, status) -> requests``.
        self._requests: dict[tuple[str, str], int] = {}
        #: ``route -> [per-bucket counts (the last past every bound), sum]``.
        self._latency: dict[str, list] = {}
        self.started = time.time()

    @staticmethod
    def route_bucket(path: str) -> str:
        """Collapse a request path to a bounded route label."""
        return path if path in KNOWN_ROUTES else "other"

    def observe_request(self, path: str, status: int, seconds: float) -> None:
        route = self.route_bucket(path)
        key = (route, str(status))
        slot = bisect.bisect_left(LATENCY_BUCKETS, seconds)  # first bound >= seconds
        with self._lock:
            self._requests[key] = self._requests.get(key, 0) + 1
            series = self._latency.get(route)
            if series is None:
                series = self._latency[route] = [[0] * (len(LATENCY_BUCKETS) + 1), 0.0]
            series[0][slot] += 1
            series[1] += float(seconds)

    def _http_samples(self) -> list[Sample]:
        with self._lock:
            requests = list(self._requests.items())
            latency = [
                (route, list(counts), total)
                for route, (counts, total) in self._latency.items()
            ]
        out = [
            Sample(_REQUESTS, _REQUESTS, {"route": route, "status": status}, n,
                   "HTTP requests served, by route and status code.", "counter")
            for (route, status), n in requests
        ]
        help_text = "Wall-clock HTTP request latency by route."
        bounds = [_format_value(b) for b in LATENCY_BUCKETS] + ["+Inf"]
        for route, counts, total in latency:
            cumulative = 0
            for le, n in zip(bounds, counts):
                cumulative += n
                out.append(Sample(_LATENCY, f"{_LATENCY}_bucket", {"route": route, "le": le},
                                  cumulative, help_text, "histogram"))
            for suffix, value in (("_sum", total), ("_count", cumulative)):
                out.append(Sample(_LATENCY, _LATENCY + suffix, {"route": route},
                                  value, help_text, "histogram"))
        return out

    def render(self, service_stats: dict | None = None) -> str:
        samples = [
            Sample(
                "snd_serve_uptime_seconds", "snd_serve_uptime_seconds", None,
                time.time() - self.started,
                "Seconds since the metrics facade was created.", "gauge",
            ),
            *self._http_samples(),
        ]
        if service_stats is not None:
            samples.extend(samples_from_stats(service_stats))
        return render_samples(samples)
