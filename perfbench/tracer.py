"""Outside-in layer tracing for the SND benchmark.

The benchmark never edits ``src/``: it replaces each layer's public
function, at the name its caller looks up, with a wrapper that records a
span (layer, start, end, parent, op id) in memory. Spans are aggregated
into per-layer self time when the run ends; a layer's self time is its
span's duration minus the durations of its direct child spans.

A call that lands inside a span of the same layer records nothing (a
``PairScheduler.submit`` calling ``evaluate``, ``solve_transportation``
dispatching to the network simplex), so each layer counts one call per
entry into it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

# (layer, owner path, attribute) — each owner is the module or class the
# caller resolves the name through at call time.
SPANNED = (
    ("service", "repro.serve.service:SNDService", "distance_pair"),
    ("scheduler", "repro.snd.scheduler:PairScheduler", "evaluate"),
    ("scheduler", "repro.snd.scheduler:PairScheduler", "submit"),
    ("engine", "repro.snd.engine:Corpus", "query"),
    ("ground", "repro.snd.cache:GroundCostCache", "edge_costs"),
    ("rows", "repro.snd.cache:DijkstraRowCache", "distance_rows"),
    # DijkstraRowCache.distance_rows imports this name from its module on
    # every call; fast.py bound its own copy at import.
    ("rows", "repro.shortestpath.dijkstra", "multi_source_distances"),
    ("rows", "repro.snd.fast", "multi_source_distances"),
    ("term", "repro.snd.snd:SND", "term"),
    # fast.py imports the three dense solvers from their modules inside
    # _solve_reduced_dense and bound solve_mcf_ssp at import.
    ("solve", "repro.flow", "solve_transportation"),
    ("solve", "repro.flow.network_simplex", "solve_transportation_network_simplex"),
    ("solve", "repro.flow.sinkhorn_hybrid", "solve_transportation_sinkhorn_hybrid"),
    ("solve", "repro.snd.fast", "solve_mcf_ssp"),
    ("banks", "repro.snd.snd", "allocate_banks"),
    ("store", "repro.store.database:ExperimentStore", "load_graph"),
    ("store", "repro.store.database:ExperimentStore", "load_series"),
    ("store", "repro.store.database:ExperimentStore", "save_transitions"),
)

#: ``SNDEngine.stream`` is a generator: each step (one arriving state) is
#: one engine span.
STEPPED = (("engine", "repro.snd.engine:SNDEngine", "stream"),)

#: Tiers ``select_transport_method`` can return; every one is reported,
#: zero when unused, so the metric set is the same on every workload.
TIERS = ("simplex", "ssp", "lp", "network-simplex", "sinkhorn-hybrid")

LAYERS = (
    "http", "service", "scheduler", "engine", "ground", "rows", "term",
    "solve", "banks", "store",
)


def _resolve(path: str):
    import importlib

    module_name, _, cls = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # span: [layer, start, end, parent id, op, id, result]
        self.spans: list[list] = []
        self.op = None  # op id stamped on new spans (single-threaded callers)
        # (time, tier, cells) per select_transport_method call
        self.selects: list[tuple[float, str, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a *layer* span."""
        stack = self._stack()
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        span = [layer, 0.0, 0.0, stack[-1][5] if stack else -1, self.op,
                next(self._ids), None]
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        span[6] = result if isinstance(result, int) else None
        return result

    def _spanned(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return wrapper

    def _stepped(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            end = object()

            def steps():
                while True:
                    item = tracer.call(layer, next, gen, end)
                    if item is end:
                        return
                    yield item

            return steps()

        return wrapper

    def _selector(self, fn):
        @functools.wraps(fn)
        def wrapper(n_suppliers, n_consumers, **kwargs):
            tier = fn(n_suppliers, n_consumers, **kwargs)
            self.selects.append(
                (time.perf_counter(), tier, int(n_suppliers) * int(n_consumers))
            )
            return tier

        return wrapper

    def install(self) -> "Tracer":
        """Put every wrapper in place (undone by :meth:`uninstall`)."""
        targets = [(layer, path, attr, self._spanned) for layer, path, attr in SPANNED]
        targets += [(layer, path, attr, self._stepped) for layer, path, attr in STEPPED]
        for layer, path, attr, make in targets:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(layer, original))
        fast = _resolve("repro.snd.fast")
        self._saved.append((fast, "select_transport_method", fast.select_transport_method))
        fast.select_transport_method = self._selector(fast.select_transport_method)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        """JSON-ready dump (the serve launcher writes it at exit)."""
        return {"spans": self.spans, "selects": self.selects}


def self_times(spans) -> dict[int, float]:
    """Span id -> self time (duration minus direct children)."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    return {span[5]: (span[2] - span[1]) - children[span[5]] for span in spans}


def layer_metrics(spans, self_time, n_ops: int, op_wall_s: float) -> dict:
    """``L.calls`` / ``L.self_ms`` / ``L.share`` for every layer.

    *spans* are the run-phase spans; calls and self time are per op, and
    the share divides a layer's self time by the summed op wall time.
    """
    calls: Counter = Counter()
    busy: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span[0]] += 1
        busy[span[0]] += self_time[span[5]]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / n_ops, "count/op")
        out[f"{layer}.self_ms"] = (1e3 * busy[layer] / n_ops, "ms")
        out[f"{layer}.share"] = (busy[layer] / op_wall_s, "ratio")
    return out


def tier_counts(selects) -> dict[str, int]:
    """Solves per tier over the ``(time, tier, cells)`` records of one
    phase (every tier present, zero when unused)."""
    tiers = Counter(tier for _, tier, _ in selects)
    return {f"solve.tier.{tier}": tiers[tier] for tier in TIERS}


def solve_counters(selects) -> dict:
    """``solve.tier.<name>`` metrics and the median instance size."""
    import numpy as np

    out = {name: (float(n), "count") for name, n in tier_counts(selects).items()}
    cells = [c for _, _, c in selects]
    out["solve.cells_p50"] = (float(np.median(cells)) if cells else 0.0, "cells")
    return out
