"""A uniform interface over all distance measures.

The experiment harnesses (§6) sweep the same state series through SND and
every baseline; :class:`DistanceRegistry` gives them one calling convention
with per-measure precomputation (Laplacian for quad-form, SND instance,
...) held in a :class:`DistanceContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.distances.quad_form import quad_form_distance
from repro.distances.vector import hamming_distance, l1_distance
from repro.distances.walk_dist import walk_distance
from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.opinions.state import NetworkState, StateSeries

__all__ = ["DistanceContext", "DistanceRegistry", "default_registry"]


@dataclass
class DistanceContext:
    """Shared precomputed assets for distance evaluation over one graph."""

    graph: DiGraph
    laplacian: object = None
    snd: object = None
    extras: dict = field(default_factory=dict)

    def ensure_laplacian(self):
        if self.laplacian is None:
            from repro.graph.laplacian import laplacian_matrix

            self.laplacian = laplacian_matrix(self.graph)
        return self.laplacian

    def ensure_snd(self, **kwargs):
        if self.snd is None:
            from repro.snd import SND

            self.snd = SND(self.graph, **kwargs)
        return self.snd

    def cache_stats(self) -> dict | None:
        """Counters of the SND cache hierarchy (``None`` before any SND
        use) — the ``--cache-stats`` CLI surface; see
        :meth:`repro.snd.cache.CacheManager.stats`."""
        if self.snd is None:
            return None
        return self.snd.caches.stats()


MeasureFn = Callable[[NetworkState, NetworkState, DistanceContext], float]


#: Batched series evaluator: ``(series, context) -> (T-1,) array``.
SeriesFn = Callable[[StateSeries, DistanceContext], np.ndarray]
#: Batched all-pairs evaluator: ``(states, context) -> (N, N) array``.
PairwiseFn = Callable[[Sequence, DistanceContext], np.ndarray]


class DistanceRegistry:
    """Named distance measures with a shared ``(p, q, context)`` signature.

    Measures may additionally register batched evaluators (*series_fn*,
    *pairwise_fn*) that exploit measure-specific structure — SND runs a
    serial :class:`~repro.snd.engine.SNDEngine` over the context's SND
    instance, which caches ground costs across pairs. Measures without
    batched evaluators fall back to generic loops (symmetric measures
    still get upper-triangle-only pairwise evaluation), so every
    registered measure supports :meth:`series` and :meth:`pairwise`
    uniformly. A worker pool is an engine's business: hold an
    :class:`~repro.snd.engine.SNDEngine` to run SND on one.
    """

    def __init__(self) -> None:
        self._measures: dict[str, MeasureFn] = {}
        self._series_fns: dict[str, SeriesFn] = {}
        self._pairwise_fns: dict[str, PairwiseFn] = {}

    def register(
        self,
        name: str,
        fn: MeasureFn,
        *,
        series_fn: SeriesFn | None = None,
        pairwise_fn: PairwiseFn | None = None,
    ) -> None:
        if name in self._measures:
            raise ValidationError(f"measure {name!r} already registered")
        self._measures[name] = fn
        if series_fn is not None:
            self._series_fns[name] = series_fn
        if pairwise_fn is not None:
            self._pairwise_fns[name] = pairwise_fn

    def names(self) -> list[str]:
        return sorted(self._measures)

    def get(self, name: str) -> MeasureFn:
        try:
            return self._measures[name]
        except KeyError:
            raise ValidationError(
                f"unknown measure {name!r}; available: {self.names()}"
            ) from None

    def compute(
        self, name: str, p: NetworkState, q: NetworkState, context: DistanceContext
    ) -> float:
        return self.get(name)(p, q, context)

    def series(
        self,
        name: str,
        series: StateSeries,
        context: DistanceContext,
    ) -> np.ndarray:
        """Adjacent-state distances ``d_t = f(G_{t-1}, G_t)``.

        Measures with a registered batched evaluator (SND) cache shared
        work; others run the generic per-pair loop.
        """
        fn = self.get(name)  # validates the name for both paths
        batched = self._series_fns.get(name)
        if batched is not None:
            return np.asarray(batched(series, context), dtype=np.float64)
        return np.array(
            [fn(a, b, context) for a, b in series.transitions()], dtype=np.float64
        )

    def pairwise(
        self,
        name: str,
        states,
        context: DistanceContext,
    ) -> np.ndarray:
        """Symmetric all-pairs distance matrix over *states*.

        The generic fallback evaluates the upper triangle only and mirrors
        it (every registered measure is symmetric); SND's batched evaluator
        additionally caches ground costs.
        """
        fn = self.get(name)
        batched = self._pairwise_fns.get(name)
        if batched is not None:
            return np.asarray(batched(states, context), dtype=np.float64)
        from repro.analysis.metric_space import state_distance_matrix

        return state_distance_matrix(states, lambda p, q: fn(p, q, context))


def _serial_engine(context: DistanceContext):
    """A serial engine over the context's SND instance and its caches
    (serial engines own no pool, so there is nothing to close)."""
    return context.ensure_snd().create_engine(jobs=1)


def default_registry() -> DistanceRegistry:
    """Registry with the paper's §6.1 line-up — snd, hamming, walk-dist,
    quad-form (plus l1 used in §6.4) — and the scalar polarization
    baselines of the bake-off (esp, disagreement, bimodality: the change
    ``|P(G_2) - P(G_1)|`` in each literature measure, see
    :mod:`repro.analysis.baselines`)."""
    from repro.analysis.baselines import (
        bimodality_coefficient,
        disagreement_index,
        polarization_index,
    )

    registry = DistanceRegistry()
    registry.register(
        "snd",
        lambda p, q, ctx: ctx.ensure_snd().distance(p, q),
        series_fn=lambda series, ctx: _serial_engine(ctx).evaluate_series(series),
        pairwise_fn=lambda states, ctx: _serial_engine(ctx).pairwise_matrix(states),
    )
    registry.register("hamming", lambda p, q, ctx: hamming_distance(p, q))
    registry.register("l1", lambda p, q, ctx: l1_distance(p, q))
    registry.register(
        "quad-form",
        lambda p, q, ctx: quad_form_distance(p, q, ctx.ensure_laplacian()),
    )
    registry.register(
        "walk-dist", lambda p, q, ctx: walk_distance(ctx.graph, p, q)
    )
    registry.register(
        "esp",
        lambda p, q, ctx: abs(polarization_index(q) - polarization_index(p)),
    )
    registry.register(
        "disagreement",
        lambda p, q, ctx: abs(
            disagreement_index(q, ctx.ensure_laplacian())
            - disagreement_index(p, ctx.ensure_laplacian())
        ),
    )
    registry.register(
        "bimodality",
        lambda p, q, ctx: abs(bimodality_coefficient(q) - bimodality_coefficient(p)),
    )
    return registry
