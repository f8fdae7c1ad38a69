"""k-pole Social Network Distance.

Eq. 3 generalises from two polar opinions to ``k`` poles by summing one
``EMD*`` term per (direction, pole):

.. math::
   SND_k(G_1, G_2) = \\tfrac{1}{2} \\sum_{p=1}^{k} \\bigl[
       EMD^*(G_1^p, G_2^p, D(G_1, p)) + EMD^*(G_2^p, G_1^p, D(G_2, p))
   \\bigr]

where ``G^p`` is pole ``p``'s unit-mass indicator histogram and
``D(G, p)`` the k-pole ground distance of :mod:`repro.multipolar.ground`
(every competing pole adverse). Terms are accumulated direction-major,
pole-minor — at ``k = 2`` that is exactly the Eq. 3 order ``(G_1, G_2, +),
(G_1, G_2, -), (G_2, G_1, +), (G_2, G_1, -)``, and each projected term
equals the corresponding bipolar term byte-for-byte, so ``SND_2`` is
**bit-identical** to the bipolar :class:`~repro.snd.snd.SND` (asserted
across solvers in ``tests/multipolar/test_k2_equivalence.py``).

Every term runs through the unchanged Theorem 4 fast pipeline, and the
batch entry points draw on the inner SND's
:class:`~repro.snd.cache.CacheManager` — multipolar states carry the same
byte-stable content fingerprints as bipolar ones, so the ground/row/
transition/basis cache layers work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import StateError
from repro.graph.digraph import DiGraph
from repro.multipolar.state import MultipolarSeries, MultipolarState
from repro.opinions.models.base import OpinionModel
from repro.opinions.state import POSITIVE
from repro.snd.cache import GroundCostCache
from repro.snd.fast import FastTermStats
from repro.snd.snd import SND

__all__ = ["MultipolarSND", "MultipolarSNDResult"]


@dataclass
class MultipolarSNDResult:
    """A fully itemised k-pole SND evaluation.

    ``terms`` and ``stats`` are direction-major, pole-minor: the first
    ``k`` entries are the ``G_1 -> G_2`` terms for poles ``1..k``, the
    last ``k`` the reverse direction.
    """

    value: float
    terms: tuple[float, ...]
    stats: tuple[FastTermStats, ...]

    @property
    def n_poles(self) -> int:
        return len(self.terms) // 2

    @property
    def n_delta(self) -> int:
        """Changed users observed across the forward-direction terms."""
        k = self.n_poles
        return max(s.n_suppliers + s.n_consumers for s in self.stats[:k])


class MultipolarSND:
    """k-pole SND over a fixed graph and opinion model.

    Thin orchestration over an inner bipolar :class:`~repro.snd.snd.SND`:
    each (direction, pole) term projects the supplier/consumer states
    one-vs-rest and runs the unchanged bipolar term pipeline, so every
    solver / bank / cache knob of :class:`SND` applies verbatim (all
    keyword arguments are forwarded).

    Parameters
    ----------
    graph:
        The social network (direction = influence flow).
    n_poles:
        Number of poles ``k >= 2``.
    model:
        Opinion model supplying spreading penalties for the projected
        states; defaults to the polarity-symmetric
        :class:`~repro.opinions.models.model_agnostic.ModelAgnostic`
        (symmetry is what the k=2 bit-identity reduction relies on).
    **snd_kwargs:
        Forwarded to :class:`~repro.snd.snd.SND` (banks, solver,
        penalties, seed, ...).

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> from repro.multipolar import MultipolarState
    >>> g = erdos_renyi_graph(30, 0.2, seed=1)
    >>> msnd = MultipolarSND(g, n_poles=3, n_clusters=2, seed=0)
    >>> a = MultipolarState.from_pole_sets(30, [[0], [5], [9]])
    >>> b = MultipolarState.from_pole_sets(30, [[1], [5], [9]])
    >>> msnd.distance(a, a)
    0.0
    >>> msnd.distance(a, b) > 0
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        n_poles: int = 2,
        model: OpinionModel | None = None,
        **snd_kwargs,
    ) -> None:
        if not isinstance(n_poles, (int, np.integer)) or n_poles < 2:
            raise StateError(f"n_poles must be an integer >= 2, got {n_poles!r}")
        self.graph = graph
        self.n_poles = int(n_poles)
        self.snd = SND(graph, model, **snd_kwargs)

    # ------------------------------------------------------------------ #

    @property
    def poles(self) -> range:
        return range(1, self.n_poles + 1)

    @property
    def caches(self):
        """The inner SND's cache hierarchy (shared with any bipolar use of
        the same instance)."""
        return self.snd.caches

    def cache_stats(self) -> dict:
        return self.snd.caches.stats()

    def _check_state(self, state: MultipolarState) -> None:
        if not isinstance(state, MultipolarState):
            raise StateError(
                f"expected a MultipolarState, got {type(state).__name__}"
            )
        if state.n_poles != self.n_poles:
            raise StateError(
                f"state has {state.n_poles} poles, instance expects {self.n_poles}"
            )
        if state.n != self.graph.num_nodes:
            raise StateError(
                f"state covers {state.n} users, graph has {self.graph.num_nodes}"
            )

    # ------------------------------------------------------------------ #

    def term(
        self,
        supplier_state: MultipolarState,
        consumer_state: MultipolarState,
        pole: int,
        *,
        edge_costs: np.ndarray | None = None,
        row_cache=None,
        cost_key=None,
        basis_cache=None,
        basis_key=None,
        stats: FastTermStats | None = None,
    ) -> float:
        """One k-pole ``EMD*`` term: pole *pole*'s mass moving from
        *supplier_state*'s adopters to *consumer_state*'s adopters under
        the one-vs-rest ground distance built from *supplier_state*.

        The optional cache arguments mirror :meth:`SND.term` and apply to
        the projected (bipolar) term.
        """
        self._check_state(supplier_state)
        self._check_state(consumer_state)
        proj_sup = supplier_state.polar_projection(pole)
        proj_con = consumer_state.polar_projection(pole)
        return self.snd.term(
            proj_sup,
            proj_con,
            POSITIVE,
            edge_costs=edge_costs,
            row_cache=row_cache,
            cost_key=cost_key,
            basis_cache=basis_cache,
            basis_key=basis_key,
            stats=stats,
        )

    def distance(self, state_a: MultipolarState, state_b: MultipolarState) -> float:
        """k-pole SND between two states."""
        return self.evaluate(state_a, state_b).value

    def __call__(self, state_a: MultipolarState, state_b: MultipolarState) -> float:
        return self.distance(state_a, state_b)

    def evaluate(
        self, state_a: MultipolarState, state_b: MultipolarState
    ) -> MultipolarSNDResult:
        """k-pole SND with per-term values and pipeline diagnostics.

        Cache-free like the bipolar single-pair path; term order and
        summation are direction-major, pole-minor (the Eq. 3 order at
        ``k = 2``, which the bit-identity contract depends on).
        """
        self._check_state(state_a)
        self._check_state(state_b)
        k = self.n_poles
        stats = tuple(FastTermStats() for _ in range(2 * k))
        terms = []
        for i, (sup, con) in enumerate(((state_a, state_b), (state_b, state_a))):
            for pole in self.poles:
                terms.append(
                    self.term(sup, con, pole, stats=stats[i * k + pole - 1])
                )
        return MultipolarSNDResult(
            value=0.5 * sum(terms), terms=tuple(terms), stats=stats
        )

    # ------------------------------------------------------------------ #
    # Batch evaluation through the shared cache hierarchy
    # ------------------------------------------------------------------ #

    def _pair_cached(
        self,
        a: MultipolarState,
        b: MultipolarState,
        cache: GroundCostCache,
        row_cache=None,
        basis_cache=None,
    ) -> float:
        """One evaluation with ground costs drawn from *cache* (the k-pole
        sibling of :func:`repro.snd.engine._pair_distance`; same term
        order, value-preserving cache layers only)."""
        ground, graph = self.snd.ground, self.snd.graph
        terms = []
        for sup, con in ((a, b), (b, a)):
            for pole in self.poles:
                proj_sup = sup.polar_projection(pole)
                proj_con = con.polar_projection(pole)
                key_sup = GroundCostCache.fingerprint(proj_sup)
                key_con = GroundCostCache.fingerprint(proj_con)
                terms.append(
                    self.snd.term(
                        proj_sup,
                        proj_con,
                        POSITIVE,
                        edge_costs=cache.edge_costs(
                            ground, graph, proj_sup, POSITIVE
                        ),
                        row_cache=row_cache,
                        cost_key=(key_sup, POSITIVE),
                        basis_cache=basis_cache,
                        basis_key=(key_sup, key_con, POSITIVE),
                    )
                )
        return 0.5 * sum(terms)

    def evaluate_series(
        self,
        series: MultipolarSeries,
        *,
        window: int | None = None,
    ) -> np.ndarray:
        """Adjacent-state distances ``d_t = SND_k(G_t, G_{t+1})``.

        Runs serially through the instance cache hierarchy: ground-cost
        arrays (one per live projection), Dijkstra rows, finished
        transitions (keyed by the multipolar content fingerprints, so a
        repeated or window-shifted sweep re-solves only fresh
        transitions), and the basis store (read only by network-simplex
        solves).
        *window* is accepted for interface parity with the bipolar path:
        transition memoisation already gives the incremental sliding-window
        behaviour, so the value is identical for every window size.
        """
        del window  # value-identical either way; transitions are memoised
        for state in series:
            self._check_state(state)
        caches = self.caches
        out = np.empty(max(len(series) - 1, 0), dtype=np.float64)
        for t, (a, b) in enumerate(series.transitions()):
            cached = caches.transitions.get(a, b)
            if cached is not None:
                out[t] = cached
                continue
            value = self._pair_cached(
                a, b, caches.ground, row_cache=caches.rows, basis_cache=caches.bases
            )
            caches.transitions.put(a, b, value)
            out[t] = value
        return out

    def pairwise_matrix(self, states) -> np.ndarray:
        """Symmetric all-pairs ``SND_k`` matrix (upper triangle evaluated
        once; the construction is symmetric, the diagonal exactly 0)."""
        states = list(states)
        for state in states:
            self._check_state(state)
        n = len(states)
        cache = self.caches.ground
        if cache.maxsize < self.n_poles * n:
            # Right-size transiently so each state's k projected cost
            # arrays are built once (mirrors SND.pairwise_matrix).
            cache = GroundCostCache(self.n_poles * n)
        matrix = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                value = self._pair_cached(
                    states[i],
                    states[j],
                    cache,
                    row_cache=self.caches.rows,
                    basis_cache=self.caches.bases,
                )
                matrix[i, j] = matrix[j, i] = value
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultipolarSND(n={self.graph.num_nodes}, k={self.n_poles}, "
            f"model={self.snd.model.name}, solver={self.snd.solver})"
        )
