"""The :class:`SND` facade — Social Network Distance (Eq. 3).

.. math::
   SND(G_1, G_2) = \\tfrac{1}{2}\\bigl[
       EMD^*(G_1^+, G_2^+, D(G_1,+)) + EMD^*(G_1^-, G_2^-, D(G_1,-)) +
       EMD^*(G_2^+, G_1^+, D(G_2,+)) + EMD^*(G_2^-, G_1^-, D(G_2,-))\\bigr]

Opposite-polarity users are treated as neutral inside each polarity
histogram (``NetworkState.histogram``), the ground distance is rebuilt for
the supplier-side state of each term, and each term runs through the fast
Theorem 4 pipeline (:mod:`repro.snd.fast`): every reduced instance is one
bank-folded dense transportation problem, solved by the ``solver=`` of
choice (``"auto"`` — the network simplex, or the certified
``"sinkhorn-hybrid"`` on very large instances). The construction is
symmetric by design, so SND applies to time-unordered state pairs.

Batch workloads (series sweeps, pairwise matrices) go through
:meth:`SND.evaluate_series` / :meth:`SND.pairwise_matrix`, which share a
:class:`~repro.snd.cache.GroundCostCache` of Eq. 2 cost arrays and accept a
``jobs=`` parallel fan-out (see :mod:`repro.snd.batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import StateError, ValidationError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState, StateSeries
from repro.snd.banks import BankAllocation, allocate_banks
from repro.snd.batch import evaluate_series, pairwise_matrix
from repro.snd.cache import (
    CacheManager,
    DijkstraRowCache,
    GroundCostCache,
    TransitionCache,
)
from repro.snd.fast import SOLVER_CHOICES, FastTermStats, emd_star_term_fast
from repro.snd.ground import DEFAULT_MAX_COST, GroundDistanceConfig

__all__ = ["SND", "SNDResult"]


@dataclass
class SNDResult:
    """A fully itemised SND evaluation (term order as in Eq. 3)."""

    value: float
    terms: tuple[float, float, float, float]
    stats: tuple[FastTermStats, FastTermStats, FastTermStats, FastTermStats]

    @property
    def n_delta(self) -> int:
        """Changed users observed across the positive/negative terms."""
        return max(
            self.stats[0].n_suppliers + self.stats[0].n_consumers,
            self.stats[1].n_suppliers + self.stats[1].n_consumers,
        )


class SND:
    """Social Network Distance over a fixed graph and opinion model.

    Parameters
    ----------
    graph:
        The social network (direction = influence flow).
    model:
        Opinion model supplying spreading penalties; defaults to
        :class:`ModelAgnostic`.
    banks:
        A :class:`BankAllocation`, or ``None`` to allocate with *strategy* /
        *n_clusters* / *n_banks* below.
    strategy, n_clusters, n_banks:
        Bank-allocation knobs (see :func:`repro.snd.banks.allocate_banks`).
    communication_penalties, adoption_penalties:
        Optional ``-log P`` / ``-log Pin`` terms of Eq. 2.
    max_cost:
        Assumption-2 integer bound ``U``.
    engine:
        Shortest-path engine: ``"scipy"`` (default) or ``"python"``.
    heap:
        Heap for the python engine: ``"binary"``, ``"radix"``, ``"pairing"``.
    solver:
        Reduced-problem solver: ``"ssp"`` (default), ``"lp"``,
        ``"network-simplex"`` (warm-startable sparse simplex; the engine
        threads cached bases through it on temporally local workloads),
        ``"sinkhorn-hybrid"`` (approximate, with a certified per-solve
        error bound), or ``"auto"`` (the network simplex; large reduced
        instances route to the hybrid tier).
    hybrid_cells:
        ``solver="auto"`` escalation threshold: reduced instances with at
        least this many cost-matrix cells route to the approximate hybrid
        tier. ``"auto"`` keeps the library default
        (:data:`repro.flow.AUTO_HYBRID_CELLS`); ``None`` disables the
        hybrid tier so ``auto`` stays exact at every size.

    Examples
    --------
    >>> from repro.graph import erdos_renyi_graph
    >>> from repro.opinions import NetworkState
    >>> g = erdos_renyi_graph(30, 0.2, seed=1)
    >>> snd = SND(g, n_clusters=2, seed=0)
    >>> a = NetworkState.from_active_sets(30, positive=[0, 1], negative=[5])
    >>> b = NetworkState.from_active_sets(30, positive=[0, 2], negative=[5])
    >>> snd.distance(a, a)
    0.0
    >>> snd.distance(a, b) > 0
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        model: OpinionModel | None = None,
        *,
        banks: BankAllocation | None = None,
        strategy: str = "cluster",
        n_clusters: int | None = None,
        n_banks: int = 1,
        communication_penalties: np.ndarray | None = None,
        adoption_penalties: np.ndarray | None = None,
        max_cost: int = DEFAULT_MAX_COST,
        quantize: bool = True,
        engine: str = "scipy",
        heap: str = "binary",
        solver: str = "ssp",
        hybrid_cells: "int | str | None" = "auto",
        bank_metric: str = "nearest",
        bank_shares: str = "mass",
        seed=None,
    ) -> None:
        self.graph = graph
        self.model = model if model is not None else ModelAgnostic()
        if banks is None:
            banks = allocate_banks(
                graph,
                strategy=strategy,
                n_clusters=n_clusters,
                n_banks=n_banks,
                max_cost=max_cost,
                seed=seed,
            )
        banks.validate(graph.num_nodes)
        self.banks = banks
        self.ground = GroundDistanceConfig(
            model=self.model,
            communication_penalties=communication_penalties,
            adoption_penalties=adoption_penalties,
            max_cost=max_cost,
            quantize=quantize,
        )
        if engine not in ("scipy", "python"):
            raise ValidationError(f"unknown engine {engine!r}")
        if solver not in SOLVER_CHOICES:
            raise ValidationError(
                f"unknown solver {solver!r}; expected one of {sorted(SOLVER_CHOICES)}"
            )
        if hybrid_cells is not None and hybrid_cells != "auto":
            if not isinstance(hybrid_cells, (int, np.integer)) or hybrid_cells < 1:
                raise ValidationError(
                    f"hybrid_cells must be a positive integer, None, or "
                    f"'auto', got {hybrid_cells!r}"
                )
            hybrid_cells = int(hybrid_cells)
        self.engine = engine
        self.heap = heap
        self.solver = solver
        self.hybrid_cells = hybrid_cells
        self.bank_metric = bank_metric
        self.bank_shares = bank_shares
        self._caches: CacheManager | None = None

    # ------------------------------------------------------------------ #

    def _check_state(self, state: NetworkState) -> None:
        if state.n != self.graph.num_nodes:
            raise StateError(
                f"state covers {state.n} users, graph has {self.graph.num_nodes}"
            )

    def term(
        self,
        supplier_state: NetworkState,
        consumer_state: NetworkState,
        opinion: int,
        *,
        edge_costs: np.ndarray | None = None,
        row_cache: DijkstraRowCache | None = None,
        cost_key=None,
        basis_cache=None,
        basis_key=None,
        stats: FastTermStats | None = None,
    ) -> float:
        """One EMD* term: mass of *opinion* moving from *supplier_state*'s
        adopters to *consumer_state*'s adopters under the ground distance
        built from *supplier_state*.

        *edge_costs* short-circuits the Eq. 2 build with a precomputed
        CSR-aligned cost array (the batch engine passes cached arrays); it
        must equal ``self.ground.edge_costs(graph, supplier_state, opinion)``.
        *row_cache* / *cost_key* (the batch engine's ``(state fingerprint,
        opinion)`` content key for *edge_costs*) additionally reuse
        per-source Dijkstra rows across terms — value-preserving, see
        :class:`~repro.snd.cache.DijkstraRowCache`. *basis_cache* /
        *basis_key* (the term's ``(supplier fingerprint, consumer
        fingerprint, opinion)`` key) thread spanning-tree warm starts
        through basis-carrying solvers — also value-preserving, see
        :class:`~repro.snd.cache.BasisCache`.
        """
        self._check_state(supplier_state)
        self._check_state(consumer_state)
        if edge_costs is None:
            edge_costs = self.ground.edge_costs(self.graph, supplier_state, opinion)
        return emd_star_term_fast(
            self.graph,
            supplier_state.histogram(opinion),
            consumer_state.histogram(opinion),
            edge_costs,
            self.banks,
            max_cost=self.ground.max_cost,
            engine=self.engine,
            heap=self.heap,
            solver=self.solver,
            hybrid_cells=self.hybrid_cells,
            bank_metric=self.bank_metric,
            bank_shares=self.bank_shares,
            row_cache=row_cache,
            cost_key=cost_key,
            basis_cache=basis_cache,
            basis_key=basis_key,
            stats=stats,
        )

    def distance(self, state_a: NetworkState, state_b: NetworkState) -> float:
        """SND between two states (Eq. 3)."""
        return self.evaluate(state_a, state_b).value

    def evaluate(self, state_a: NetworkState, state_b: NetworkState) -> SNDResult:
        """SND with per-term values and pipeline diagnostics."""
        stats = tuple(FastTermStats() for _ in range(4))
        terms = (
            self.term(state_a, state_b, POSITIVE, stats=stats[0]),
            self.term(state_a, state_b, NEGATIVE, stats=stats[1]),
            self.term(state_b, state_a, POSITIVE, stats=stats[2]),
            self.term(state_b, state_a, NEGATIVE, stats=stats[3]),
        )
        return SNDResult(value=0.5 * sum(terms), terms=terms, stats=stats)

    # ------------------------------------------------------------------ #
    # Batch evaluation (see repro.snd.batch)
    # ------------------------------------------------------------------ #

    @property
    def caches(self) -> CacheManager:
        """The instance-level cache hierarchy shared by every entry point.

        Created lazily; single-pair calls are cache-free, but the batch
        wrappers, :class:`~repro.snd.engine.SNDEngine`, the distance
        registry, and :class:`~repro.snd.engine.Corpus` all draw from this
        one :class:`~repro.snd.cache.CacheManager` unless handed an
        explicit hierarchy, so repeated sweeps over overlapping states
        (sliding windows, matrix extensions, streams) reuse earlier work.
        """
        if self._caches is None:
            self._caches = CacheManager()
        return self._caches

    @property
    def ground_cache(self) -> GroundCostCache:
        """The instance-level ground-cost cache (``caches.ground``):
        Eq. 2 cost arrays keyed by state content and polarity."""
        return self.caches.ground

    @property
    def row_cache(self) -> DijkstraRowCache:
        """The instance-level per-source Dijkstra row cache
        (``caches.rows``); reuses rows of sources whose supplier-side
        costs did not change between terms (value-preserving — see
        :class:`~repro.snd.cache.DijkstraRowCache`)."""
        return self.caches.rows

    @property
    def transition_cache(self) -> TransitionCache:
        """The instance-level cache of finished transition values
        (``caches.transitions``); windowed sweeps (``window=``) draw from
        it so a window shifted by one state re-solves exactly one
        transition."""
        return self.caches.transitions

    def create_engine(self, *, jobs="auto", executor: str = "process", **kwargs):
        """A persistent :class:`~repro.snd.engine.SNDEngine` over this
        instance, sharing its cache hierarchy (see
        :mod:`repro.snd.engine`). The caller owns its lifetime — use it as
        a context manager or call ``close()``. (Named ``create_engine``
        because :attr:`engine` is the shortest-path engine knob.)
        """
        from repro.snd.engine import SNDEngine

        return SNDEngine(self, jobs=jobs, executor=executor, **kwargs)

    def evaluate_series(
        self,
        series: StateSeries,
        *,
        jobs: int | None = None,
        cache: GroundCostCache | None = None,
        executor: str = "process",
        transitions: TransitionCache | None = None,
        row_cache: DijkstraRowCache | None = None,
        window: int | None = None,
    ) -> np.ndarray:
        """Adjacent-state distances with ground-cost caching and an
        optional ``jobs``-way parallel fan-out.

        ``window=W`` switches to incremental sliding-window evaluation:
        the series is processed through overlapping length-``W`` windows
        sharing the instance :attr:`transition_cache`, so each one-state
        shift re-solves exactly one fresh transition (repeat calls over
        overlapping series reuse earlier sweeps the same way). The
        returned ``(T-1,)`` array is bit-identical to the from-scratch
        sweep in every mode; see :func:`repro.snd.batch.evaluate_series`
        for the caching and parallelism contract.
        """
        if window is not None and transitions is None:
            transitions = self.transition_cache
        return evaluate_series(
            self,
            series,
            jobs=jobs,
            cache=cache if cache is not None else self.ground_cache,
            executor=executor,
            transitions=transitions,
            row_cache=row_cache if row_cache is not None else self.row_cache,
            window=window,
        )

    def pairwise_matrix(
        self,
        states,
        *,
        jobs: int | None = None,
        cache: GroundCostCache | None = None,
        executor: str = "process",
        row_cache: DijkstraRowCache | None = None,
    ) -> np.ndarray:
        """Symmetric all-pairs SND matrix (upper triangle evaluated once).

        See :func:`repro.snd.batch.pairwise_matrix`.
        """
        states = list(states)
        if cache is None:
            cache = self.ground_cache
            if cache.maxsize < 2 * len(states):
                # The instance cache is too small to hold every state's two
                # cost arrays — a transient right-sized cache keeps builds
                # at 2N without permanently pinning 2N arrays on the
                # instance (a long-lived SNDEngine grows its own hierarchy
                # instead, by explicit opt-in).
                cache = GroundCostCache(2 * len(states))
        return pairwise_matrix(
            self,
            states,
            jobs=jobs,
            cache=cache,
            executor=executor,
            row_cache=row_cache if row_cache is not None else self.row_cache,
        )

    def distance_series(self, series: StateSeries) -> np.ndarray:
        """Distances between adjacent states: ``d_t = SND(G_{t-1}, G_t)``.

        Returns an array of length ``len(series) - 1``. Runs through the
        cached serial batch path (identical values, half the ground-cost
        builds); pass ``jobs=`` to :meth:`evaluate_series` to parallelise.
        """
        return self.evaluate_series(series)

    def __call__(self, state_a: NetworkState, state_b: NetworkState) -> float:
        return self.distance(state_a, state_b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SND(n={self.graph.num_nodes}, model={self.model.name}, "
            f"clusters={self.banks.n_clusters}, banks={self.banks.n_banks}, "
            f"engine={self.engine}, solver={self.solver})"
        )
