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
choice (``"auto"`` is the exact network simplex at every size). The
construction is
symmetric by design, so SND applies to time-unordered state pairs.

``SND._sum_terms`` is the only Eq. 3 loop: :meth:`SND.evaluate` runs it
cache-free, and :class:`~repro.snd.engine.SNDEngine` runs it through its
cache hierarchy, serially and in pool workers. It walks a term list of
``(supplier, consumer, opinion)`` triples; the k-pole
:class:`~repro.multipolar.snd.MultipolarSND` is an ``SND`` whose term
list holds pole projections.

Batch workloads (series sweeps, pairwise matrices) go through
:meth:`SND.evaluate_series` / :meth:`SND.pairwise_matrix`, which run a
one-call :class:`~repro.snd.engine.SNDEngine` over the instance's cache
hierarchy and accept a ``jobs=`` parallel fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import StateError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState, StateSeries
from repro.snd.banks import BankAllocation, allocate_banks
from repro.snd.cache import (
    CacheManager,
    DijkstraRowCache,
    GroundCostCache,
    TransitionCache,
)
from repro.snd.fast import (
    FastTermStats,
    MirrorHandoff,
    SolverCounts,
    check_term_options,
    mirror_reduction,
    reduce_term,
    solve_reduced_term,
    term_bound,
    term_hops,
)
from repro.snd.ground import DEFAULT_MAX_COST, GroundDistanceConfig, unreachable_cost

__all__ = ["SND", "SNDResult"]


def _check_users(graph: DiGraph, state) -> None:
    if state.n != graph.num_nodes:
        raise StateError(f"state covers {state.n} users, graph has {graph.num_nodes}")


def _mirrors(terms) -> dict[int, int]:
    """``{i: j}`` for each term ``i = (c, s, o)`` whose mirror ``j = (s, c,
    o)`` (the same states, swapped, at the same opinion) comes earlier in
    *terms*; each term pairs at most once."""
    first: dict = {}
    out = {}
    for i, (supplier, consumer, opinion) in enumerate(terms):
        j = first.pop((id(consumer), id(supplier), opinion), None)
        if j is None:
            first.setdefault((id(supplier), id(consumer), opinion), i)
        else:
            out[i] = j
    return out


@dataclass
class SNDResult:
    """A fully itemised SND evaluation: ``terms`` and ``stats`` follow the
    summation order of :meth:`SND.evaluate` (Eq. 3's order for bipolar
    SND; direction-major, pole-minor for k-pole SND)."""

    value: float
    terms: tuple[float, ...]
    stats: tuple[FastTermStats, ...]

    @property
    def n_delta(self) -> int:
        """Changed users observed across the first direction's terms."""
        return max(
            s.n_suppliers + s.n_consumers for s in self.stats[: len(self.stats) // 2]
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
    solver:
        Reduced-problem solver: ``"ssp"`` (default), ``"lp"``,
        ``"network-simplex"`` (warm-startable sparse simplex; the engine
        threads cached bases through it on temporally local workloads),
        or ``"auto"`` (the network simplex at every size).

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
        solver: str = "ssp",
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
        check_term_options(solver, bank_metric, bank_shares)
        self.solver = solver
        self.bank_metric = bank_metric
        self.bank_shares = bank_shares
        self._caches: CacheManager | None = None

    # ------------------------------------------------------------------ #

    #: Poles of the opinion space (Eq. 3: positive and negative); each state
    #: contributes one cost array per pole to a pair.
    n_poles = 2

    def _check_state(self, state: NetworkState) -> None:
        _check_users(self.graph, state)

    def state_from_row(self, row: np.ndarray) -> NetworkState:
        """Rebuild a state from an int8 opinion row (pool workers read the
        engine's states this way from shared memory)."""
        return NetworkState(row)

    def _pair_terms(self, a, b) -> list[tuple[NetworkState, NetworkState, int]]:
        """Eq. 3's terms as ``(supplier, consumer, opinion)`` triples, in
        summation order."""
        return [(a, b, POSITIVE), (a, b, NEGATIVE), (b, a, POSITIVE), (b, a, NEGATIVE)]

    def _sum_terms(
        self,
        a,
        b,
        *,
        caches: CacheManager | None = None,
        basis_cache=None,
        stats: list[FastTermStats] | None = None,
        counts: SolverCounts | None = None,
    ) -> tuple[float, tuple[float, ...]]:
        """The Eq. 3 sum ``(value, terms)``: every :meth:`_pair_terms` term
        through :meth:`term`, in order, summed left to right.

        A term and its mirror (supplier and consumer swapped, same
        opinion) share one :class:`~repro.snd.fast.MirrorHandoff`: the
        first hands the second its reduction and, on certified rows, the
        radii its optimal duals give each row source
        (:func:`~repro.snd.fast.solve_reduced_term`). Nothing else crosses
        terms, and the hand-off ends with the call.

        :meth:`evaluate` runs it cache-free and collects one
        :class:`FastTermStats` per term into *stats*. The engine passes
        *caches* (ground costs, Dijkstra rows) and *basis_cache*, keyed by
        the supplier's and consumer's content fingerprints; every cache
        layer is value-preserving. Every solve is added to *counts* when
        given (the engine counts its solver work this way).
        """
        self._check_state(a)
        self._check_state(b)
        terms = []
        pair_terms = self._pair_terms(a, b)
        handoffs = {}
        for i, j in _mirrors(pair_terms).items():
            handoffs[i] = handoffs[j] = MirrorHandoff()
        for i, (supplier, consumer, opinion) in enumerate(pair_terms):
            kwargs = {"counts": counts, "mirror": handoffs.get(i)}
            if caches is not None:
                fp_sup = GroundCostCache.fingerprint(supplier)
                kwargs.update(
                    edge_costs=caches.ground.edge_costs(
                        self.ground, self.graph, supplier, opinion
                    ),
                    row_cache=caches.rows,
                    cost_key=(fp_sup, opinion),
                    basis_cache=basis_cache,
                    basis_key=(fp_sup, GroundCostCache.fingerprint(consumer), opinion),
                )
            if stats is not None:
                stats.append(FastTermStats())
                kwargs["stats"] = stats[-1]
            terms.append(self.term(supplier, consumer, opinion, **kwargs))
        return 0.5 * sum(terms), tuple(terms)

    def lower_bound(self, a, b, caches: CacheManager | None = None, terms=None) -> float:
        """A lower bound on ``SND(a, b)`` that searches no rows and solves
        nothing: half the sum of :func:`~repro.snd.fast.emd_star_term_bound`
        over :meth:`_pair_terms`. It holds for every solver, bank metric and
        share rule, and assumes no metric (see ``docs/measures.md``).

        *caches* supplies the Eq. 2 cost arrays from its ground cache, so
        an exact solve of the same pair afterwards builds none of them. A
        term's mirror takes its reduction, as in :meth:`_sum_terms`. A
        *terms* list receives each term's ``(reduction, edge costs)``, for
        :meth:`hop_bound`.
        """
        self._check_state(a)
        self._check_state(b)
        pair_terms = self._pair_terms(a, b)
        mirrors = _mirrors(pair_terms)
        unreachable = unreachable_cost(self.graph.num_nodes, self.ground.max_cost)
        reduced, bounds = [], []
        for i, (supplier, consumer, opinion) in enumerate(pair_terms):
            if caches is None:
                edge_costs = self.ground.edge_costs(self.graph, supplier, opinion)
            else:
                edge_costs = caches.ground.edge_costs(
                    self.ground, self.graph, supplier, opinion
                )
            if i in mirrors:
                term = mirror_reduction(reduced[mirrors[i]])
            else:
                term = reduce_term(
                    supplier.histogram(opinion), consumer.histogram(opinion),
                    self.banks, self.bank_shares,
                )
            reduced.append(term)
            bounds.append(term_bound(term, edge_costs, self.banks, unreachable=unreachable))
            if terms is not None:
                terms.append((term, edge_costs))
        return 0.5 * sum(bounds)

    def hop_bound(self, terms) -> float:
        """The hop-aware lower bound on the pair whose :meth:`lower_bound`
        filled *terms*: at least that bound, and still no row and no solve
        (:func:`~repro.snd.fast.term_bound` with hops).

        One hop search (:func:`~repro.snd.fast.term_hops`) serves every
        term with the same ``src`` users and direction.
        """
        graph = self.graph
        unreachable = unreachable_cost(graph.num_nodes, self.ground.max_cost)
        searched: dict = {}
        bounds = []
        for term, edge_costs in terms:
            hops = None
            if term is not None and term.src_ids.size:
                key = (term.forward, term.src_ids.tobytes())
                if key not in searched:
                    searched[key] = term_hops(graph, term)
                hops = searched[key]
            bounds.append(term_bound(
                term, edge_costs, self.banks, unreachable=unreachable, hops=hops,
                bank_metric=self.bank_metric,
            ))
        return 0.5 * sum(bounds)

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
        counts: SolverCounts | None = None,
        mirror: MirrorHandoff | None = None,
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
        through network-simplex solves — also value-preserving, see
        :class:`~repro.snd.cache.BasisCache`. *mirror* is the hand-off
        this term shares with its mirror term (see :meth:`_sum_terms`):
        once the mirror has filled it, this term takes its reduction from
        it instead of reducing the histograms again.
        """
        _check_users(self.graph, supplier_state)
        _check_users(self.graph, consumer_state)
        if edge_costs is None:
            edge_costs = self.ground.edge_costs(self.graph, supplier_state, opinion)
        if mirror is not None and mirror.ready:
            term = mirror.term
        else:
            term = reduce_term(
                supplier_state.histogram(opinion), consumer_state.histogram(opinion),
                self.banks, self.bank_shares,
            )
        return solve_reduced_term(
            term,
            self.graph,
            edge_costs,
            self.banks,
            max_cost=self.ground.max_cost,
            solver=self.solver,
            bank_metric=self.bank_metric,
            row_cache=row_cache,
            cost_key=cost_key,
            basis_cache=basis_cache,
            basis_key=basis_key,
            stats=stats,
            counts=counts,
            mirror=mirror,
        )

    def distance(self, state_a: NetworkState, state_b: NetworkState) -> float:
        """SND between two states (Eq. 3)."""
        return self.evaluate(state_a, state_b).value

    def evaluate(self, state_a: NetworkState, state_b: NetworkState) -> SNDResult:
        """SND with per-term values and pipeline diagnostics (cache-free)."""
        stats: list[FastTermStats] = []
        value, terms = self._sum_terms(state_a, state_b, stats=stats)
        return SNDResult(value=value, terms=terms, stats=tuple(stats))

    # ------------------------------------------------------------------ #
    # Batch evaluation (one-call engines, see repro.snd.engine)
    # ------------------------------------------------------------------ #

    @property
    def caches(self) -> CacheManager:
        """The instance-level cache hierarchy shared by every entry point.

        Created lazily; single-pair calls are cache-free, but the batch
        methods, :class:`~repro.snd.engine.SNDEngine`, the distance
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

    def create_engine(self, **kwargs):
        """A persistent :class:`~repro.snd.engine.SNDEngine` over this
        instance, sharing its cache hierarchy (see
        :mod:`repro.snd.engine`). The caller owns its lifetime — use it as
        a context manager or call ``close()``.
        """
        from repro.snd.engine import SNDEngine

        return SNDEngine(self, **kwargs)

    def evaluate_series(
        self, series: StateSeries, *, jobs: int | None = None, window: int | None = None
    ) -> np.ndarray:
        """Adjacent-state distances ``d_t = SND(G_t, G_{t+1})``, batched.

        Runs a one-call :class:`~repro.snd.engine.SNDEngine` over the
        instance caches: each state's cost arrays (one per pole) are built
        once and reused by both transitions touching it (``2·(T-1) + 2``
        builds instead of ``4·(T-1)`` for bipolar SND). ``jobs >= 2`` splits the transitions into
        contiguous chunks over a process pool that lives for this call;
        hold an engine (:meth:`create_engine`) to keep one warm across
        sweeps.

        ``window=W`` switches to incremental sliding-window evaluation:
        the series is processed through overlapping length-``W`` windows
        sharing the instance :attr:`transition_cache`, so each one-state
        shift re-solves exactly one fresh transition (repeat calls over
        overlapping series reuse earlier sweeps the same way). The
        returned ``(T-1,)`` array equals ``[self.distance(a, b) for a, b
        in series.transitions()]`` in every mode: bitwise for cold solvers,
        within 1e-9 when the engine warm-starts ``"auto"`` /
        ``"network-simplex"`` solves from its basis cache (see
        :mod:`repro.snd.engine`).
        """
        with self.create_engine(jobs=jobs) as engine:
            return engine.evaluate_series(series, window=window)

    def pairwise_matrix(self, states, *, jobs: int | None = None) -> np.ndarray:
        """Symmetric ``(N, N)`` SND matrix over *states*, upper triangle only.

        Eq. 3 is symmetric by construction, so only the ``N·(N-1)/2``
        pairs ``i < j`` are evaluated and mirrored; the diagonal is
        exactly 0. Each state's cost arrays are built once (``n_poles·N``
        builds). *states* may be a :class:`StateSeries` or any sequence of
        :class:`NetworkState`; 0- and 1-state inputs yield the trivial
        all-zero matrix.
        """
        states = list(states)
        caches = self.caches
        if caches.ground.maxsize < self.n_poles * len(states):
            # A right-sized ground cache for this call only keeps builds at
            # one per state and pole without pinning those cost arrays on
            # the instance (a long-lived SNDEngine grows the shared cache
            # instead).
            caches = CacheManager(
                ground=GroundCostCache(self.n_poles * len(states)),
                rows=caches.rows,
                transitions=caches.transitions,
                bases=caches.bases,
            )
        with self.create_engine(jobs=jobs, caches=caches) as engine:
            return engine.pairwise_matrix(states)

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
            f"{type(self).__name__}(n={self.graph.num_nodes}, poles={self.n_poles}, "
            f"model={self.model.name}, "
            f"clusters={self.banks.n_clusters}, banks={self.banks.n_banks}, "
            f"solver={self.solver})"
        )
