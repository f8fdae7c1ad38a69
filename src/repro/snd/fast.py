"""The linear-time SND computation (Theorem 4, §5).

Each EMD* term runs four stages over one :class:`ReducedTerm` record:

1. **Reduce** (:func:`reduce_term`, Lemmas 1-2): cancel per-bin common
   mass; the surviving suppliers/consumers are exactly the users whose
   opinion changed — at most ``n∆`` of each (Assumption 1). This stage
   also sizes the bank bins and decides the orientation, once: ``src`` is
   the bank-free side the shortest-path rows run from, ``dst`` the other
   side, which also hosts the bank bins (the lighter histogram's side;
   without a deficit there are no banks and ``src`` is the smaller side).
   A term's mirror (the histograms swapped, as Eq. 3's ``(b, a, o)`` is
   to ``(a, b, o)``) reduces to the same users, amounts and capacities,
   so :func:`mirror_reduction` reads its reduction off the term's, bit
   for bit.
2. **Price** (:func:`_price`), inside the certified rows loop: one
   single-source Dijkstra per ``src`` user (reversed when ``src`` holds
   the consumers) prices the ``d[src, dst]`` block, and under the default
   ``"nearest"`` bank metric those same rows also price every bank leg, so
   no extra shortest-path work is needed. Rows are per-source and depend
   only on the supplier-side edge costs, so batch sweeps hand in a
   :class:`~repro.snd.cache.DijkstraRowCache` to reuse rows of unchanged
   sources across terms and transitions.

   With such a cache (and ``"nearest"``) each row is searched only to a
   radius ``L_s`` (``scipy.sparse.csgraph.dijkstra(..., limit=L_s)``,
   sources sharing a radius in one call). Every user the search did not
   reach lies beyond ``L_s`` and is priced at ``L_s``, or at
   ``⌊L_s⌋ + 1`` when every edge cost is an integer (Assumption 2, as
   quantized Eq. 2 costs are; :class:`~repro.snd.ground.EdgeCosts`
   carries the fact, from the builder or one scan per array),
   and every unreached bank leg at that price plus γ: both are lower
   bounds, so the relaxed instance's optimum
   is at most the term. If its optimal plan ships only on exactly priced
   cells, its cost is that of a feasible plan of the true instance, so the
   plan is optimal there too. Otherwise the sources that ship on a bound
   cell search again, each to the radius at which its own row should
   settle ``SETTLED_GROWTH`` times its nodes (a power law fitted to the
   row's settled counts at its radius and at ``FIT_FRACTION`` of it), and
   the instance, whose shape does not change, is solved again warm from
   the basis just found. A row predicted past ``FULL_SEARCH_FRACTION`` of
   the graph is searched in full, and so is every partial row before the
   last of ``MAX_ROUNDS`` solves or once a round's failing rows would
   settle more nodes than the graph has. Only the grown rows are
   re-priced. The start
   radius is the median of the cache's recent certificate radii for a
   term with at least four row sources and their 75th percentile for a
   smaller one
   (:meth:`~repro.snd.cache.DijkstraRowCache.start_radius`); a term with
   no such record starts unlimited, which is exactly one round over full
   rows — so cache-free terms, and an engine's first terms, are bitwise
   what they were before the loop existed. A mirror term started where
   the record gives a finite radius starts each row at its own radius
   instead, ``ρ_s`` from the first term's optimal duals
   (:func:`_dual_radii`, :class:`MirrorHandoff`); under the term's own
   duals that radius certifies in one round. A certified plan may be a
   different optimal vertex than the full-row solve finds, so a value may
   move in its last bits (within 1e-12). The paper-literal ``"cluster"``
   metric additionally runs one multi-source Dijkstra per cluster hosting
   ``src`` users and always uses full rows.
3. **Fold** (:func:`_fold`): bank bins join ``dst`` as extra columns at
   per-pair cost ``leg + γ``, every axis gets a stable label, and the
   ``src x dst`` block becomes the supplier x consumer transportation
   instance.
4. **Solve** (:func:`_solve`): the instance goes to the solver.
   ``solver="auto"`` (via :func:`repro.flow.select_transport_method`) is
   the exact network simplex at every size. A network-simplex solve is
   warm-started from a :class:`~repro.snd.cache.BasisCache` when one is
   threaded; every other solver runs cold. Explicit ``"ssp"`` and
   ``"lp"`` solve the same folded instance exactly.

Under ``bank_metric="nearest"`` the result *exactly* equals the direct
(unreduced) EMD* — the extended ground distance is a semimetric, so the
Lemma 2 cancellation is lossless (property-tested against
:mod:`repro.snd.direct`). Under ``"cluster"`` the extended distance can
violate the triangle inequality across clusters (a route through a third
cluster's members can undercut the cluster-to-cluster distance), and the
reduction is exact only up to that defect.

:func:`emd_star_term_fast` runs the four stages: :func:`reduce_term`,
then :func:`solve_reduced_term`, which :meth:`repro.snd.snd.SND.term`
calls directly to hand a term's reduction and duals to its mirror.
:func:`emd_star_term_bound` (:func:`term_bound` of a reduction) runs the
reduce stage alone and returns a lower bound on the term: no rows, no
solve. Given hops from the ``src`` side (:func:`term_hops`, a capped
breadth-first search), :func:`term_bound` is tighter. ``Corpus.query``
ranks members by the first and checks the second before it solves one,
to solve only those that could still place.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

import repro.flow as flow
from repro.exceptions import ValidationError
from repro.flow import network_simplex, select_transport_method
# Unused here; kept because perfbench/tracer.py wraps this module-level name.
from repro.flow import solve_mcf_ssp  # noqa: F401
from repro.flow.basis import TransportBasis
from repro.flow.network_simplex import NetworkSimplexInfo
from repro.flow.problem import TransportationProblem
from repro.graph.digraph import DiGraph
from repro.shortestpath.dijkstra import multi_source_distances, search_matrix
from repro.snd.banks import BankAllocation
from repro.snd.ground import EdgeCosts, unreachable_cost

__all__ = [
    "emd_star_term_fast", "emd_star_term_bound", "check_term_options", "FastTermStats",
    "SolverCounts", "SOLVER_CHOICES", "reduce_term", "mirror_reduction", "term_bound",
    "unit_term_bounds", "solve_reduced_term", "MirrorHandoff", "term_hops",
]

_EPS = 1e-12

#: A row source whose certificate fails searches again to the radius at
#: which its own row should settle SETTLED_GROWTH times the nodes it
#: holds, by a power law fitted to its settled counts at its radius and at
#: FIT_FRACTION of it; at least one smallest edge cost further (a ball
#: grows by whole edges, so on integer costs a shorter step mostly settles
#: nothing new) and at most RADIUS_GROWTH times as far. Each search then
#: settles about as much as all the row's earlier ones together.
SETTLED_GROWTH = 2.0
FIT_FRACTION = 0.5
RADIUS_GROWTH = 3.0
#: A row whose predicted count passes this fraction of the graph is
#: searched in full; so is every partial row of a term whose failing rows
#: together would settle more nodes than the graph has (a plan that
#: ships past the radius from that many sources keeps failing on new
#: ones, each round a solve of a large instance).
FULL_SEARCH_FRACTION = 0.5
#: Every partial row is searched in full before a term's last solve: a
#: term takes at most this many (an unreachable target costs one full
#: search, and a term whose sources fail a few at a time a bounded number
#: of solves).
MAX_ROUNDS = 8

#: The hop-aware bound's search (:func:`term_hops`) stops at this depth: a
#: node further away prices as ``HOP_DEPTH + 1`` hops, still a lower bound.
HOP_DEPTH = 3

#: Valid values for the ``solver=`` knob of the fast pipeline (and of
#: :class:`repro.snd.snd.SND`). ``"auto"`` resolves to
#: ``"network-simplex"``, the warm-startable sparse simplex: paired with
#: a :class:`repro.snd.cache.BasisCache` it reuses the previous optimal
#: spanning tree across temporally local solves.
SOLVER_CHOICES = ("auto", "ssp", "lp", "network-simplex")


def check_term_options(solver: str, bank_metric: str, bank_shares: str) -> None:
    """Reject an unknown solver, bank metric or bank-share rule.

    :class:`~repro.snd.snd.SND` runs it at construction and
    :func:`emd_star_term_fast` before any work, so a bad option fails
    even on terms that would never consult it (no deficit, no banks).
    """
    if solver not in SOLVER_CHOICES:
        raise ValidationError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVER_CHOICES)}"
        )
    if bank_metric not in ("nearest", "cluster"):
        raise ValidationError(
            f"bank_metric must be 'nearest' or 'cluster', got {bank_metric!r}"
        )
    if bank_shares not in ("mass", "size"):
        raise ValidationError(
            f"bank_shares must be 'mass' or 'size', got {bank_shares!r}"
        )


@dataclass
class FastTermStats:
    """Diagnostics from one fast EMD* term (used by scalability benches)."""

    n_suppliers: int = 0
    n_consumers: int = 0
    n_sssp_runs: int = 0
    n_cluster_runs: int = 0
    #: Solves of the term: 1, plus one per round that searched further.
    rounds: int = 0
    #: Simplex pivots of the network-simplex solve (0 for other solvers).
    pivots: int = 0
    #: Whether the network-simplex solve started from a cached warm basis.
    warm_start: bool = False
    cost: float = 0.0
    solver: str = ""
    #: Nodes settled over the term's final rows (a full row settles every
    #: node the source reaches).
    n_settled: int = 0


@dataclass
class SolverCounts:
    """Network-simplex work summed over solves: the ``"network_simplex"``
    block of :meth:`repro.snd.engine.SNDEngine.stats`.

    :meth:`add` counts one solve from its ``plan.info``. Every field is a
    sum, so the counts of terms, pairs and pool workers merge exactly.
    """

    solves: int = 0
    warm_solves: int = 0
    cold_pivots: int = 0
    warm_pivots: int = 0
    warm_arcs_used: int = 0

    def add(self, info) -> None:
        """Count the solve *info* (a ``plan.info``) describes."""
        if not isinstance(info, NetworkSimplexInfo):
            return
        self.solves += 1
        if info.warm:
            self.warm_solves += 1
            self.warm_pivots += info.pivots
            self.warm_arcs_used += info.warm_arcs_used
        else:
            self.cold_pivots += info.pivots

    def merge(self, other: "SolverCounts") -> None:
        """Add *other*'s counts to these."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self) -> dict:
        """``{"network_simplex": {...}}``, JSON-ready."""
        cold, warm = self.solves - self.warm_solves, self.warm_solves
        return {
            "network_simplex": {
                "solves": self.solves, "cold_solves": cold, "warm_solves": warm,
                "cold_pivots": self.cold_pivots, "warm_pivots": self.warm_pivots,
                "cold_pivots_per_solve": self.cold_pivots / cold if cold else 0.0,
                "warm_pivots_per_solve": self.warm_pivots / warm if warm else 0.0,
                "warm_arcs_used": self.warm_arcs_used,
            },
        }


@dataclass
class ReducedTerm:
    """One EMD* term after Lemmas 1-2, oriented once.

    ``src`` is the bank-free side the shortest-path rows run from: the
    suppliers when *forward*, else the consumers (rows over reversed
    edges). ``dst`` is the other side; bank bins join it. *bank_caps* is
    ``(n_clusters, n_banks)`` and *active* lists the clusters with bank
    capacity (empty without a deficit).

    ``radius`` holds each ``src`` user's search radius (``None``: every
    row full) and ``rows`` its row, exact up to that radius (``inf``
    beyond). :func:`_price` fills
    ``d`` (``d[src, dst]``) and ``legs`` (``(src, active)``, ``None``
    without banks) from them: an unreached node costs the unreachable
    cost under a full row and a lower bound under a partial one (see
    :func:`_priced`). ``bound_d`` / ``bound_legs`` mark the
    entries that are such bounds (``None`` while every row is full).
    :func:`_certified_solve` counts its ``rounds``, their ``pivots`` and
    whether the first started warm. *totals* are the supplier and consumer
    histograms' masses (:func:`mirror_reduction` re-derives the
    orientation from them).
    """

    forward: bool
    src_ids: np.ndarray
    src_amounts: np.ndarray
    dst_ids: np.ndarray
    dst_amounts: np.ndarray
    bank_caps: np.ndarray
    active: np.ndarray
    n_suppliers: int
    n_consumers: int
    totals: tuple[float, float] = (0.0, 0.0)
    radius: np.ndarray | None = None
    rows: np.ndarray | None = None
    d: np.ndarray | None = None
    legs: np.ndarray | None = None
    bound_d: np.ndarray | None = None
    bound_legs: np.ndarray | None = None
    n_sssp_runs: int = 0
    n_cluster_runs: int = 0
    rounds: int = 0
    pivots: int = 0
    warm_start: bool = False


def _min_distance_from_set(
    graph: DiGraph,
    members: np.ndarray,
    edge_costs: np.ndarray,
    *,
    reverse: bool,
    matrix=None,
) -> np.ndarray:
    """``min_{s in members} dist(s -> v)`` for every node v (or ``v -> s``
    when *reverse*). One Dijkstra pass regardless of ``len(members)``.
    *matrix* is ``search_matrix(graph, edge_costs, reverse=reverse)`` when
    the caller already holds it."""
    n = graph.num_nodes
    base = search_matrix(graph, edge_costs, reverse=reverse) if matrix is None else matrix
    # Virtual super-source n with unit edges into the member set; the +1
    # offset avoids scipy's explicit-zero ambiguity and is subtracted back.
    indptr = np.append(base.indptr, base.indptr[-1] + len(members))
    indices = np.concatenate([base.indices, np.asarray(members, dtype=base.indices.dtype)])
    data = np.concatenate([base.data, np.ones(len(members))])
    matrix = csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))
    dist = sp_dijkstra(matrix, directed=True, indices=n)
    return np.maximum(dist[:n] - 1.0, 0.0)


def _distance_rows(
    graph: DiGraph,
    sources: np.ndarray,
    edge_costs: np.ndarray,
    *,
    reverse: bool,
    matrix,
    radius=np.inf,
    row_cache=None,
    cost_key=None,
) -> np.ndarray:
    """Per-source shortest-path rows, exact up to *radius* (one value or
    one per source; ``inf`` beyond it), drawn from *row_cache* when
    possible. *matrix* returns the term's search matrix (built once).

    Falls back to :func:`multi_source_distances` directly (identical
    values) when no cache or no content key is available; only full rows
    run that way, since the certified loop needs the cache's record.
    """
    if row_cache is None or cost_key is None:
        return multi_source_distances(
            graph, sources, weights=edge_costs, reverse=reverse, matrix=matrix()
        )
    return row_cache.distance_rows(
        graph, sources, edge_costs, reverse=reverse, cost_key=cost_key,
        radius=radius, matrix=matrix,
    )


def _cluster_minima(values: np.ndarray, banks: BankAllocation) -> np.ndarray:
    """Per-cluster minima over the last axis of *values* (one entry per
    node): one reduceat over cluster-sorted columns. Min is exact, so this
    equals a min over each cluster's member columns bit for bit."""
    order, starts = banks.cluster_order
    return np.minimum.reduceat(values.take(order, axis=-1), starts, axis=-1)


def _bank_capacities(
    histogram: np.ndarray, banks: BankAllocation, deficit: float, bank_shares: str
) -> np.ndarray:
    """Bank capacities, ``(n_clusters, n_banks)``, for a positive *deficit*.

    Must match :func:`repro.emd.emd_star.build_extension` exactly (the
    fast/direct equivalence depends on it).
    """
    cluster_mass = None
    if bank_shares == "mass":
        cluster_mass = np.bincount(
            banks.cluster_of(histogram.shape[0]), weights=histogram,
            minlength=banks.n_clusters,
        ).astype(np.float64)
    return _capacities(cluster_mass, banks, deficit, bank_shares)


def _capacities(cluster_mass, banks: BankAllocation, deficit, bank_shares: str) -> np.ndarray:
    """:func:`_bank_capacities` from the histogram's mass per cluster,
    ``(..., n_clusters)`` (unread under ``"size"``), for a deficit of
    shape ``(...)``: ``(..., n_clusters, n_banks)``, each entry by the
    same operations as one term's."""
    nb = banks.n_banks
    sizes = banks.cluster_sizes
    by_size = sizes / sizes.sum()
    if bank_shares == "size":
        shares = by_size
    else:  # "mass"
        total = cluster_mass.sum(axis=-1, keepdims=True)
        held = total > 0
        shares = np.where(held, cluster_mass / np.where(held, total, 1.0), by_size)
    caps = ((shares / nb) * np.asarray(deficit)[..., None])[..., None]
    return caps if nb == 1 else np.repeat(caps, nb, axis=-1)


# --------------------------------------------------------------------- #
# The four stages
# --------------------------------------------------------------------- #


def _forward(total_p: float, total_q: float, n_sup: int, n_con: int) -> bool:
    """The orientation rule: rows run from the suppliers (``True``) or the
    consumers. The lighter histogram hosts the banks, so rows run from the
    other side and the same rows price both the d block and (under
    "nearest") every bank leg; without a deficit they run from the smaller
    side."""
    if abs(total_p - total_q) > _EPS:
        return total_p >= total_q
    return n_sup <= n_con


def reduce_term(
    p_hist: np.ndarray, q_hist: np.ndarray, banks: BankAllocation, bank_shares: str
) -> ReducedTerm | None:
    """Lemmas 1-2, the bank bins and the orientation of the term moving
    *p_hist* onto *q_hist*; ``None`` when no mass moves at all."""
    p = np.asarray(p_hist, dtype=np.float64)
    q = np.asarray(q_hist, dtype=np.float64)
    total_p, total_q = float(p.sum()), float(q.sum())
    delta = abs(total_p - total_q)

    # Lemma 2: cancel common mass; Lemma 1: keep only non-empty bins. With
    # rest = p - q, a supplier keeps rest and a consumer -rest: bit for bit
    # p - min(p, q) and q - min(p, q) on every bin above _EPS (rounding is
    # sign-symmetric), and no other bin is read.
    rest = p - q
    sup_ids = np.flatnonzero(rest > _EPS)
    con_ids = np.flatnonzero(rest < -_EPS)
    if sup_ids.size == 0 and con_ids.size == 0 and delta <= _EPS:
        return None

    forward = _forward(total_p, total_q, sup_ids.size, con_ids.size)
    sup = (sup_ids, rest[sup_ids], p)
    con = (con_ids, -rest[con_ids], q)
    src, dst = (sup, con) if forward else (con, sup)

    bank_caps = np.zeros((banks.n_clusters, banks.n_banks))
    active = np.empty(0, dtype=np.int64)
    if delta > _EPS:
        bank_caps = _bank_capacities(dst[2], banks, delta, bank_shares)
        active = np.flatnonzero(bank_caps.sum(axis=1) > _EPS)
    return ReducedTerm(
        forward=forward,
        src_ids=src[0],
        src_amounts=src[1],
        dst_ids=dst[0],
        dst_amounts=dst[1],
        bank_caps=bank_caps,
        active=active,
        n_suppliers=int(sup_ids.size),
        n_consumers=int(con_ids.size),
        totals=(total_p, total_q),
    )


def mirror_reduction(term: ReducedTerm | None) -> ReducedTerm | None:
    """The reduction of *term*'s mirror, the term with the two histograms
    swapped: bit for bit what :func:`reduce_term` returns for it, read off
    *term* alone.

    ``q - p`` is ``-(p - q)`` bit for bit (rounding is sign-symmetric), so
    the mirror's suppliers are *term*'s consumers with the same amounts and
    vice versa. The totals swap, so the deficit is the same and the lighter
    histogram, which sizes the bank bins, is the same one: the capacities
    are shared. Only the orientation is derived again, by
    :func:`_forward`.
    """
    if term is None:
        return None
    src, dst = (term.src_ids, term.src_amounts), (term.dst_ids, term.dst_amounts)
    sup, con = (src, dst) if term.forward else (dst, src)
    total_p, total_q = term.totals
    # The mirror's suppliers are con, its consumers sup.
    forward = _forward(total_q, total_p, term.n_consumers, term.n_suppliers)
    src, dst = (con, sup) if forward else (sup, con)
    return ReducedTerm(
        forward=forward,
        src_ids=src[0],
        src_amounts=src[1],
        dst_ids=dst[0],
        dst_amounts=dst[1],
        bank_caps=term.bank_caps,
        active=term.active,
        n_suppliers=term.n_consumers,
        n_consumers=term.n_suppliers,
        totals=(total_q, total_p),
    )


def term_hops(graph: DiGraph, term: ReducedTerm) -> np.ndarray:
    """``H``: each node's hop distance from *term*'s nearest ``src`` user,
    along the direction its rows run (in-edges when it is not *forward*).

    Each level pushes the frontier over every edge at once, reading the
    graph's cached per-edge source and target arrays (swapped for a
    reversed term), and the search stops at :data:`HOP_DEPTH`: a node it
    did not reach is at least ``HOP_DEPTH + 1`` hops away and reads so, or
    ``inf`` (unreachable) when the search ran out of nodes first.
    """
    tails, heads = graph.edge_sources(), graph.indices
    if not term.forward:
        tails, heads = heads, tails
    hops = np.full(graph.num_nodes, np.inf)
    hops[term.src_ids] = 0.0
    frontier = hops == 0.0
    for level in range(1, HOP_DEPTH + 1):
        reached = heads[frontier[tails]]
        reached = reached[np.isinf(hops[reached])]
        if not reached.size:
            return hops
        hops[reached] = level
        frontier = hops == level
    hops[np.isinf(hops)] = HOP_DEPTH + 1
    return hops


def term_bound(
    term: ReducedTerm | None,
    edge_costs: np.ndarray | EdgeCosts,
    banks: BankAllocation,
    *,
    unreachable: float,
    hops: np.ndarray | None = None,
    bank_metric: str | None = None,
) -> float:
    """:func:`emd_star_term_bound` of the reduced *term* on a graph whose
    unreachable cost ``U`` is *unreachable*.

    With *hops* (``H = ``:func:`term_hops` of *term*), the bound counts
    hops too. A path to ``dst`` user t has at least ``H(t)`` edges, each
    costing at least ``c_min``, so a unit shipped to t costs at least
    ``min(c_min·H(t), U)`` (``U`` for an unreached t). Under ``"nearest"``
    a bin of cluster c sits at its nearest member's distance, so it costs
    at least ``γ_b + min(c_min·min_{v∈C_c} H(v), U)``; under
    *bank_metric* ``"cluster"`` its leg runs from the ``src`` user's whole
    cluster, and only ``γ_b`` is counted. Every price holds per column of
    every plan, so the sum is again at most the term, and at least the
    bound without hops (``H >= 1`` on ``dst``). *hops* needs *bank_metric*:
    a ``"nearest"`` leg priced under ``"cluster"`` may exceed the term.
    """
    if hops is not None and bank_metric is None:
        raise ValueError("term_bound with hops needs the bank metric")
    if term is None or term.src_ids.size == 0:
        return 0.0  # nothing to solve: the term is 0
    c_min = min(EdgeCosts.of(edge_costs).smallest, unreachable)
    bins = banks.gamma_matrix()
    if hops is None:
        banked = _banked(term.bank_caps[None], bins)[0]
        return float(banked) + c_min * float(term.dst_amounts.sum())
    reached = np.isfinite(hops)
    price = np.full(hops.shape, unreachable)
    price[reached] = np.minimum(c_min * hops[reached], unreachable)
    if bank_metric == "nearest":
        bins = bins + _cluster_minima(price, banks)[:, None]
    banked = float(_banked(term.bank_caps[None], bins)[0])
    return banked + float(term.dst_amounts @ price[term.dst_ids])


def _banked(caps: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """``Σ cap·bin`` over the live bins (capacity above ``_EPS``) of each
    of the terms whose capacities *caps*, ``(R, n_clusters, n_banks)``,
    holds, with each bin priced at *bins*, ``(n_clusters, n_banks)``.

    Each term's live products are summed by one numpy sum in row-major
    order, as a term alone is: rows are grouped by their count of live
    bins, and each group summed along its last axis, which numpy sums
    row by row exactly as it sums a vector. A bin with capacity only
    lives in a cluster with a deficit share, so this is the sum over the
    active clusters' live bins."""
    n_terms, width = caps.shape[0], caps.shape[1] * caps.shape[2]
    caps = caps.reshape(n_terms, width)
    live = caps > _EPS
    counts = live.sum(axis=1)
    # Rows by count, so each group is one slice; then each row's live
    # products first, in their order (dead bins read 0 after them).
    by_count = np.argsort(counts, kind="stable")
    live = live[by_count]
    products = np.where(live, caps[by_count] * np.reshape(bins, width), 0.0)
    products = np.take_along_axis(products, np.argsort(~live, axis=1, kind="stable"), axis=1)
    out = np.empty(n_terms)
    lo = 0
    for count, group in itertools.groupby(counts[by_count].tolist()):
        hi = lo + sum(1 for _ in group)
        out[by_count[lo:hi]] = products[lo:hi, :count].sum(axis=1)
        lo = hi
    return out


def unit_term_bounds(
    n_sup: np.ndarray,
    n_con: np.ndarray,
    common: np.ndarray,
    mass_sup: np.ndarray | None,
    mass_con: np.ndarray | None,
    c_sup: np.ndarray,
    c_con: np.ndarray,
    banks: BankAllocation,
    bank_shares: str,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`term_bound` (without hops) of ``reduce_term(p, q)`` and of
    its mirror ``reduce_term(q, p)``, for a batch of unit-mass histogram
    pairs, from counts alone and bit for bit.

    Of each pair, *n_sup* users hold ``p`` and *n_con* hold ``q``, and
    *common* hold both; *mass_sup* / *mass_con* count each side's holders
    per cluster (trailing axis ``n_clusters``; unread under ``"size"``),
    and *c_sup* / *c_con* are the smallest costs of ``p``'s and ``q``'s own
    Eq. 2 arrays, each at most ``U``. The arguments broadcast together.

    Lemma 2 leaves ``n_sup - common`` suppliers and ``n_con - common``
    consumers, one unit each. The heavier side is ``src``, so ``dst``
    holds ``min(n_sup, n_con) - common`` units and the lighter histogram
    sizes the deficit's bins: the same for a term and its mirror
    (:func:`mirror_reduction`), which differ only in whose smallest cost
    prices ``dst``. On equal counts there is no deficit and no bin, so
    either side may be called the lighter. A pair with ``p == q`` reads 0,
    as the term does.
    """
    lighter = None
    if bank_shares != "size":
        lighter = np.where((n_sup >= n_con)[..., None], mass_con, mass_sup)
    caps = _capacities(lighter, banks, np.abs(n_sup - n_con), bank_shares)
    banked = _banked(
        caps.reshape(-1, *caps.shape[-2:]), banks.gamma_matrix()
    ).reshape(caps.shape[:-2])
    moved = np.minimum(n_sup, n_con) - common
    return banked + c_sup * moved, banked + c_con * moved


def emd_star_term_bound(
    p_hist: np.ndarray,
    q_hist: np.ndarray,
    edge_costs: np.ndarray,
    banks: BankAllocation,
    *,
    max_cost: int,
    bank_shares: str = "mass",
) -> float:
    """A lower bound on the EMD* term :func:`emd_star_term_fast` returns
    for the same arguments, from :func:`reduce_term` alone: no Dijkstra
    rows and no solve.

    The reduced instance is balanced, so every plan ships each ``dst``
    amount in full and fills every live bank bin. A bin costs ``leg + γ_b
    >= γ_b`` per unit. A ``dst`` user is reached from another node (Lemma
    2 leaves ``src`` and ``dst`` disjoint): over at least one edge, or at
    the unreachable cost, so at least ``c_min``, the smaller of the two,
    per unit. ``Σ_b cap_b·γ_b + c_min·Σ dst`` is therefore at most the
    cost of any feasible plan, under either bank metric and share rule.
    No metric property of the ground distance is used. :func:`term_bound`
    with hops is tighter.
    """
    term = reduce_term(p_hist, q_hist, banks, bank_shares)
    return term_bound(
        term, edge_costs, banks, unreachable=unreachable_cost(np.size(p_hist), max_cost)
    )


def _price(
    term: ReducedTerm,
    graph: DiGraph,
    edge_costs: np.ndarray,
    banks: BankAllocation,
    *,
    unreachable: float,
    bank_metric: str,
    matrix,
    integral: bool,
    row_cache=None,
    cost_key=None,
    grow: np.ndarray | None = None,
) -> None:
    """Fill ``term.d`` (``d[src, dst]``) and, with banks, ``term.legs``:
    ``legs[k, a]`` joins ``src`` user k and the banks of active cluster a.

    Rows are searched to ``term.radius``; with *grow* (positions in
    ``src``) only those sources search again, to their new radius, and
    only their rows are re-priced. Every search runs on the matrix the
    zero-argument *matrix* returns. *integral* says every edge cost is an
    integer (see :func:`_priced`).
    """
    n = graph.num_nodes
    reverse = not term.forward
    first = grow is None
    if first:
        term.n_sssp_runs = int(term.src_ids.size)
        grow = slice(None)
    radius = None if term.radius is None else term.radius[grow]
    rows = np.empty((0, n))
    if term.src_ids.size:
        rows = _distance_rows(
            graph, term.src_ids[grow], edge_costs, reverse=reverse, matrix=matrix,
            radius=np.inf if radius is None else radius,
            row_cache=row_cache, cost_key=cost_key,
        )
    # Only the grown rows change, and so only their prices do.
    d = _priced(rows[:, term.dst_ids], radius, unreachable, integral)
    if first:
        term.rows = rows
        term.d, term.bound_d = d
    else:
        term.rows[grow] = rows
        term.d[grow], term.bound_d[grow] = d
    if not term.active.size:
        return

    if bank_metric == "nearest":
        # Min over each cluster's members of each row: src user -> banks of
        # the cluster, or banks -> user over reversed rows. A cluster with
        # one member within the radius has its exact minimum there.
        legs = _priced(
            _cluster_minima(rows, banks)[:, term.active], radius, unreachable, integral
        )
        if first:
            term.legs, term.bound_legs = legs
        else:
            term.legs[grow], term.bound_legs[grow] = legs
        return
    # "cluster": per-cluster multi-source runs for the d matrix (full rows)
    cluster_of = banks.cluster_of(n)
    d_block = np.full((banks.n_clusters, banks.n_clusters), np.inf)
    for a in np.unique(cluster_of[term.src_ids]).tolist():
        dist = _min_distance_from_set(
            graph, banks.member_arrays[a], edge_costs, reverse=reverse,
            matrix=matrix(),
        )
        per_cluster = _cluster_minima(dist, banks)
        d_block[a] = np.where(np.isfinite(per_cluster), per_cluster, unreachable)
        term.n_cluster_runs += 1
    legs = d_block[cluster_of[term.src_ids]][:, term.active]
    term.legs = np.where(np.isfinite(legs), legs, unreachable)


def _priced(
    values: np.ndarray, radius: np.ndarray | None, unreachable: float, integral: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(prices, bound)`` of per-source *values* read off rows searched
    to *radius* (``None``: full rows): an unreached entry costs
    *unreachable* under a full row and a lower bound under a partial one,
    and *bound* marks those lower bounds (``None`` for full rows).

    A search limited to ``r`` settles every node within ``r`` (the limit
    is inclusive), so an unreached node lies beyond ``r``; when every edge
    cost is an *integral* one, so is every distance, and the node is at
    least ``⌊r⌋ + 1`` away. The bound is ``min(⌊r⌋ + 1, unreachable)``
    then and ``min(r, unreachable)`` otherwise."""
    reached = np.isfinite(values)
    if radius is None:
        return np.where(reached, values, unreachable), None
    fill = np.minimum(np.floor(radius) + 1.0 if integral else radius, unreachable)[:, None]
    return np.where(reached, values, fill), np.isfinite(radius)[:, None] & ~reached


def _shipped(term: ReducedTerm, plan) -> np.ndarray:
    """The plan's positive-flow cells, ``src``-major: one column per
    ``dst`` user, then one per folded bank bin."""
    flows = plan.flows if term.forward else plan.flows.T
    return flows > 0


def _with_bins(users: np.ndarray, legs: np.ndarray | None, term: ReducedTerm) -> np.ndarray:
    """A per-cell array of the folded instance, ``src``-major: *users*,
    then *legs* repeated for each bank bin the fold keeps, in the order
    :func:`_fold_banks` lays the bins out in."""
    if legs is None:
        return users
    bins = np.nonzero(term.bank_caps[term.active] > _EPS)[0]
    return np.concatenate([users, legs[:, bins]], axis=1)


def _uncertified(term: ReducedTerm, plan) -> np.ndarray:
    """Positions in ``src`` of the sources the plan ships from on a
    bound-priced cell (empty: the plan is optimal for the true instance)."""
    bound = _with_bins(term.bound_d, term.bound_legs, term)
    return np.flatnonzero((_shipped(term, plan) & bound).any(axis=1))


def _certificate(term: ReducedTerm, plan) -> tuple[float, float]:
    """``(radius, settled)`` of a certified plan: the largest arc cost it
    ships on, bank legs taken without γ — searching every source that far
    would have priced each of its cells exactly — and the fraction of the
    term's row entries within that radius."""
    costs = _with_bins(term.d, term.legs, term)
    radius = float(costs[_shipped(term, plan)].max(initial=0.0))
    return radius, np.count_nonzero(term.rows <= radius) / max(term.rows.size, 1)


def _fold_banks(
    legs: np.ndarray,
    bank_caps: np.ndarray,
    gamma: np.ndarray,
    active_bank_clusters: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bank bins as extra columns of the bank-free side, in one gather.

    Returns ``(block, amounts, live)``: ``block[k, b] = legs[k, a] + γ`` for
    the b-th bin with capacity above ``_EPS``, bins running cluster-major
    and bin-minor over the active clusters; their capacities; and the
    ``(active clusters, n_banks)`` mask of the bins kept.
    """
    caps = bank_caps[active_bank_clusters]
    live = caps > _EPS
    block = (legs[:, :, None] + gamma[active_bank_clusters])[:, live]
    return block, caps[live], live


def _bank_labels(active_bank_clusters: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Stable labels ``-(1 + cluster·nb + bin)`` of the bins *live* keeps."""
    nb = live.shape[1]
    return -(1 + active_bank_clusters[:, None] * nb + np.arange(nb))[live]


def _fold(
    term: ReducedTerm, gamma: np.ndarray
) -> tuple[TransportationProblem, np.ndarray, np.ndarray]:
    """The term as one supplier x consumer instance plus its row and
    column labels: node ids for users, ``-(1 + cluster·nb + bin)`` for
    bank bins.

    Bank bins join ``dst`` as extra columns at per-pair cost ``leg + γ``
    (see :func:`_fold_banks`). The ``src x dst`` block is oriented
    supplier x consumer here and only here, as a C-ordered copy: every
    solver reads the block row-major (the network simplex's ``ravel``,
    HiGHS's ``reshape(-1)``), so a transposed view would only move that
    copy into each solver.
    """
    costs, dst_amounts, dst_labels = term.d, term.dst_amounts, term.dst_ids
    if term.legs is not None:
        block, bin_amounts, live = _fold_banks(
            term.legs, term.bank_caps, gamma, term.active
        )
        costs = np.concatenate([costs, block], axis=1)
        dst_amounts = np.concatenate([dst_amounts, bin_amounts])
        dst_labels = np.concatenate([dst_labels, _bank_labels(term.active, live)])
    # Non-negative and finite by construction: amounts above _EPS, costs
    # clamped to the unreachable cost, γ >= 0.
    rows = (term.src_amounts, term.src_ids)
    cols = (dst_amounts, dst_labels)
    if not term.forward:
        rows, cols, costs = cols, rows, costs.T
    problem = TransportationProblem._unchecked(
        rows[0], cols[0], np.ascontiguousarray(costs)
    )
    return problem, rows[1], cols[1]


def _label_positions(labels: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each *wanted* label in the unique, non-empty *labels*; -1
    where absent."""
    order = labels.argsort()
    at = labels.searchsorted(wanted, sorter=order)
    at[at == labels.size] = 0
    at = order[at]
    at[labels[at] != wanted] = -1
    return at


def _map_labeled_basis(
    basis: TransportBasis, row_labels: np.ndarray, col_labels: np.ndarray
) -> TransportBasis | None:
    """Re-anchor a label-space basis onto one instance's local indices.

    Cells survive only when *both* labels exist in the new instance —
    which is exactly the temporal-locality overlap the warm start
    exploits — and keep the hint's order. Returns ``None`` when nothing
    survives (a cold solve)."""
    if row_labels.size == 0 or col_labels.size == 0:
        return None
    rows = _label_positions(row_labels, basis.rows)
    cols = _label_positions(col_labels, basis.cols)
    keep = (rows >= 0) & (cols >= 0)
    if not keep.any():
        return None
    return TransportBasis(rows=rows[keep], cols=cols[keep])


def _solve(
    problem: TransportationProblem,
    row_labels: np.ndarray,
    col_labels: np.ndarray,
    method: str,
    *,
    basis_cache=None,
    basis_key=None,
    chain: list | None = None,
):
    """Solve the folded instance with *method* (``"ssp"``, ``"lp"`` —
    HiGHS —, or ``"network-simplex"`` — warm-startable).

    This is the one place the warm-start rule lives: only a
    ``"network-simplex"`` solve is warm-started, and every other method
    solves cold. *chain* links the certificate rounds of one term: a
    one-slot list that each network-simplex solve leaves its optimal
    basis (local indices) in, and that warm-starts the next round when
    set (the folded shape does not change between rounds). Otherwise, with
    a *basis_cache*/*basis_key* pair, the nearest cached basis is
    re-anchored onto the instance's labels to warm-start the solve. The
    optimal basis is stored back into *basis_cache*, in label space, under
    the term key.

    Returns the solver's :class:`~repro.flow.plan.TransportPlan` (its
    ``info`` carries the solve's diagnostics), or ``None`` when one side
    of the instance is empty and there is nothing to solve.
    """
    if problem.supplies.size == 0 or problem.demands.size == 0:
        return None
    if method != "network-simplex":
        return flow.solve_transportation(problem, method=method)

    cached = basis_cache is not None and basis_key is not None
    warm = chain[0] if chain else None
    if warm is None and cached:
        hint = basis_cache.get_warm(basis_key)
        if hint is not None:
            warm = _map_labeled_basis(hint, row_labels, col_labels)
    plan, basis = network_simplex.solve_transportation_network_simplex(
        problem, basis=warm, return_basis=True
    )
    if chain is not None:
        chain[:] = [basis]
    if cached and len(basis):
        basis_cache.put_term(
            basis_key,
            TransportBasis(rows=row_labels[basis.rows], cols=col_labels[basis.cols]),
        )
    return plan


def _grown_radii(
    rows: np.ndarray, radius: np.ndarray, unreachable: float, min_step: float
) -> np.ndarray:
    """The next search radius of each failing row (searched to *radius*),
    ``inf`` for a full search.

    Between ``FIT_FRACTION·r`` and ``r`` a row's settled count is fitted
    as ``c(ρ) ∝ ρ^α``, and the row grows to where that law reaches
    ``SETTLED_GROWTH·c(r)``: at least *min_step* and at most
    ``RADIUS_GROWTH·r`` further. A predicted count past
    ``FULL_SEARCH_FRACTION`` of the graph, or a radius past the
    unreachable cost (no finite distance lies beyond), searches in full.
    """
    settled = np.count_nonzero(rows <= radius[:, None], axis=1)
    inner = np.count_nonzero(rows <= FIT_FRACTION * radius[:, None], axis=1)
    with np.errstate(divide="ignore"):
        # inner >= 1 (the source itself); alpha == 0 takes the largest step.
        alpha = np.log(settled / np.maximum(inner, 1)) / np.log(1.0 / FIT_FRACTION)
        step = np.minimum(SETTLED_GROWTH ** (1.0 / alpha), RADIUS_GROWTH)
    grown = np.maximum(radius * step, radius + min_step)
    full = SETTLED_GROWTH * settled > FULL_SEARCH_FRACTION * rows.shape[1]
    grown[full | (grown >= unreachable)] = np.inf
    return grown


def _certified_solve(
    term: ReducedTerm,
    graph: DiGraph,
    costs: EdgeCosts,
    banks: BankAllocation,
    solver: str,
    *,
    price: dict,
    basis_cache=None,
    basis_key=None,
    counts: SolverCounts | None = None,
):
    """Fold → solve → check → extend until the plan ships only on exactly
    priced cells; returns ``(plan, resolved solver, problem, basis)``: the
    last round's folded instance and, from the network simplex, its
    optimal basis (``None`` from other solvers).

    Each round folds and solves the priced term. While some row is partial
    and the plan ships on a bound-priced cell, the sources shipping on one
    search again, each to the radius :func:`_grown_radii` fits to its own
    row; every partial row is searched in full instead before the last of
    ``MAX_ROUNDS`` solves, or when those sources would settle more nodes
    than the graph has. :func:`_price` re-prices the grown rows with the
    *price* options, and the next round starts from the basis just found.
    Rounds, pivots and the first solve's warm flag accumulate on *term*,
    and every solve is added to *counts* when given.
    """
    gamma = banks.gamma_matrix()
    chain: list = []
    while True:
        problem, row_labels, col_labels = _fold(term, gamma)
        # "auto" is always the network simplex; asked with the folded shape
        # so a wrapped selector can count solves per tier and instance sizes.
        method = (
            select_transport_method(*problem.costs.shape) if solver == "auto" else solver
        )
        plan = _solve(
            problem, row_labels, col_labels, method,
            basis_cache=basis_cache, basis_key=basis_key, chain=chain,
        )
        term.rounds += 1
        if plan is not None and plan.info is not None:
            term.pivots += int(plan.info.pivots)
            term.warm_start |= term.rounds == 1 and bool(plan.info.warm)
            if counts is not None:
                counts.add(plan.info)
        basis = chain[0] if chain else None
        if plan is None or term.radius is None or not np.isfinite(term.radius).any():
            return plan, method, problem, basis
        grow = _uncertified(term, plan)
        if not grow.size:
            return plan, method, problem, basis
        rows = term.rows[grow]
        if term.rounds == MAX_ROUNDS - 1 or (
            SETTLED_GROWTH * np.count_nonzero(np.isfinite(rows)) > graph.num_nodes
        ):
            grow = np.flatnonzero(np.isfinite(term.radius))
            term.radius[grow] = np.inf
        else:
            term.radius[grow] = _grown_radii(
                rows, term.radius[grow], price["unreachable"], costs.smallest_positive
            )
        _price(term, graph, costs.values, banks, grow=grow, **price)


def _potentials(costs: np.ndarray, basis: TransportBasis) -> tuple | None:
    """Row and column potentials ``(u, v)`` with ``u_i + v_j = costs[i, j]``
    on every cell of *basis*, by one walk over the tree from row 0;
    ``None`` unless *basis* is a spanning tree of the instance (an
    optimum whose tree kept an artificial arc leaves a forest of real
    cells)."""
    m, n = costs.shape
    if len(basis) != m + n - 1:
        return None
    rows, cols = basis.rows.tolist(), (basis.cols + m).tolist()
    adjacent: list[list] = [[] for _ in range(m + n)]
    for i, j, c in zip(rows, cols, costs[basis.rows, basis.cols].tolist()):
        adjacent[i].append((j, c))
        adjacent[j].append((i, c))
    potential = [None] * (m + n)
    potential[0] = 0.0
    stack = [0]
    while stack:
        i = stack.pop()
        for j, c in adjacent[i]:
            if potential[j] is None:
                potential[j] = c - potential[i]
                stack.append(j)
    if None in potential:
        return None  # m + n - 1 cells that do not connect: a cycle somewhere
    return np.array(potential[:m]), np.array(potential[m:])


def _dual_radii(
    costs: np.ndarray, basis: TransportBasis, forward: bool, bin_gamma: np.ndarray | None
) -> np.ndarray | None:
    """``ρ_s = max_j (u_s + v_j - γ_j)`` for every ``src`` user s, from the
    optimal duals of a solved term: its folded problem's *costs* and
    optimal *basis*, whose rows are the ``src`` side when the term is
    *forward* and its columns otherwise (:func:`_fold`). ``u`` is on the
    ``src`` side, ``v`` on the ``dst`` columns: users, then the folded bank
    bins, whose γ (*bin_gamma*; ``None`` without banks) is taken off;
    ``γ_j = 0`` for a user. ``None`` when *basis* is not a spanning tree. A
    shift of the duals leaves ρ unchanged.

    Under a term's own optimal duals, a cell priced above ``u_s + v_j`` has
    a positive reduced cost, and no optimal plan ships on it. A search
    from s to ``ρ_s`` (to ``⌊ρ_s⌋`` on integral costs, whose unreached
    cells cost ``⌊ρ_s⌋ + 1``) prices every cell it leaves unreached, user
    or leg (γ added), above that: the relaxed plan then certifies in one
    round. :func:`solve_reduced_term` starts the mirror term there, whose
    own duals these predict.
    """
    potentials = _potentials(costs, basis)
    if potentials is None:
        return None
    u, v = potentials if forward else potentials[::-1]
    if bin_gamma is not None:
        v = v - np.concatenate([np.zeros(v.size - bin_gamma.size), bin_gamma])
    return np.maximum(u + v.max(initial=-np.inf), 0.0)


#: Slack under which a dual radius on integral costs still counts as the
#: integer just above it (its potentials are sums of costs and γ).
_RADIUS_SLACK = 1e-9


@dataclass
class MirrorHandoff:
    """What an Eq. 3 term ``(a, b, o)`` hands its mirror ``(b, a, o)``
    within one pair's sum (see :meth:`repro.snd.snd.SND._sum_terms`).

    The first of the two terms :func:`solve_reduced_term` solves fills it
    and sets *ready*: *term* is the mirror's reduction
    (:func:`mirror_reduction`), and *duals* holds the first term's folded
    costs, optimal basis, orientation and bank-bin γ, not its rows.
    *radii*, the first term's dual radii (:func:`_dual_radii`), one per
    ``src`` user, is computed from them on first read, and only a mirror
    that starts bounded reads it. It is ``None`` when the mirror starts
    from the row cache's record instead: the first term ran uncertified
    rows, left no basis or no spanning tree, or the two terms' rows run
    from different users, which the orientation rule gives only when the
    deficit is zero and both sides are the same size.
    """

    term: ReducedTerm | None = None
    duals: tuple | None = None
    ready: bool = False

    @functools.cached_property
    def radii(self) -> np.ndarray | None:
        return None if self.duals is None else _dual_radii(*self.duals)


def solve_reduced_term(
    term: ReducedTerm | None,
    graph: DiGraph,
    edge_costs: np.ndarray | EdgeCosts,
    banks: BankAllocation,
    *,
    max_cost: int,
    solver: str = "ssp",
    bank_metric: str = "nearest",
    row_cache=None,
    cost_key=None,
    basis_cache=None,
    basis_key=None,
    stats: FastTermStats | None = None,
    counts: SolverCounts | None = None,
    mirror: MirrorHandoff | None = None,
) -> float:
    """The EMD* term of the reduction *term* (:func:`reduce_term`): price →
    fold → solve, with the options of :func:`emd_star_term_fast`.
    *edge_costs* may come wrapped with its facts
    (:class:`~repro.snd.ground.EdgeCosts`, as the ground cache returns
    it); a bare array is scanned for the ones a bounded term reads.

    *mirror* pairs the term with its mirror. Not yet *ready*, the term
    fills it once solved. *Ready*, the term is that mirror: *term* is the
    hand-off's reduction, and a certified term whose row cache would start
    it at a finite radius starts each row at its dual radius instead
    (counted as ``mirrored``). Such a term records its certificate radius
    but not its settled fraction: its rows stopped where the duals said,
    not where the record did (see
    :meth:`~repro.snd.cache.DijkstraRowCache.record_radius`).
    """
    costs = EdgeCosts.of(edge_costs)
    edge_costs = costs.values
    start_from = mirror if mirror is not None and mirror.ready else None
    if mirror is not None and not mirror.ready:
        mirror.term = mirror_reduction(term)
    if term is None:
        if mirror is not None:
            mirror.ready = True
        if stats is not None:
            stats.cost = 0.0
        return 0.0
    unreachable = unreachable_cost(graph.num_nodes, max_cost)
    certify = bank_metric == "nearest" and row_cache is not None and cost_key is not None
    start = row_cache.start_radius(term.src_ids.size) if certify else np.inf
    bounded = start < unreachable  # never bounds a term the record runs full
    integral = bounded and costs.integral
    dual = start_from.radii if bounded and start_from is not None else None
    if dual is not None:
        term.radius = np.floor(dual + _RADIUS_SLACK) if integral else dual.copy()
        term.radius[dual >= unreachable] = np.inf
        row_cache.count_mirrored()
    elif bounded:
        term.radius = np.full(term.src_ids.size, start)
    price = dict(
        unreachable=unreachable, bank_metric=bank_metric, integral=integral,
        row_cache=row_cache, cost_key=cost_key,
        # The term's rounds share one search matrix, built on first use.
        matrix=functools.cache(functools.partial(
            search_matrix, graph, edge_costs, reverse=not term.forward
        )),
    )
    _price(term, graph, edge_costs, banks, **price)
    plan, solver, problem, basis = _certified_solve(
        term, graph, costs, banks, solver, price=price,
        basis_cache=basis_cache, basis_key=basis_key, counts=counts,
    )
    if certify and plan is not None and row_cache.record_due():
        radius, settled = _certificate(term, plan)
        row_cache.record_radius(radius, settled if dual is None else None)
    if mirror is not None and not mirror.ready:
        # The mirror's rows run from these users only when its orientation
        # is the opposite one; only a spanning tree yields the duals.
        if certify and basis is not None and mirror.term.forward != term.forward:
            bin_gamma = None
            if term.legs is not None:
                live = term.bank_caps[term.active] > _EPS
                bin_gamma = banks.gamma_matrix()[term.active][live]
            mirror.duals = (problem.costs, basis, term.forward, bin_gamma)
        mirror.ready = True
    cost = 0.0 if plan is None else float(plan.cost)

    if stats is not None:
        stats.n_suppliers = term.n_suppliers
        stats.n_consumers = term.n_consumers
        stats.n_sssp_runs = term.n_sssp_runs
        stats.n_settled = int(np.isfinite(term.rows).sum())
        stats.n_cluster_runs = term.n_cluster_runs
        stats.rounds = term.rounds
        stats.solver = solver
        stats.cost = cost
        # The network simplex reports its pivots, summed over the term's
        # rounds, and whether its first solve started warm.
        if plan is not None and plan.info is not None:
            stats.pivots = term.pivots
            stats.warm_start = term.warm_start
    return cost


def emd_star_term_fast(
    graph: DiGraph,
    p_hist: np.ndarray,
    q_hist: np.ndarray,
    edge_costs: np.ndarray,
    banks: BankAllocation,
    *,
    max_cost: int,
    solver: str = "ssp",
    bank_metric: str = "nearest",
    bank_shares: str = "mass",
    row_cache=None,
    cost_key=None,
    basis_cache=None,
    basis_key=None,
    stats: FastTermStats | None = None,
    counts: SolverCounts | None = None,
) -> float:
    """One EMD* term of Eq. 3 via the Theorem 4 reduction: reduce → price
    → fold → solve (:func:`reduce_term`, then :func:`solve_reduced_term`).

    Parameters
    ----------
    p_hist, q_hist:
        Supplier / consumer histograms over the graph's nodes (e.g. the
        ``G+`` indicators of two states).
    edge_costs:
        CSR-aligned ground costs from :func:`repro.snd.ground.build_edge_costs`.
    banks:
        The bank allocation shared across terms.
    max_cost:
        Assumption-2 bound ``U`` (sizes the unreachable-distance clamp).
    solver:
        ``"ssp"`` (default), ``"lp"``, ``"network-simplex"``, or
        ``"auto"`` (the network simplex).
    bank_metric:
        ``"nearest"`` (default, semimetric-preserving) or ``"cluster"``
        (the literal Eq. 4); see :func:`repro.emd.emd_star.build_extension`.
    bank_shares:
        ``"mass"`` (default) or ``"size"``: how the deficit splits over
        the clusters' banks.
    row_cache, cost_key:
        Optional :class:`~repro.snd.cache.DijkstraRowCache` plus the
        content key of *edge_costs* (state fingerprint, opinion); per-source
        Dijkstra rows are then reused across terms sharing the key, and
        under ``"nearest"`` searched only as far as the certified loop
        needs (see the module docstring).
    basis_cache, basis_key:
        Optional :class:`~repro.snd.cache.BasisCache` plus this term's key
        ``(supplier fingerprint, consumer fingerprint, opinion)``. Only
        consulted when the (resolved) solver is ``"network-simplex"``:
        the nearest cached basis (same term,
        transposed term, or previous term with the same supplier state)
        warm-starts the solve, and the fresh optimal basis is stored back
        in stable node-label space. Values are unaffected — a warm basis
        only changes where pivoting starts.
    stats, counts:
        Optional diagnostics: *stats* receives the term's record (its
        settled count scans the term's rows), and every solve of the term
        is added to *counts* (a constant cost per solve).
    """
    check_term_options(solver, bank_metric, bank_shares)
    n = graph.num_nodes
    if np.shape(p_hist) != (n,) or np.shape(q_hist) != (n,):
        raise ValidationError("histograms must have one bin per graph node")
    return solve_reduced_term(
        reduce_term(p_hist, q_hist, banks, bank_shares), graph, edge_costs, banks,
        max_cost=max_cost, solver=solver, bank_metric=bank_metric,
        row_cache=row_cache, cost_key=cost_key, basis_cache=basis_cache,
        basis_key=basis_key, stats=stats, counts=counts,
    )
