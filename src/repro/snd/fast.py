"""The linear-time SND computation (Theorem 4, §5).

Per EMD* term the pipeline is:

1. **Reduce** (Lemmas 1-2): cancel per-bin common mass; the surviving
   suppliers/consumers are exactly the users whose opinion changed — at
   most ``n∆`` of each (Assumption 1).
2. **Shortest paths**: one single-source Dijkstra per changed user on the
   bank-free side (forward from suppliers when the banks sit on the demand
   side, reversed from consumers otherwise) — under the default
   ``"nearest"`` bank metric those same rows also price every bank arc, so
   no extra shortest-path work is needed. The paper-literal ``"cluster"``
   metric additionally runs one multi-source Dijkstra per cluster hosting
   changed users. Rows are per-source and depend only on the supplier-side
   edge costs, so batch sweeps hand in a
   :class:`~repro.snd.cache.DijkstraRowCache` to reuse rows of unchanged
   sources across terms and transitions.
3. **Solve the reduced problem**: bank bins are folded into the dense
   supplier x consumer matrix as extra consumers (or suppliers), each at
   per-pair cost ``leg + γ``, and this one transportation instance goes
   to the solver. ``solver="auto"`` (via
   :func:`repro.flow.select_transport_method`) is the exact network
   simplex at every size. A network-simplex solve is warm-started from a
   :class:`~repro.snd.cache.BasisCache` when one is threaded; every other
   solver runs cold. Explicit ``"ssp"``, ``"lp"`` and the approximate
   ``"sinkhorn-hybrid"`` (entropic screen + sparse exact solve, certified
   per-solve error bound; see :mod:`repro.flow.sinkhorn_hybrid`) solve the
   same folded instance.

Under ``bank_metric="nearest"`` the result *exactly* equals the direct
(unreduced) EMD* — the extended ground distance is a semimetric, so the
Lemma 2 cancellation is lossless (property-tested against
:mod:`repro.snd.direct`). Under ``"cluster"`` the extended distance can
violate the triangle inequality across clusters (a route through a third
cluster's members can undercut the cluster-to-cluster distance), and the
reduction is exact only up to that defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

import repro.flow as flow
from repro.emd.reduction import reduced_problem_profile
from repro.exceptions import ValidationError
from repro.flow import network_simplex, select_transport_method
# Unused here; kept because perfbench/tracer.py wraps this module-level name.
from repro.flow import solve_mcf_ssp  # noqa: F401
from repro.flow.basis import TransportBasis
from repro.flow.problem import TransportationProblem
from repro.flow.sinkhorn_hybrid import HybridSolveInfo
from repro.graph.digraph import DiGraph
from repro.shortestpath.dijkstra import multi_source_distances
from repro.snd.banks import BankAllocation
from repro.snd.ground import unreachable_cost

__all__ = ["emd_star_term_fast", "FastTermStats", "SOLVER_CHOICES"]

_EPS = 1e-12

#: Valid values for the ``solver=`` knob of the fast pipeline (and of
#: :class:`repro.snd.snd.SND`). ``"auto"`` resolves to
#: ``"network-simplex"``, the warm-startable sparse simplex: paired with
#: a :class:`repro.snd.cache.BasisCache` it reuses the previous optimal
#: spanning tree across temporally local solves.
SOLVER_CHOICES = ("auto", "ssp", "lp", "network-simplex", "sinkhorn-hybrid")


@dataclass
class FastTermStats:
    """Diagnostics from one fast EMD* term (used by scalability benches)."""

    n_suppliers: int = 0
    n_consumers: int = 0
    n_sssp_runs: int = 0
    n_cluster_runs: int = 0
    cost: float = 0.0
    solver: str = ""
    density: float = 1.0
    #: Fraction of reduced-instance cells kept by the sinkhorn-hybrid
    #: screen (1.0 when an exact solver ran, or the instance was small
    #: enough that the hybrid delegated to an exact solve).
    support_density: float = 1.0
    #: Certified relative-error bound of the hybrid solve (0.0 for exact).
    screen_error_bound: float = 0.0
    #: Simplex pivots of the network-simplex solve, or of the hybrid's
    #: restricted network-simplex solve (0 for other solvers).
    pivots: int = 0
    #: Whether the network-simplex solve started from a cached warm basis.
    warm_start: bool = False


def _min_distance_from_set(
    graph: DiGraph,
    members: np.ndarray,
    edge_costs: np.ndarray,
    *,
    reverse: bool,
) -> np.ndarray:
    """``min_{s in members} dist(s -> v)`` for every node v (or ``v -> s``
    when *reverse*). One Dijkstra pass regardless of ``len(members)``."""
    n = graph.num_nodes
    work = graph.reverse() if reverse else graph
    w = edge_costs
    if reverse:
        graph._ensure_reverse()  # noqa: SLF001 - align costs with reversed CSR
        w = np.asarray(edge_costs)[graph._rev_edge_ids]  # noqa: SLF001

    # Virtual super-source n with unit edges into the member set; the +1
    # offset avoids scipy's explicit-zero ambiguity and is subtracted back.
    indptr = np.append(work.indptr, work.indptr[-1] + len(members))
    indices = np.concatenate([work.indices, np.asarray(members, dtype=np.int64)])
    data = np.concatenate([np.asarray(w, dtype=np.float64), np.ones(len(members))])
    matrix = csr_matrix((data, indices, indptr), shape=(n + 1, n + 1))
    dist = sp_dijkstra(matrix, directed=True, indices=n)
    return np.maximum(dist[:n] - 1.0, 0.0)


def _distance_rows(
    graph: DiGraph,
    sources: np.ndarray,
    edge_costs: np.ndarray,
    *,
    reverse: bool,
    row_cache=None,
    cost_key=None,
) -> np.ndarray:
    """Per-source shortest-path rows, drawn from *row_cache* when possible.

    Falls back to :func:`multi_source_distances` directly (identical
    values) when no cache or no content key is available.
    """
    if row_cache is None or cost_key is None:
        return multi_source_distances(
            graph, sources, weights=edge_costs, reverse=reverse
        )
    return row_cache.distance_rows(
        graph, sources, edge_costs, reverse=reverse, cost_key=cost_key
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
    """Bank capacities, ``(n_clusters, n_banks)``.

    Must match :func:`repro.emd.emd_star.build_extension` exactly (the
    fast/direct equivalence depends on it).
    """
    nc, nb = banks.n_clusters, banks.n_banks
    caps = np.zeros((nc, nb))
    if deficit <= 0:
        return caps
    sizes = banks.cluster_sizes
    if bank_shares == "size":
        shares = sizes / sizes.sum()
    elif bank_shares == "mass":
        cluster_of = banks.cluster_of(histogram.shape[0])
        cluster_mass = np.bincount(
            cluster_of, weights=histogram, minlength=nc
        ).astype(np.float64)
        total = cluster_mass.sum()
        shares = cluster_mass / total if total > 0 else sizes / sizes.sum()
    else:
        raise ValidationError(
            f"bank_shares must be 'mass' or 'size', got {bank_shares!r}"
        )
    caps[:] = (shares[:, None] / nb) * deficit
    return caps


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
) -> float:
    """One EMD* term of Eq. 3 via the Theorem 4 reduction.

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
        ``"ssp"`` (default), ``"lp"``, ``"network-simplex"``,
        ``"sinkhorn-hybrid"`` (approximate, certified error bound), or
        ``"auto"`` (the network simplex).
    bank_metric:
        ``"nearest"`` (default, semimetric-preserving) or ``"cluster"``
        (the literal Eq. 4); see :func:`repro.emd.emd_star.build_extension`.
    row_cache, cost_key:
        Optional :class:`~repro.snd.cache.DijkstraRowCache` plus the
        content key of *edge_costs* (state fingerprint, opinion); per-source
        Dijkstra rows are then reused across terms sharing the key.
    basis_cache, basis_key:
        Optional :class:`~repro.snd.cache.BasisCache` plus this term's key
        ``(supplier fingerprint, consumer fingerprint, opinion)``. Only
        consulted when the (resolved) solver is ``"network-simplex"``:
        the nearest cached basis (same term,
        transposed term, or previous term with the same supplier state)
        warm-starts the solve, and the fresh optimal basis is stored back
        in stable node-label space. Values are unaffected — a warm basis
        only changes where pivoting starts.
    """
    if bank_metric not in ("nearest", "cluster"):
        raise ValidationError(
            f"bank_metric must be 'nearest' or 'cluster', got {bank_metric!r}"
        )
    if solver not in SOLVER_CHOICES:
        raise ValidationError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVER_CHOICES)}"
        )
    n = graph.num_nodes
    p = np.asarray(p_hist, dtype=np.float64)
    q = np.asarray(q_hist, dtype=np.float64)
    if p.shape != (n,) or q.shape != (n,):
        raise ValidationError("histograms must have one bin per graph node")

    total_p, total_q = float(p.sum()), float(q.sum())
    delta = abs(total_p - total_q)

    # Lemma 2: cancel common mass; Lemma 1: keep only non-empty bins.
    common = np.minimum(p, q)
    p_rest = p - common
    q_rest = q - common
    sup_ids = np.flatnonzero(p_rest > _EPS)
    con_ids = np.flatnonzero(q_rest > _EPS)
    sup_amounts = p_rest[sup_ids]
    con_amounts = q_rest[con_ids]

    if sup_ids.size == 0 and con_ids.size == 0 and delta <= _EPS:
        if stats is not None:
            stats.cost = 0.0
        return 0.0

    banks_on_demand_side = total_p >= total_q  # lighter histogram hosts banks
    lighter_hist = q if banks_on_demand_side else p
    bank_caps = _bank_capacities(lighter_hist, banks, delta, bank_shares)
    active_bank_clusters = np.flatnonzero(bank_caps.sum(axis=1) > _EPS)

    unreach = unreachable_cost(n, max_cost)

    # ---- shortest paths ---------------------------------------------- #
    # Run the per-user Dijkstras from the bank-free side so the same rows
    # price both the supplier->consumer block and (under "nearest") every
    # bank arc. When there are no banks (delta == 0), run from the smaller
    # side.
    if delta > _EPS:
        run_forward = banks_on_demand_side
    else:
        run_forward = sup_ids.size <= con_ids.size

    rows = np.empty((0, n))
    if run_forward and sup_ids.size:
        rows = _distance_rows(
            graph, sup_ids, edge_costs, reverse=False,
            row_cache=row_cache, cost_key=cost_key,
        )
        d_sc = rows[:, con_ids] if con_ids.size else np.empty((sup_ids.size, 0))
        n_sssp = sup_ids.size
    elif not run_forward and con_ids.size:
        rows = _distance_rows(
            graph, con_ids, edge_costs, reverse=True,
            row_cache=row_cache, cost_key=cost_key,
        )
        d_sc = rows[:, sup_ids].T if sup_ids.size else np.empty((0, con_ids.size))
        n_sssp = con_ids.size
    else:
        d_sc = np.zeros((sup_ids.size, con_ids.size))
        n_sssp = 0
    d_sc = np.where(np.isfinite(d_sc), d_sc, unreach)

    # Bank-arc distances: legs[k, a] joins user k of the bank-free side
    # and the banks of active cluster a.
    n_cluster_runs = 0
    legs = None
    if delta > _EPS and active_bank_clusters.size:
        if bank_metric == "nearest":
            # Min over the cluster's members of each row: supplier s -> bank
            # of cluster c when the banks sit on the demand side, bank of
            # cluster c -> consumer t otherwise (reversed rows,
            # rows[t, v] = D(v, t)).
            legs = _cluster_minima(rows, banks)[:, active_bank_clusters]
        else:  # "cluster": per-cluster multi-source runs for the d matrix
            cluster_of = banks.cluster_of(n)
            side_ids = sup_ids if banks_on_demand_side else con_ids
            nc = banks.n_clusters
            d_block = np.full((nc, nc), np.inf)
            for a in np.unique(cluster_of[side_ids]).tolist():
                dist = _min_distance_from_set(
                    graph,
                    banks.member_arrays[a],
                    edge_costs,
                    reverse=not banks_on_demand_side,
                )
                per_cluster = _cluster_minima(dist, banks)
                d_block[a] = np.where(np.isfinite(per_cluster), per_cluster, unreach)
                n_cluster_runs += 1
            # legs[k, a] = d(cluster_of(user k on the bank-free side), a)
            legs = d_block[cluster_of[side_ids]][:, active_bank_clusters]
        legs = np.where(np.isfinite(legs), legs, unreach)

    # ---- solve the bank-folded reduced problem ----------------------- #
    if solver == "auto":
        # Always the network simplex; asked with the folded shape so a
        # wrapped selector can count solves per tier and instance sizes.
        n_bank_bins = int(np.count_nonzero(bank_caps[active_bank_clusters] > _EPS))
        if banks_on_demand_side:
            folded_rows, folded_cols = sup_ids.size, con_ids.size + n_bank_bins
        else:
            folded_rows, folded_cols = sup_ids.size + n_bank_bins, con_ids.size
        solver = select_transport_method(folded_rows, folded_cols)
    if stats is not None:
        profile = reduced_problem_profile(
            sup_amounts, con_amounts, d_sc, unreachable=unreach
        )
        stats.n_suppliers = int(sup_ids.size)
        stats.n_consumers = int(con_ids.size)
        stats.n_sssp_runs = int(n_sssp)
        stats.solver = solver
        stats.n_cluster_runs = int(n_cluster_runs)
        stats.density = profile["density"]

    plan = _solve_reduced_dense(
        sup_amounts,
        con_amounts,
        d_sc,
        legs,
        bank_caps,
        banks.gamma_matrix(),
        active_bank_clusters,
        banks_on_demand_side,
        method=solver,
        sup_ids=sup_ids,
        con_ids=con_ids,
        basis_cache=basis_cache,
        basis_key=basis_key,
    )
    cost = 0.0 if plan is None else float(plan.cost)
    if stats is not None:
        stats.cost = cost
        # Diagnostics of the solve that produced *cost*: the network
        # simplex and the hybrid report pivots, the network simplex its
        # warm flag and the hybrid its screen.
        info = None if plan is None else plan.info
        if isinstance(info, HybridSolveInfo):
            stats.support_density = float(info.support_density)
            stats.screen_error_bound = float(info.screen_error_bound)
        elif info is not None:
            stats.warm_start = bool(info.warm)
        if info is not None:
            stats.pivots = int(info.pivots)
    return cost


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


def _solve_reduced_dense(
    sup_amounts: np.ndarray,
    con_amounts: np.ndarray,
    d_sc: np.ndarray,
    legs: np.ndarray | None,
    bank_caps: np.ndarray,
    gamma: np.ndarray,
    active_bank_clusters: np.ndarray,
    banks_on_demand_side: bool,
    *,
    method: str,
    sup_ids: np.ndarray,
    con_ids: np.ndarray,
    basis_cache=None,
    basis_key=None,
):
    """Solve the reduced problem as one dense transportation instance.

    Bank bins are appended as extra consumers (or suppliers); the hub
    decomposition is folded back into per-pair costs ``leg + γ``, with
    *legs* ``(bank-free side users, active clusters)`` (``None`` without
    banks). The bank axis runs cluster-major, bin-minor, skipping bins of
    capacity at most ``_EPS``. The instance is handed to
    :func:`repro.flow.solve_transportation` with *method* (``"ssp"``,
    ``"lp"`` — HiGHS —, ``"network-simplex"`` — warm-startable —, or
    ``"sinkhorn-hybrid"`` — approximate screened solve).

    This is the one place the warm-start rule lives: a basis is read and
    stored if and only if *method* is ``"network-simplex"`` (and a
    *basis_cache*/*basis_key* pair is supplied); every other method
    solves cold. For a warm solve the instance's axes are labelled with
    stable ids (global supplier/consumer node ids; bank bins as negative
    labels ``-(1 + cluster·nb + bin)``), the nearest cached basis is
    re-anchored onto those labels to warm-start the solve, and the
    optimal basis is stored back under the term key.

    Returns the solver's :class:`~repro.flow.plan.TransportPlan` (its
    ``info`` carries the solve's diagnostics), or ``None`` when one side
    of the instance is empty and there is nothing to solve.
    """
    live = bank_block = None
    bank_amounts = np.empty(0)
    if legs is not None:
        bank_block, bank_amounts, live = _fold_banks(
            legs, bank_caps, gamma, active_bank_clusters
        )

    # The folded matrix is C-ordered whatever the layout of d_sc, as the
    # stacking of bank columns always made it: the hybrid tier's sums run
    # in memory order, so another layout could move a last bit.
    n_sup, n_con = d_sc.shape
    if banks_on_demand_side:
        supplies = sup_amounts
        demands = np.concatenate([con_amounts, bank_amounts])
        costs = d_sc
        if bank_amounts.size:
            costs = np.empty((n_sup, n_con + bank_amounts.size))
            costs[:, :n_con] = d_sc
            costs[:, n_con:] = bank_block
    else:
        supplies = np.concatenate([sup_amounts, bank_amounts])
        demands = con_amounts
        costs = d_sc
        if bank_amounts.size:
            costs = np.empty((n_sup + bank_amounts.size, n_con))
            costs[:n_sup] = d_sc
            costs[n_sup:] = bank_block.T

    if supplies.size == 0 or demands.size == 0:
        return None
    # Non-negative and finite by construction: amounts above _EPS, costs
    # clamped to the unreachable cost, γ >= 0.
    problem = TransportationProblem._unchecked(supplies, demands, costs)

    if method != "network-simplex" or basis_cache is None or basis_key is None:
        return flow.solve_transportation(problem, method=method)

    if live is None:
        bank_labels = np.empty(0, dtype=np.int64)
    else:
        bank_labels = _bank_labels(active_bank_clusters, live)
    if banks_on_demand_side:
        row_labels = np.asarray(sup_ids, dtype=np.int64)
        col_labels = np.concatenate([np.asarray(con_ids, dtype=np.int64), bank_labels])
    else:
        row_labels = np.concatenate([np.asarray(sup_ids, dtype=np.int64), bank_labels])
        col_labels = np.asarray(con_ids, dtype=np.int64)

    warm = basis_cache.get_warm(basis_key)
    warm_local = (
        _map_labeled_basis(warm, row_labels, col_labels) if warm is not None else None
    )
    plan, out_basis = network_simplex.solve_transportation_network_simplex(
        problem, basis=warm_local, return_basis=True
    )
    if len(out_basis):
        basis_cache.put_term(
            basis_key,
            TransportBasis(
                rows=row_labels[out_basis.rows], cols=col_labels[out_basis.cols]
            ),
        )
    return plan
