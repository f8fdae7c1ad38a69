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
   :func:`repro.flow.select_transport_method`) runs the network simplex,
   warm-started from a :class:`~repro.snd.cache.BasisCache` when one is
   threaded; reduced instances beyond :data:`repro.flow.AUTO_HYBRID_CELLS`
   cells route to the approximate ``"sinkhorn-hybrid"`` tier (entropic
   screen + sparse exact solve, certified per-solve error bound; see
   :mod:`repro.flow.sinkhorn_hybrid`). Explicit ``"ssp"`` and ``"lp"``
   solve the same folded instance.

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

from repro.emd.reduction import reduced_problem_profile
from repro.exceptions import ValidationError
from repro.flow import select_transport_method
# Unused here; kept because perfbench/tracer.py wraps this module-level name.
from repro.flow import solve_mcf_ssp  # noqa: F401
from repro.flow.basis import TransportBasis
from repro.flow.network_simplex import last_network_simplex_info
from repro.flow.sinkhorn_hybrid import last_hybrid_info
from repro.graph.digraph import DiGraph
from repro.shortestpath.dijkstra import dijkstra_multi, multi_source_distances
from repro.snd.banks import BankAllocation
from repro.snd.ground import unreachable_cost

__all__ = ["emd_star_term_fast", "FastTermStats", "SOLVER_CHOICES"]

_EPS = 1e-12

#: Valid values for the ``solver=`` knob of the fast pipeline (and of
#: :class:`repro.snd.snd.SND`). ``"auto"`` selects per reduced instance
#: (and routes very large reduced instances to the approximate
#: ``"sinkhorn-hybrid"`` tier — see :data:`repro.flow.AUTO_HYBRID_CELLS`).
#: ``"network-simplex"`` is the warm-startable sparse simplex: paired with
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
    #: Simplex pivots of the network-simplex solve (0 for other solvers).
    pivots: int = 0
    #: Whether the network-simplex solve started from a cached warm basis.
    warm_start: bool = False


def _min_distance_from_set(
    graph: DiGraph,
    members: np.ndarray,
    edge_costs: np.ndarray,
    *,
    reverse: bool,
    engine: str,
) -> np.ndarray:
    """``min_{s in members} dist(s -> v)`` for every node v (or ``v -> s``
    when *reverse*). One Dijkstra pass regardless of ``len(members)``."""
    if engine == "python":
        work = graph.reverse() if reverse else graph
        w = edge_costs
        if reverse:
            graph._ensure_reverse()  # noqa: SLF001 - align costs with reversed CSR
            w = np.asarray(edge_costs)[graph._rev_edge_ids]  # noqa: SLF001
        return dijkstra_multi(work, members, weights=w)

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    n = graph.num_nodes
    work = graph.reverse() if reverse else graph
    w = edge_costs
    if reverse:
        graph._ensure_reverse()  # noqa: SLF001
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
    engine: str,
    heap: str,
    row_cache=None,
    cost_key=None,
) -> np.ndarray:
    """Per-source shortest-path rows, drawn from *row_cache* when possible.

    Falls back to :func:`multi_source_distances` directly (identical
    values) when no cache or no content key is available.
    """
    if row_cache is None or cost_key is None:
        return multi_source_distances(
            graph, sources, weights=edge_costs, engine=engine, heap=heap,
            reverse=reverse,
        )
    return row_cache.distance_rows(
        graph, sources, edge_costs, reverse=reverse, engine=engine, heap=heap,
        cost_key=cost_key,
    )


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
    sizes = np.array([len(c) for c in banks.clusters], dtype=np.float64)
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
    engine: str = "scipy",
    heap: str = "binary",
    solver: str = "ssp",
    hybrid_cells: "int | str | None" = "auto",
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
        ``"auto"`` (the network simplex; reduced instances above
        :data:`repro.flow.AUTO_HYBRID_CELLS` cells go to the hybrid tier).
    hybrid_cells:
        Overrides the ``"auto"`` escalation threshold (reduced-instance
        cell count at which the hybrid tier takes over): a positive
        integer, ``None`` to disable the hybrid tier, or ``"auto"`` for
        the library default. Ignored for explicit solver choices.
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
        consulted when the (resolved) solver is ``"network-simplex"`` or
        ``"sinkhorn-hybrid"``: the nearest cached basis (same term,
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
    sup_ids = np.flatnonzero(p - common > _EPS)
    con_ids = np.flatnonzero(q - common > _EPS)
    sup_amounts = (p - common)[sup_ids]
    con_amounts = (q - common)[con_ids]

    if sup_ids.size == 0 and con_ids.size == 0 and delta <= _EPS:
        if stats is not None:
            stats.cost = 0.0
        return 0.0

    banks_on_demand_side = total_p >= total_q  # lighter histogram hosts banks
    lighter_hist = q if banks_on_demand_side else p
    bank_caps = _bank_capacities(lighter_hist, banks, delta, bank_shares)
    active_bank_clusters = np.flatnonzero(bank_caps.sum(axis=1) > _EPS)

    unreach = unreachable_cost(n, max_cost)
    cluster_of = banks.cluster_of(n)
    gamma = banks.gamma_matrix()
    nc = banks.n_clusters
    cluster_arrays = [np.asarray(c, dtype=np.int64) for c in banks.clusters]

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
            graph, sup_ids, edge_costs, reverse=False, engine=engine, heap=heap,
            row_cache=row_cache, cost_key=cost_key,
        )
        d_sc = rows[:, con_ids] if con_ids.size else np.empty((sup_ids.size, 0))
        n_sssp = sup_ids.size
    elif not run_forward and con_ids.size:
        rows = _distance_rows(
            graph, con_ids, edge_costs, reverse=True, engine=engine, heap=heap,
            row_cache=row_cache, cost_key=cost_key,
        )
        d_sc = rows[:, sup_ids].T if sup_ids.size else np.empty((0, con_ids.size))
        n_sssp = con_ids.size
    else:
        d_sc = np.zeros((sup_ids.size, con_ids.size))
        n_sssp = 0
    d_sc = np.where(np.isfinite(d_sc), d_sc, unreach)

    # Bank-arc distances.
    n_cluster_runs = 0
    bank_leg: dict[int, np.ndarray] = {}
    if delta > _EPS and active_bank_clusters.size:
        if bank_metric == "nearest":
            if banks_on_demand_side:
                # supplier s -> bank of cluster c: min over members of row.
                for c in active_bank_clusters:
                    members = cluster_arrays[c]
                    leg = rows[:, members].min(axis=1) if rows.size else np.empty(0)
                    bank_leg[int(c)] = np.where(np.isfinite(leg), leg, unreach)
            else:
                # bank of cluster c -> consumer t: min over members of the
                # reversed rows (rows[t, v] = D(v, t)).
                for c in active_bank_clusters:
                    members = cluster_arrays[c]
                    leg = rows[:, members].min(axis=1) if rows.size else np.empty(0)
                    bank_leg[int(c)] = np.where(np.isfinite(leg), leg, unreach)
        else:  # "cluster": per-cluster multi-source runs for the d matrix
            if banks_on_demand_side:
                side_ids = sup_ids
            else:
                side_ids = con_ids
            side_clusters = (
                np.unique(cluster_of[side_ids]) if side_ids.size else np.array([], dtype=np.int64)
            )
            d_block = np.full((nc, nc), np.inf)
            for a in side_clusters:
                dist = _min_distance_from_set(
                    graph,
                    cluster_arrays[a],
                    edge_costs,
                    reverse=not banks_on_demand_side,
                    engine=engine,
                )
                per_cluster = np.array(
                    [float(np.min(dist[c])) for c in cluster_arrays]
                )
                d_block[a] = np.where(np.isfinite(per_cluster), per_cluster, unreach)
                n_cluster_runs += 1
            # bank_leg[c][k] = d(cluster_of(user k on the bank-free side), c)
            for c in active_bank_clusters:
                if banks_on_demand_side:
                    leg = d_block[cluster_of[sup_ids], c] if sup_ids.size else np.empty(0)
                else:
                    leg = d_block[cluster_of[con_ids], c] if con_ids.size else np.empty(0)
                bank_leg[int(c)] = np.where(np.isfinite(leg), leg, unreach)

    # ---- solve the bank-folded reduced problem ----------------------- #
    if solver == "auto":
        n_bank_bins = int(np.count_nonzero(bank_caps[active_bank_clusters] > _EPS))
        if banks_on_demand_side:
            folded_rows, folded_cols = sup_ids.size, con_ids.size + n_bank_bins
        else:
            folded_rows, folded_cols = sup_ids.size + n_bank_bins, con_ids.size
        override = {} if hybrid_cells == "auto" else {"hybrid_cells": hybrid_cells}
        solver = select_transport_method(folded_rows, folded_cols, **override)
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

    cost = _solve_reduced_dense(
        sup_amounts,
        con_amounts,
        d_sc,
        bank_leg,
        bank_caps,
        gamma,
        active_bank_clusters,
        banks_on_demand_side,
        method=solver,
        sup_ids=sup_ids,
        con_ids=con_ids,
        basis_cache=basis_cache,
        basis_key=basis_key,
    )
    if stats is not None:
        stats.cost = float(cost)
        if solver == "sinkhorn-hybrid":
            info = last_hybrid_info()
            if info is not None:
                stats.support_density = float(info.support_density)
                stats.screen_error_bound = float(info.screen_error_bound)
        if solver == "network-simplex" or (
            solver == "sinkhorn-hybrid" and basis_cache is not None
        ):
            ns_info = last_network_simplex_info()
            if ns_info is not None:
                stats.pivots = int(ns_info.pivots)
                stats.warm_start = bool(ns_info.warm)
    return float(cost)


def _map_labeled_basis(
    basis: TransportBasis, row_labels: np.ndarray, col_labels: np.ndarray
) -> TransportBasis | None:
    """Re-anchor a label-space basis onto one instance's local indices.

    Cells survive only when *both* labels exist in the new instance —
    which is exactly the temporal-locality overlap the warm start
    exploits. Returns ``None`` when nothing survives (a cold solve)."""
    ridx = {int(label): i for i, label in enumerate(row_labels)}
    cidx = {int(label): j for j, label in enumerate(col_labels)}
    rows: list[int] = []
    cols: list[int] = []
    for label_r, label_c in zip(basis.rows, basis.cols):
        i = ridx.get(int(label_r))
        j = cidx.get(int(label_c))
        if i is not None and j is not None:
            rows.append(i)
            cols.append(j)
    if not rows:
        return None
    return TransportBasis(
        rows=np.asarray(rows, dtype=np.int64), cols=np.asarray(cols, dtype=np.int64)
    )


def _solve_reduced_dense(
    sup_amounts: np.ndarray,
    con_amounts: np.ndarray,
    d_sc: np.ndarray,
    bank_leg: dict[int, np.ndarray],
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
) -> float:
    """Solve the reduced problem as one dense transportation instance.

    Bank bins are appended as extra consumers (or suppliers); the hub
    decomposition is folded back into per-pair costs ``leg + γ``. The
    instance is handed to :func:`repro.flow.solve_transportation` with
    *method* (``"ssp"``, ``"lp"`` — HiGHS —, ``"network-simplex"`` —
    warm-startable —, or ``"sinkhorn-hybrid"`` — approximate screened
    solve).

    When a *basis_cache*/*basis_key* pair is supplied and the method can
    carry a basis, the instance's axes are labelled with stable ids
    (global supplier/consumer node ids; bank bins as negative labels
    ``-(1 + cluster·nb + bin)``), the nearest cached basis is re-anchored
    onto those labels to warm-start the solve, and the optimal basis is
    stored back under the term key.
    """
    from repro.flow import solve_transportation
    from repro.flow.network_simplex import solve_transportation_network_simplex
    from repro.flow.problem import TransportationProblem
    from repro.flow.sinkhorn_hybrid import solve_transportation_sinkhorn_hybrid

    bank_cols: list[np.ndarray] = []
    bank_amounts: list[float] = []
    bank_labels: list[int] = []
    nb = bank_caps.shape[1] if bank_caps.size else 0
    for c in active_bank_clusters:
        leg = bank_leg[int(c)]
        for j in range(nb):
            cap = float(bank_caps[c, j])
            if cap <= _EPS:
                continue
            bank_cols.append(leg + float(gamma[c, j]))
            bank_amounts.append(cap)
            bank_labels.append(-(1 + int(c) * nb + j))

    if banks_on_demand_side:
        supplies = sup_amounts
        demands = np.concatenate([con_amounts, np.asarray(bank_amounts)])
        if bank_cols:
            costs = np.hstack([d_sc, np.column_stack(bank_cols)])
        else:
            costs = d_sc
    else:
        supplies = np.concatenate([sup_amounts, np.asarray(bank_amounts)])
        demands = con_amounts
        if bank_cols:
            costs = np.vstack([d_sc, np.vstack([col for col in bank_cols])])
        else:
            costs = d_sc

    if supplies.size == 0 or demands.size == 0:
        return 0.0
    problem = TransportationProblem(supplies, demands, costs)

    use_basis = (
        basis_cache is not None
        and basis_key is not None
        and method in ("network-simplex", "sinkhorn-hybrid")
    )
    if not use_basis:
        return float(solve_transportation(problem, method=method).cost)

    bank_label_arr = np.asarray(bank_labels, dtype=np.int64)
    if banks_on_demand_side:
        row_labels = np.asarray(sup_ids, dtype=np.int64)
        col_labels = np.concatenate([np.asarray(con_ids, dtype=np.int64), bank_label_arr])
    else:
        row_labels = np.concatenate([np.asarray(sup_ids, dtype=np.int64), bank_label_arr])
        col_labels = np.asarray(con_ids, dtype=np.int64)

    warm = basis_cache.get_warm(basis_key)
    warm_local = (
        _map_labeled_basis(warm, row_labels, col_labels) if warm is not None else None
    )
    if method == "network-simplex":
        plan, out_basis = solve_transportation_network_simplex(
            problem, basis=warm_local, return_basis=True
        )
    else:
        plan, out_basis = solve_transportation_sinkhorn_hybrid(
            problem,
            exact_backend="network-simplex",
            basis=warm_local,
            return_basis=True,
        )
    if len(out_basis):
        basis_cache.put_term(
            basis_key,
            TransportBasis(
                rows=row_labels[out_basis.rows], cols=col_labels[out_basis.cols]
            ),
        )
    return float(plan.cost)
