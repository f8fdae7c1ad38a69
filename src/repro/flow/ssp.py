"""Successive-shortest-paths min-cost flow with node potentials.

This is the library's default exact solver. It handles real-valued supplies,
capacities and costs (costs must be non-negative, which holds for every
ground distance in this library; a Bellman–Ford bootstrap covers negative
costs for completeness). Each augmentation saturates at least one arc or
node, and for transportation-shaped instances the number of augmentations is
bounded by ``n_suppliers + n_consumers``, which is what makes it fast on the
reduced problems produced by the SND pipeline (Theorem 4).

The residual adjacency is kept as one CSR structure whose weight buffer is
rewritten (reduced costs, unusable arcs masked to ``inf``) between
augmentations, and each augmenting path comes from one
:func:`scipy.sparse.csgraph.dijkstra` call. The solver is exact and agrees
with the other exact solvers to numerical tolerance — property-tested in
``tests/flow/test_solver_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.exceptions import InfeasibleFlowError
from repro.flow.plan import TransportPlan
from repro.flow.problem import FlowSolution, MinCostFlowProblem, TransportationProblem

__all__ = ["solve_mcf_ssp", "solve_transportation_ssp"]

_EPS = 1e-12


def solve_mcf_ssp(problem: MinCostFlowProblem) -> FlowSolution:
    """Solve a balanced min-cost-flow problem exactly.

    Raises :class:`InfeasibleFlowError` when the required flow cannot be
    routed (disconnected demand).
    """
    problem.validate_balance()
    tails, heads, caps, costs = problem.arrays()
    n = problem.n_nodes
    m = len(tails)

    # Internal super source / sink realise the node imbalances as arcs.
    source = n
    sink = n + 1
    n_total = n + 2

    sup_nodes = np.flatnonzero(problem.supply > _EPS)
    dem_nodes = np.flatnonzero(problem.supply < -_EPS)
    total_required = float(problem.supply[sup_nodes].sum())

    all_tails = np.concatenate(
        [tails, np.full(len(sup_nodes), source), dem_nodes]
    ).astype(np.int64)
    all_heads = np.concatenate(
        [heads, sup_nodes, np.full(len(dem_nodes), sink)]
    ).astype(np.int64)
    all_caps = np.concatenate(
        [caps, problem.supply[sup_nodes], -problem.supply[dem_nodes]]
    ).astype(np.float64)
    all_costs = np.concatenate(
        [costs, np.zeros(len(sup_nodes)), np.zeros(len(dem_nodes))]
    ).astype(np.float64)
    m_total = len(all_tails)

    # Residual arcs: arc 2e forward, 2e+1 backward.
    arc_head = np.empty(2 * m_total, dtype=np.int64)
    arc_cost = np.empty(2 * m_total, dtype=np.float64)
    arc_res = np.empty(2 * m_total, dtype=np.float64)
    arc_head[0::2] = all_heads
    arc_head[1::2] = all_tails
    arc_cost[0::2] = all_costs
    arc_cost[1::2] = -all_costs
    arc_res[0::2] = all_caps
    arc_res[1::2] = 0.0

    # CSR adjacency over residual arcs (by tail).
    arc_tail = np.empty(2 * m_total, dtype=np.int64)
    arc_tail[0::2] = all_tails
    arc_tail[1::2] = all_heads
    order = np.argsort(arc_tail, kind="stable")
    adj_arcs = order
    adj_ptr = np.zeros(n_total + 1, dtype=np.int64)
    np.add.at(adj_ptr, arc_tail + 1, 1)
    np.cumsum(adj_ptr, out=adj_ptr)

    potential = np.zeros(n_total, dtype=np.float64)
    if m_total and float(all_costs.min()) < 0.0:
        potential = _bellman_ford_potentials(
            n_total, source, arc_tail, arc_head, arc_cost, arc_res
        )

    iterations = _augment(
        n_total,
        source,
        sink,
        arc_tail,
        arc_head,
        arc_cost,
        arc_res,
        adj_arcs,
        adj_ptr,
        potential,
        total_required,
    )

    # Per-original-arc flow = residual of the backward arc.
    flows = arc_res[1 : 2 * m : 2].copy() if m else np.empty(0)
    cost = float((flows * costs).sum()) if m else 0.0
    return FlowSolution(flows=flows, cost=cost, iterations=iterations)


def _augment(
    n_total: int,
    source: int,
    sink: int,
    arc_tail: np.ndarray,
    arc_head: np.ndarray,
    arc_cost: np.ndarray,
    arc_res: np.ndarray,
    adj_arcs: np.ndarray,
    adj_ptr: np.ndarray,
    potential: np.ndarray,
    total_required: float,
) -> int:
    """Successive shortest paths over the CSR residual adjacency.

    The CSR weight buffer is rebuilt in a handful of vectorised operations
    between augmentations: reduced costs (clamped at zero against float
    dust), with saturated arcs masked to ``inf``. Shortest paths then come
    from scipy's C Dijkstra. Mutates ``arc_res`` and ``potential`` in place;
    returns the number of augmentations.
    """
    # Sorted-by-tail views of the residual arc attributes. ``adj_arcs`` maps
    # CSR slot -> residual arc id for translating paths back to arcs.
    csr_head = arc_head[adj_arcs]
    csr_cost = arc_cost[adj_arcs]
    csr_tail_pot_idx = arc_tail[adj_arcs]
    weights = np.empty(len(adj_arcs), dtype=np.float64)
    matrix = csr_matrix(
        (weights, csr_head.astype(np.int32), adj_ptr.astype(np.int32)),
        shape=(n_total, n_total),
        copy=False,
    )

    flow_sent = 0.0
    iterations = 0
    while flow_sent < total_required - _EPS * max(1.0, total_required):
        # Rebuild reduced-cost weights: cost + pot[tail] - pot[head],
        # clamped at zero (float dust), saturated arcs masked out.
        np.subtract(potential[csr_tail_pot_idx], potential[csr_head], out=weights)
        weights += csr_cost
        np.maximum(weights, 0.0, out=weights)
        weights[arc_res[adj_arcs] <= _EPS] = np.inf

        matrix.data = weights  # rebind: csr_matrix(copy=False) may copy
        dist, pred_node = sp_dijkstra(
            matrix, directed=True, indices=source, return_predecessors=True
        )

        d_sink = dist[sink]
        if not np.isfinite(d_sink):
            raise InfeasibleFlowError(
                f"cannot route required flow: {total_required - flow_sent} "
                f"units remain with the sink unreachable"
            )
        potential += np.minimum(dist, d_sink)

        # Translate the predecessor-node path into residual arcs, preferring
        # the minimum-weight usable arc for each (u, v) hop (parallel arcs).
        path_arcs: list[int] = []
        bottleneck = np.inf
        v = sink
        while v != source:
            u = int(pred_node[v])
            lo, hi = adj_ptr[u], adj_ptr[u + 1]
            best = -1
            best_w = np.inf
            for slot in range(lo, hi):
                if csr_head[slot] == v and weights[slot] < best_w:
                    best_w = weights[slot]
                    best = slot
            a = int(adj_arcs[best])
            path_arcs.append(a)
            if arc_res[a] < bottleneck:
                bottleneck = arc_res[a]
            v = u
        for a in path_arcs:
            arc_res[a] -= bottleneck
            arc_res[a ^ 1] += bottleneck
        flow_sent += bottleneck
        iterations += 1
    return iterations


def _bellman_ford_potentials(
    n_total: int,
    source: int,
    arc_tail: np.ndarray,
    arc_head: np.ndarray,
    arc_cost: np.ndarray,
    arc_res: np.ndarray,
) -> np.ndarray:
    """Initial potentials when some arc costs are negative."""
    dist = np.full(n_total, 0.0)  # all nodes as roots: handles disconnection
    for _ in range(n_total):
        changed = False
        active = arc_res > _EPS
        for a in np.flatnonzero(active):
            u, v = arc_tail[a], arc_head[a]
            alt = dist[u] + arc_cost[a]
            if alt < dist[v] - _EPS:
                dist[v] = alt
                changed = True
        if not changed:
            break
    return dist


def solve_transportation_ssp(problem: TransportationProblem) -> TransportPlan:
    """Solve a (possibly unbalanced) dense transportation problem via SSP."""
    balanced, dummy_consumer, dummy_supplier = problem.balanced_form()
    n, m = balanced.n_suppliers, balanced.n_consumers

    mcf = MinCostFlowProblem(n + m)
    inf_cap = balanced.total_supply + 1.0
    sup_ids = np.flatnonzero(balanced.supplies > _EPS)
    con_ids = np.flatnonzero(balanced.demands > _EPS)
    for i in sup_ids:
        mcf.set_supply(int(i), balanced.supplies[i])
    for j in con_ids:
        mcf.set_supply(n + int(j), -balanced.demands[j])
    # Dense supplier x consumer arc grid, built in bulk.
    grid_i = np.repeat(sup_ids, con_ids.size)
    grid_j = np.tile(con_ids, sup_ids.size)
    mcf.add_edges(
        grid_i,
        n + grid_j,
        np.full(grid_i.size, inf_cap),
        balanced.costs[grid_i, grid_j],
    )

    solution = solve_mcf_ssp(mcf)
    flows = np.zeros((n, m))
    flows[grid_i, grid_j] = solution.flows
    # Strip dummy row/column added for balancing.
    if dummy_consumer:
        flows = flows[:, :-1]
    if dummy_supplier:
        flows = flows[:-1, :]
    cost = float((flows * problem.costs).sum())
    return TransportPlan(flows=flows, cost=cost)
