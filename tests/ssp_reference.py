"""Heap-Dijkstra successive shortest paths (test-only oracle).

This is the indexed-binary-heap SSP loop that ``repro.flow.ssp`` was first
written with, kept as an independent reference: the cross-solver harness
compares the library's scipy-backed solver against it, and
``benchmarks/bench_batch_series.py`` times it as its heap baseline. It
shares no code with ``repro.flow.ssp``; nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np
from dijkstra_reference import IndexedBinaryHeap

from repro.exceptions import InfeasibleFlowError
from repro.flow.problem import FlowSolution, MinCostFlowProblem

_EPS = 1e-12


def solve_mcf_ssp_heap(problem: MinCostFlowProblem) -> FlowSolution:
    """Solve a balanced min-cost-flow problem with non-negative arc costs.

    Same contract as :func:`repro.flow.ssp.solve_mcf_ssp` on those
    instances: flows per original arc, their cost, and the number of
    augmentations.
    """
    problem.validate_balance()
    tails, heads, caps, costs = problem.arrays()
    if len(costs) and float(costs.min()) < 0.0:
        raise ValueError("the heap reference handles non-negative costs only")
    n = problem.n_nodes
    m = len(tails)

    # Internal super source / sink realise the node imbalances as arcs.
    source, sink, n_total = n, n + 1, n + 2
    sup_nodes = np.flatnonzero(problem.supply > _EPS)
    dem_nodes = np.flatnonzero(problem.supply < -_EPS)
    total_required = float(problem.supply[sup_nodes].sum())
    all_tails = np.concatenate([tails, np.full(len(sup_nodes), source), dem_nodes])
    all_heads = np.concatenate([heads, sup_nodes, np.full(len(dem_nodes), sink)])
    all_caps = np.concatenate(
        [caps, problem.supply[sup_nodes], -problem.supply[dem_nodes]]
    )
    all_costs = np.concatenate([costs, np.zeros(len(sup_nodes) + len(dem_nodes))])

    # Residual arcs: arc 2e forward, 2e+1 backward.
    arc_tail = np.empty(2 * len(all_tails), dtype=np.int64)
    arc_head = np.empty_like(arc_tail)
    arc_cost = np.empty(2 * len(all_tails), dtype=np.float64)
    arc_res = np.zeros_like(arc_cost)
    arc_tail[0::2], arc_tail[1::2] = all_tails, all_heads
    arc_head[0::2], arc_head[1::2] = all_heads, all_tails
    arc_cost[0::2], arc_cost[1::2] = all_costs, -all_costs
    arc_res[0::2] = all_caps
    adj_arcs = np.argsort(arc_tail, kind="stable")
    adj_ptr = np.zeros(n_total + 1, dtype=np.int64)
    np.add.at(adj_ptr, arc_tail + 1, 1)
    np.cumsum(adj_ptr, out=adj_ptr)

    potential = np.zeros(n_total, dtype=np.float64)
    flow_sent = 0.0
    iterations = 0
    dist = np.empty(n_total, dtype=np.float64)
    pred_arc = np.empty(n_total, dtype=np.int64)
    while flow_sent < total_required - _EPS * max(1.0, total_required):
        # Dijkstra on reduced costs from the super source.
        dist.fill(np.inf)
        pred_arc.fill(-1)
        dist[source] = 0.0
        heap = IndexedBinaryHeap(n_total)
        heap.push(source, 0.0)
        settled = np.zeros(n_total, dtype=bool)
        while len(heap):
            u, du = heap.pop()
            if settled[u]:
                continue
            settled[u] = True
            if u == sink:
                break
            for idx in range(adj_ptr[u], adj_ptr[u + 1]):
                a = adj_arcs[idx]
                if arc_res[a] <= _EPS:
                    continue
                v = arc_head[a]
                if settled[v]:
                    continue
                # Reduced costs are >= 0 up to float dust; clamp the dust.
                reduced = max(arc_cost[a] + potential[u] - potential[v], 0.0)
                alt = du + reduced
                if alt < dist[v] - _EPS:
                    dist[v] = alt
                    pred_arc[v] = a
                    heap.push(int(v), alt)

        if not np.isfinite(dist[sink]):
            raise InfeasibleFlowError(
                f"cannot route required flow: {total_required - flow_sent} "
                f"units remain with the sink unreachable"
            )
        # Settled nodes have exact distances; capping the rest at
        # dist[sink] keeps every reduced cost non-negative.
        potential += np.minimum(dist, dist[sink])

        bottleneck = np.inf
        v = sink
        while v != source:
            a = pred_arc[v]
            bottleneck = min(bottleneck, arc_res[a])
            v = int(arc_tail[a])
        v = sink
        while v != source:
            a = pred_arc[v]
            arc_res[a] -= bottleneck
            arc_res[a ^ 1] += bottleneck
            v = int(arc_tail[a])
        flow_sent += bottleneck
        iterations += 1

    # Per-original-arc flow = residual of the backward arc.
    flows = arc_res[1 : 2 * m : 2].copy()
    cost = float((flows * costs).sum()) if m else 0.0
    return FlowSolution(flows=flows, cost=cost, iterations=iterations)
