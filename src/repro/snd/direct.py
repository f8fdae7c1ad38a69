"""Direct (unreduced) SND computation — validation oracle and Fig. 11 baseline.

This path materialises the dense ground-distance matrix (all-pairs shortest
paths over Eq. 2 edge costs) and hands the full extended transportation
problem to a general-purpose solver — HiGHS ``"lp"`` by default, exactly
what the paper's CPLEX baseline does; any
:func:`repro.flow.solve_transportation` method (``"ssp"``,
``"network-simplex"``) cross-validates it. Super-cubic in ``n`` — usable
only on small graphs, which is the point of the comparison.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra as sp_dijkstra

from repro.emd.emd_star import build_extension
from repro.exceptions import StateError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.snd.banks import BankAllocation, allocate_banks
from repro.snd.ground import DEFAULT_MAX_COST, GroundDistanceConfig, unreachable_cost

__all__ = ["snd_direct", "dense_ground_distance", "emd_star_term_direct"]


def dense_ground_distance(
    graph: DiGraph,
    state: NetworkState,
    opinion: int,
    *,
    config: GroundDistanceConfig,
) -> np.ndarray:
    """Full ``n x n`` ground distance ``D(state, opinion)`` with the
    unreachable clamp applied (so downstream EMD sees finite costs)."""
    edge_costs = config.edge_costs(graph, state, opinion)
    dist = sp_dijkstra(graph.to_scipy_csr(edge_costs), directed=True)
    clamp = unreachable_cost(graph.num_nodes, config.max_cost)
    dist = np.where(np.isfinite(dist), dist, clamp)
    np.fill_diagonal(dist, 0.0)
    return dist


def emd_star_term_direct(
    graph: DiGraph,
    p_hist: np.ndarray,
    q_hist: np.ndarray,
    dense_costs: np.ndarray,
    banks: BankAllocation,
    *,
    method: str = "lp",
    bank_metric: str = "nearest",
    bank_shares: str = "mass",
) -> float:
    """One EMD* term on the full (unreduced) extension."""
    from repro.emd.base import emd_raw_cost

    ext = build_extension(
        p_hist,
        q_hist,
        dense_costs,
        clusters=list(banks.clusters),
        gammas=list(banks.gammas),
        n_banks=banks.n_banks,
        bank_metric=bank_metric,
        bank_shares=bank_shares,
    )
    if ext.total_mass <= 0.0:
        return 0.0
    return emd_raw_cost(ext.p_ext, ext.q_ext, ext.d_ext, method=method)


def snd_direct(
    graph: DiGraph,
    state_a: NetworkState,
    state_b: NetworkState,
    *,
    model: OpinionModel | None = None,
    banks: BankAllocation | None = None,
    config: GroundDistanceConfig | None = None,
    max_cost: int = DEFAULT_MAX_COST,
    method: str = "lp",
    bank_metric: str = "nearest",
    bank_shares: str = "mass",
    seed=None,
) -> float:
    """SND via the direct dense pipeline (Eq. 3 without Theorem 4).

    *method* selects the transportation solver (``"lp"`` default — the
    CPLEX stand-in; ``"ssp"``/``"network-simplex"`` for cross-validation).
    """
    if state_a.n != graph.num_nodes or state_b.n != graph.num_nodes:
        raise StateError("states must cover the graph's user set")
    if config is None:
        config = GroundDistanceConfig(
            model=model if model is not None else ModelAgnostic(), max_cost=max_cost
        )
    if banks is None:
        banks = allocate_banks(graph, max_cost=config.max_cost, seed=seed)

    total = 0.0
    for supplier_state, consumer_state in ((state_a, state_b), (state_b, state_a)):
        for opinion in (POSITIVE, NEGATIVE):
            dense = dense_ground_distance(graph, supplier_state, opinion, config=config)
            total += emd_star_term_direct(
                graph,
                supplier_state.histogram(opinion),
                consumer_state.histogram(opinion),
                dense,
                banks,
                method=method,
                bank_metric=bank_metric,
                bank_shares=bank_shares,
            )
    return 0.5 * total
