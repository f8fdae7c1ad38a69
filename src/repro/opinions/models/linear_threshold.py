"""Linear Threshold with Competition (Borodin et al. 2010), §3.

Each edge carries an influence weight ``ω_uv``; each user a threshold
``θ_u``. A neutral user activates once its active in-neighbors' total
weight ``Ω_in`` reaches the threshold, adopting an opinion by weighted vote.

Spreading probabilities entering the ground distance (per the paper's
table, ε-smoothed):

* ``ε``                       if u is not an active in-neighbor of v;
* ``1``                        if ``G[u] = op ∧ G[v] = op``;
* ``(1-ε)·ω_uv / Ω_in``        if ``G[u] = op ∧ G[v] = 0 ∧ Ω_in ≥ θ_v``;
* ``ε``                        otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel, check_opinion
from repro.opinions.state import NEUTRAL, NetworkState
from repro.utils.rng import as_rng

__all__ = ["LinearThresholdModel"]


class LinearThresholdModel(OpinionModel):
    """Competitive linear threshold model.

    Parameters
    ----------
    weights:
        Scalar or CSR-aligned per-edge influence weights ``ω_uv``.
    thresholds:
        Per-node thresholds ``θ_u``; a scalar is broadcast. May also be
        ``"random"``: thresholds are drawn uniformly at simulation time
        (Kempe-style), with 0.5 used inside the (deterministic) ground
        distance.
    epsilon:
        The ε of §3, in (0, 1).
    """

    name = "linear-threshold"

    def __init__(
        self,
        weights: float | np.ndarray = 1.0,
        thresholds: float | np.ndarray | str = 0.5,
        *,
        epsilon: float = 1e-4,
        seed=None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ModelError(f"epsilon must be in (0, 1), got {epsilon}")
        self.weights = weights
        self.thresholds = thresholds
        self.epsilon = float(epsilon)
        self._seed = seed

    def _edge_weights(self, graph: DiGraph) -> np.ndarray:
        if np.isscalar(self.weights):
            return np.full(graph.num_edges, float(self.weights))
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.shape != graph.indices.shape:
            raise ModelError(
                f"weights must be scalar or aligned with the {graph.num_edges} edges"
            )
        return arr

    def _node_thresholds(self, graph: DiGraph, rng=None) -> np.ndarray:
        if isinstance(self.thresholds, str):
            if self.thresholds != "random":
                raise ModelError(f"unknown thresholds spec {self.thresholds!r}")
            if rng is None:
                return np.full(graph.num_nodes, 0.5)
            return as_rng(rng).random(graph.num_nodes)
        if np.isscalar(self.thresholds):
            return np.full(graph.num_nodes, float(self.thresholds))
        arr = np.asarray(self.thresholds, dtype=np.float64)
        if arr.shape != (graph.num_nodes,):
            raise ModelError(
                f"thresholds must be scalar or length {graph.num_nodes}"
            )
        return arr

    # ------------------------------------------------------------------ #

    def spreading_penalties(
        self, graph: DiGraph, state: NetworkState, opinion: int
    ) -> np.ndarray:
        opinion = check_opinion(opinion)
        omega = self._edge_weights(graph)
        theta = self._node_thresholds(graph)
        src_op, dst_op = self._edge_endpoint_opinions(graph, state)
        targets = graph.indices
        active_src = src_op != NEUTRAL

        # Ω_in per node: total active in-neighbor weight.
        omega_in = np.zeros(graph.num_nodes)
        np.add.at(omega_in, targets[active_src], omega[active_src])

        eps = self.epsilon
        pout = np.full(graph.num_edges, eps)
        mutual = (src_op == opinion) & (dst_op == opinion)
        pout[mutual] = 1.0
        over_threshold = omega_in[targets] >= theta[targets]
        frontier = (src_op == opinion) & (dst_op == NEUTRAL) & over_threshold
        with np.errstate(divide="ignore", invalid="ignore"):
            share = (1.0 - eps) * omega / omega_in[targets]
        share[~np.isfinite(share)] = 0.0
        pout[frontier] = share[frontier]
        pout = np.clip(pout, eps, 1.0)
        return -np.log(pout)

    # ------------------------------------------------------------------ #

    def step(
        self, graph: DiGraph, state: NetworkState, rng: np.random.Generator
    ) -> NetworkState:
        """One synchronous LT round: neutral users over threshold activate
        and adopt the weighted-majority opinion of their active in-neighbors
        (probabilistic tie-break via weighted vote)."""
        rng = as_rng(rng)
        omega = self._edge_weights(graph)
        theta = self._node_thresholds(graph, rng=None)  # fixed thresholds per step
        values = state.values
        targets = graph.indices
        src_vals = values[graph.edge_sources()]
        active_edge = src_vals != NEUTRAL

        weight_pos = np.zeros(graph.num_nodes)
        weight_neg = np.zeros(graph.num_nodes)
        pos_edge = active_edge & (src_vals > 0)
        neg_edge = active_edge & (src_vals < 0)
        np.add.at(weight_pos, targets[pos_edge], omega[pos_edge])
        np.add.at(weight_neg, targets[neg_edge], omega[neg_edge])
        omega_in = weight_pos + weight_neg

        neutral = values == NEUTRAL
        activating = np.flatnonzero(neutral & (omega_in >= theta) & (omega_in > 0))
        if activating.size == 0:
            return state
        draws = rng.random(activating.shape[0])
        new_ops = np.where(
            draws < weight_pos[activating] / omega_in[activating], 1, -1
        ).astype(np.int8)
        return state.with_opinions(activating, new_ops)

    def simulate(
        self, graph: DiGraph, initial: NetworkState, *, rounds: int = 1, seed=None
    ) -> NetworkState:
        """Run *rounds* LT steps from *initial*."""
        rng = as_rng(seed)
        state = initial
        for _ in range(rounds):
            state = self.step(graph, state, rng)
        return state
