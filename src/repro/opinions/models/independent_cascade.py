"""Independent Cascade with Competition (Carnes et al. 2007), §3.

The distance-based competitive IC model: users adopt the opinion of the
*closest* active users (w.r.t. per-edge distances ``d_uv``), with edge
activation probabilities ``p_uv`` splitting ties among equally-close
activators.

Spreading probabilities entering the ground distance (per the paper's
table, with the ε trick making impossible events merely very expensive):

* ``ε``                         if u is not among v's closest active
                                 in-neighbors (``d_v({u}) > d_v(I)``);
* ``1``                          if ``G[u] = op ∧ G[v] = op``;
* ``max(0, p_uv - ε) / p^a(v)``  if ``G[u] = op ∧ G[v] = 0``;
* ``ε``                          otherwise.

``d_v({u})`` is evaluated edge-locally (the direct edge distance ``d_uv``),
making the per-edge cost computable without all-pairs shortest paths, at
the price of ignoring cheaper multi-hop routes from ``u``. ``p^a(v)`` sums
activation probabilities over v's closest active in-neighbors.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel, check_opinion
from repro.opinions.state import NEUTRAL, NetworkState
from repro.utils.rng import as_rng

__all__ = ["IndependentCascadeModel"]


class IndependentCascadeModel(OpinionModel):
    """Competitive independent cascade (activation probs + edge distances).

    Parameters
    ----------
    activation_prob:
        Scalar or per-edge array (CSR-aligned) of activation probabilities
        ``p_uv``.
    edge_distance:
        Scalar or per-edge array of distances ``d_uv`` (defaults to 1, i.e.
        hop counts).
    epsilon:
        The ε of §3: probability assigned to model-impossible events so all
        states stay at finite distance. Must be in (0, 1).
    """

    name = "independent-cascade"

    def __init__(
        self,
        activation_prob: float | np.ndarray = 0.1,
        edge_distance: float | np.ndarray = 1.0,
        *,
        epsilon: float = 1e-4,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ModelError(f"epsilon must be in (0, 1), got {epsilon}")
        self.activation_prob = activation_prob
        self.edge_distance = edge_distance
        self.epsilon = float(epsilon)

    # ------------------------------------------------------------------ #

    def _per_edge(self, graph: DiGraph, value, name: str) -> np.ndarray:
        if np.isscalar(value):
            return np.full(graph.num_edges, float(value))
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != graph.indices.shape:
            raise ModelError(
                f"{name} must be scalar or aligned with the {graph.num_edges} edges"
            )
        return arr

    def spreading_penalties(
        self, graph: DiGraph, state: NetworkState, opinion: int
    ) -> np.ndarray:
        opinion = check_opinion(opinion)
        probs = self._per_edge(graph, self.activation_prob, "activation_prob")
        dists = self._per_edge(graph, self.edge_distance, "edge_distance")
        if np.any((probs < 0) | (probs > 1)):
            raise ModelError("activation probabilities must lie in [0, 1]")

        src_op, dst_op = self._edge_endpoint_opinions(graph, state)
        sources = np.repeat(
            np.arange(graph.num_nodes, dtype=np.int64), np.diff(graph.indptr)
        )
        targets = graph.indices
        active_src = src_op != NEUTRAL

        # d_v(I): per target, min direct-edge distance over active sources.
        closest = np.full(graph.num_nodes, np.inf)
        np.minimum.at(closest, targets[active_src], dists[active_src])
        is_closest = active_src & (dists <= closest[targets])

        # p^a(v): total activation probability of v's closest activators.
        pa = np.zeros(graph.num_nodes)
        np.add.at(pa, targets[is_closest], probs[is_closest])

        eps = self.epsilon
        pout = np.full(graph.num_edges, eps)
        mutual = (src_op == opinion) & (dst_op == opinion)
        pout[mutual] = 1.0
        frontier = (src_op == opinion) & (dst_op == NEUTRAL) & is_closest
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.maximum(0.0, probs - eps) / pa[targets]
        ratio[~np.isfinite(ratio)] = 0.0
        pout[frontier] = ratio[frontier]
        # The ε trick: clamp away zero probabilities so -log stays finite.
        pout = np.clip(pout, eps, 1.0)
        return -np.log(pout)

    # ------------------------------------------------------------------ #
    # Forward simulation (used by Fig. 10's "normal" transitions)
    # ------------------------------------------------------------------ #

    def step(
        self, graph: DiGraph, state: NetworkState, rng: np.random.Generator
    ) -> NetworkState:
        """One synchronous cascade round.

        Every active user attempts each neutral out-neighbor independently
        with probability ``p_uv``. A user activated by several competitors in
        the same round adopts one of their opinions with probability
        proportional to the attempting edges' activation probabilities
        (Carnes' tie-splitting).
        """
        rng = as_rng(rng)
        probs = self._per_edge(graph, self.activation_prob, "activation_prob")
        values = state.values
        # Gather attempts: per neutral target, accumulate weight per opinion.
        weight_pos = np.zeros(graph.num_nodes)
        weight_neg = np.zeros(graph.num_nodes)
        active = np.flatnonzero(values)
        for u in active:
            lo, hi = graph.out_edge_range(u)
            targets = graph.indices[lo:hi]
            neutral = values[targets] == NEUTRAL
            if not neutral.any():
                continue
            cand = targets[neutral]
            cand_probs = probs[lo:hi][neutral]
            success = rng.random(cand.shape[0]) < cand_probs
            if not success.any():
                continue
            bucket = weight_pos if values[u] > 0 else weight_neg
            np.add.at(bucket, cand[success], cand_probs[success])

        total = weight_pos + weight_neg
        contested = np.flatnonzero(total > 0)
        if contested.size == 0:
            return state
        draws = rng.random(contested.shape[0])
        new_ops = np.where(
            draws < weight_pos[contested] / total[contested], 1, -1
        ).astype(np.int8)
        return state.with_opinions(contested, new_ops)

    def simulate(
        self,
        graph: DiGraph,
        initial: NetworkState,
        *,
        rounds: int = 1,
        seed=None,
    ) -> NetworkState:
        """Run *rounds* cascade steps from *initial*."""
        rng = as_rng(seed)
        state = initial
        for _ in range(rounds):
            state = self.step(graph, state, rng)
        return state
