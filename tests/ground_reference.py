"""The Eq. 2 ground-cost builder as first written (test-only oracle).

This is the per-edge-array builder ``repro.snd.ground`` used before it
learned to touch only the edges of opinionated users: every edge's
endpoint opinions come from an ``np.repeat`` of the CSR row pointers, the
model-agnostic penalties are three full-array masks, the default
communication and adoption penalties are ``ones(m)`` and ``zeros(m)``,
and quantization goes through int64 and back. It is kept frozen so the
ground-cost property test can assert the library's costs equal it bit for
bit; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.exceptions import GroundDistanceError, QuantizationError
from repro.opinions.models.base import check_opinion
from repro.opinions.models.model_agnostic import ModelAgnostic


def edge_endpoint_opinions(graph, state) -> tuple[np.ndarray, np.ndarray]:
    """Vectors of source and target opinions per CSR edge."""
    sources = np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), np.diff(graph.indptr)
    )
    return state.values[sources].astype(np.int64), state.values[
        graph.indices
    ].astype(np.int64)


class ModelAgnosticReference(ModelAgnostic):
    """:class:`ModelAgnostic` with its penalties from full-array masks."""

    def spreading_penalties(self, graph, state, opinion):
        opinion = check_opinion(opinion)
        src_op, dst_op = edge_endpoint_opinions(graph, state)
        penalties = np.full(graph.num_edges, self.c_neutral)
        penalties[src_op == opinion] = self.c_friendly
        adverse = (src_op == -opinion) | (dst_op == -opinion)
        penalties[adverse] = self.c_adverse
        return penalties


def frozen(model):
    """A copy of *model* that reads edge endpoints the frozen way (and,
    for :class:`ModelAgnostic`, prices edges with the frozen masks)."""
    if type(model) is ModelAgnostic:
        return ModelAgnosticReference(model.c_friendly, model.c_neutral, model.c_adverse)
    twin = copy.copy(model)
    twin._edge_endpoint_opinions = edge_endpoint_opinions
    return twin


def quantize_costs(costs: np.ndarray, *, max_cost: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        return costs.astype(np.int64)
    if not np.all(np.isfinite(costs)):
        raise QuantizationError("edge costs must be finite before quantization")
    if costs.min() < 0:
        raise QuantizationError(f"edge costs must be non-negative, min={costs.min()}")
    if max_cost < 1:
        raise QuantizationError(f"max_cost must be >= 1, got {max_cost}")
    rounded = np.rint(costs)
    if np.allclose(costs, rounded) and rounded.max() <= max_cost:
        return np.maximum(rounded, 1).astype(np.int64)
    peak = costs.max()
    if peak <= 0:
        return np.ones(costs.shape, dtype=np.int64)
    scaled = costs * (max_cost / peak)
    return np.maximum(1, np.rint(scaled)).astype(np.int64)


def build_edge_costs(
    graph,
    state,
    opinion: int,
    model,
    *,
    communication_penalties=None,
    adoption_penalties=None,
    max_cost: int = 64,
    quantize: bool = True,
) -> np.ndarray:
    """Eq. 2 for one (state, opinion) pair; *model* as given (pass it
    through :func:`frozen` for the frozen endpoint reads)."""
    if state.n != graph.num_nodes:
        raise GroundDistanceError(
            f"state has {state.n} users but graph has {graph.num_nodes}"
        )
    m = graph.num_edges

    if communication_penalties is None:
        comm = np.ones(m)
    else:
        comm = np.asarray(communication_penalties, dtype=np.float64)
        if comm.shape != graph.indices.shape:
            raise GroundDistanceError(
                f"communication penalties must align with the {m} edges"
            )

    if adoption_penalties is None:
        adopt = np.zeros(m)
    else:
        per_node = np.asarray(adoption_penalties, dtype=np.float64)
        if per_node.shape != (graph.num_nodes,):
            raise GroundDistanceError(
                f"adoption penalties must have one entry per node ({graph.num_nodes})"
            )
        adopt = per_node[graph.indices]

    spread = model.spreading_penalties(graph, state, opinion)
    if spread.shape != graph.indices.shape:
        raise GroundDistanceError(
            f"{model.name}: spreading penalties misaligned with edges"
        )

    costs = comm + adopt + spread
    if costs.size and costs.min() < 0:
        raise GroundDistanceError("combined edge costs must be non-negative")
    if quantize:
        return quantize_costs(costs, max_cost=max_cost).astype(np.float64)
    return costs
