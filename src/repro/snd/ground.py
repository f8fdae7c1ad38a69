"""Ground-distance construction (Eq. 2) and Assumption-2 quantization.

The ground distance ``D(G_i, op)`` is the shortest-path matrix of the
network under per-edge costs

.. math::
   A_{ext}(G_i, op)_{uv} = -\\log P_{uv} - \\log P^{in}_{uv}
                           - \\log P^{out}_{uv}(G_i, op)

* ``-log P`` — communication penalty. Default: 1 per edge (the connectivity
  matrix), i.e. a pure topological-remoteness penalty; callers with
  communication-frequency data pass per-edge penalties.
* ``-log P_in`` — adoption penalty from the receiver's stubbornness.
  Default: 0 (every user equally receptive), matching the paper's default
  ``P^in_uv = 1``; callers pass per-node susceptibility penalties.
* ``-log P_out`` — spreading penalty from the chosen opinion model.

Assumption 2 requires edge costs to be positive integers bounded by a
constant ``U``; :func:`quantize_costs` maps arbitrary non-negative real
costs onto ``{1..U}``, preserving ratios up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GroundDistanceError, QuantizationError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel
from repro.opinions.state import NetworkState

__all__ = [
    "DEFAULT_MAX_COST",
    "GroundDistanceConfig",
    "build_edge_costs",
    "quantize_costs",
    "unreachable_cost",
]

#: Default Assumption-2 bound ``U`` on integer edge costs.
DEFAULT_MAX_COST = 64


def quantize_costs(costs: np.ndarray, *, max_cost: int = DEFAULT_MAX_COST) -> np.ndarray:
    """Map non-negative real costs onto positive integers ``<= max_cost``.

    Costs that are already non-negative integers within the bound pass
    through unchanged, except that zero entries are floored to 1 (Assumption
    2 demands *positive* integers; rescaling the whole array because of one
    zero would distort every other integer cost). Costs within
    ``numpy.allclose`` of an integer count as integers and are snapped to
    it. Otherwise costs are scaled so the maximum lands on ``max_cost``,
    rounded, and floored at 1. Relative cost structure is preserved up to
    the integer resolution — the "appropriate choice of costs" Assumption 2
    alludes to.
    """
    return _quantized(np.asarray(costs, dtype=np.float64), max_cost).astype(np.int64)


def _quantized(costs: np.ndarray, max_cost: int) -> np.ndarray:
    """:func:`quantize_costs` as float64 (integer-valued), for the cost
    builder. Exact integers within the bound, the common case, skip the
    ``allclose`` test."""
    if costs.size == 0:
        return costs.copy()
    lo, hi = costs.min(), costs.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise QuantizationError("edge costs must be finite before quantization")
    if lo < 0:
        raise QuantizationError(f"edge costs must be non-negative, min={lo}")
    if max_cost < 1:
        raise QuantizationError(f"max_cost must be >= 1, got {max_cost}")
    rounded = np.rint(costs)
    if hi <= max_cost and np.array_equal(costs, rounded):
        return rounded if lo >= 1 else np.maximum(rounded, 1)
    if np.allclose(costs, rounded) and rounded.max() <= max_cost:
        return np.maximum(rounded, 1)
    if hi <= 0:
        return np.ones(costs.shape)
    scaled = costs * (max_cost / hi)
    return np.maximum(1, np.rint(scaled))


def unreachable_cost(n_nodes: int, max_cost: int) -> float:
    """Finite stand-in for infinite shortest-path distances.

    Any finite path costs at most ``U * (n - 1)``, so ``U * n`` is strictly
    larger than every reachable distance while keeping the clamped matrix a
    semimetric: when ``x -> z`` is unreachable, every detour ``x -> y -> z``
    has an unreachable leg too, so the clamp never breaks the triangle
    inequality.
    """
    return float(max_cost) * max(n_nodes, 1)


@dataclass(frozen=True)
class GroundDistanceConfig:
    """Everything needed to turn (graph, state, opinion) into edge costs.

    Attributes
    ----------
    model:
        The opinion model supplying ``-log Pout``.
    communication_penalties:
        Per-edge ``-log P`` (CSR-aligned), or ``None`` for the connectivity
        default of 1 per edge.
    adoption_penalties:
        Per-node ``-log Pin`` applied to each edge's *target*, or ``None``
        for the non-stubborn default of 0.
    max_cost:
        Assumption-2 bound ``U``; set ``quantize=False`` to skip integer
        quantization.
    """

    model: OpinionModel
    communication_penalties: np.ndarray | None = None
    adoption_penalties: np.ndarray | None = None
    max_cost: int = DEFAULT_MAX_COST
    quantize: bool = True
    extra: dict = field(default_factory=dict)

    def edge_costs(self, graph: DiGraph, state: NetworkState, opinion: int) -> np.ndarray:
        """Per-edge ground costs ``A_ext(state, opinion)`` (CSR-aligned)."""
        return build_edge_costs(
            graph,
            state,
            opinion,
            self.model,
            communication_penalties=self.communication_penalties,
            adoption_penalties=self.adoption_penalties,
            max_cost=self.max_cost,
            quantize=self.quantize,
        )


def build_edge_costs(
    graph: DiGraph,
    state: NetworkState,
    opinion: int,
    model: OpinionModel,
    *,
    communication_penalties: np.ndarray | None = None,
    adoption_penalties: np.ndarray | None = None,
    max_cost: int = DEFAULT_MAX_COST,
    quantize: bool = True,
) -> np.ndarray:
    """Assemble Eq. 2 for one (state, opinion) pair.

    Returns a CSR-aligned cost array; integer-valued (as float64) when
    *quantize* is set.
    """
    if state.n != graph.num_nodes:
        raise GroundDistanceError(
            f"state has {state.n} users but graph has {graph.num_nodes}"
        )
    m = graph.num_edges

    # The default penalties (1 per edge, 0 per node) stay scalars: no
    # per-edge array is built for them, and ``1.0 + spread`` is
    # ``(ones + zeros) + spread`` bit for bit.
    comm = 1.0
    if communication_penalties is not None:
        comm = np.asarray(communication_penalties, dtype=np.float64)
        if comm.shape != graph.indices.shape:
            raise GroundDistanceError(
                f"communication penalties must align with the {m} edges"
            )

    if adoption_penalties is not None:
        per_node = np.asarray(adoption_penalties, dtype=np.float64)
        if per_node.shape != (graph.num_nodes,):
            raise GroundDistanceError(
                f"adoption penalties must have one entry per node ({graph.num_nodes})"
            )
        comm = comm + per_node[graph.indices]

    spread = model.spreading_penalties(graph, state, opinion)
    if spread.shape != graph.indices.shape:
        raise GroundDistanceError(
            f"{model.name}: spreading penalties misaligned with edges"
        )

    costs = comm + spread
    if costs.size and costs.min() < 0:
        raise GroundDistanceError("combined edge costs must be non-negative")
    if quantize:
        return _quantized(costs, max_cost)
    return costs
