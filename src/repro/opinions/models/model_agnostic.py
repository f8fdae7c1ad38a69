"""Model-agnostic opinion propagation penalties (§3).

When there is no evidence the network follows a specific dynamics model,
spreading penalties are constants determined by the spreader's relation to
the opinion being spread:

* ``c_friendly`` — the spreader holds the opinion (cheap);
* ``c_neutral`` — the spreader is neutral (intermediate);
* ``c_adverse`` — the spreader *or the receiver* holds the adverse opinion
  (expensive).

The paper prints the adverse condition as ``G[u] != op ∨ G[v] = -op``; read
literally (with first-match semantics) the neutral case would be dead code,
so we implement the evident intent — adverse iff ``G[u] = -op`` or
``G[v] = -op`` — a deliberate deviation from the printed condition.

Defaults (1 / 2 / 8) are positive integers so Assumption 2 holds without
quantization.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.opinions.models.base import OpinionModel, check_opinion
from repro.opinions.state import NetworkState

__all__ = ["ModelAgnostic"]


class ModelAgnostic(OpinionModel):
    """Constant-penalty spreading model (requires
    ``c_friendly < c_neutral < c_adverse``)."""

    name = "model-agnostic"

    def __init__(
        self,
        c_friendly: float = 1.0,
        c_neutral: float = 2.0,
        c_adverse: float = 8.0,
    ) -> None:
        if not 0 <= c_friendly < c_neutral < c_adverse:
            raise ModelError(
                "penalties must satisfy 0 <= c_friendly < c_neutral < c_adverse, "
                f"got {c_friendly}, {c_neutral}, {c_adverse}"
            )
        self.c_friendly = float(c_friendly)
        self.c_neutral = float(c_neutral)
        self.c_adverse = float(c_adverse)

    def spreading_penalties(
        self, graph: DiGraph, state: NetworkState, opinion: int
    ) -> np.ndarray:
        # Only edges touching an opinion holder differ from c_neutral, so
        # the neutral fill is patched on those alone: friendly out-edges
        # first, then every edge leaving or entering an adverse holder.
        opinion = check_opinion(opinion)
        values = state.values
        adverse = np.flatnonzero(values == -opinion)
        penalties = np.full(graph.num_edges, self.c_neutral)
        penalties[graph.out_edge_ids(np.flatnonzero(values == opinion))] = self.c_friendly
        penalties[graph.out_edge_ids(adverse)] = self.c_adverse
        penalties[graph.in_edge_ids(adverse)] = self.c_adverse
        return penalties

    def supports_simulation(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelAgnostic(c_friendly={self.c_friendly}, "
            f"c_neutral={self.c_neutral}, c_adverse={self.c_adverse})"
        )
