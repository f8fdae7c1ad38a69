"""Interface every opinion-dynamics model implements.

A model contributes the opinion-spreading penalties ``-log Pout(G_i, op)``
to the extended adjacency matrix of Eq. 2:

.. math::
   A_{ext}(G_i, op) = -\\log P(G_i, op) - \\log P_{in}(G_i, op)
                      - \\log P_{out}(G_i, op)

Penalties are returned per *edge*, aligned with the graph's CSR edge order,
so the ground-distance builder composes them with the communication and
adoption terms without materialising any n-by-n matrix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ModelError
from repro.graph.digraph import DiGraph
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState

__all__ = ["OpinionModel", "check_opinion"]


def check_opinion(opinion: int) -> int:
    """Validate a polar opinion argument (must be +1 or -1)."""
    if opinion not in (POSITIVE, NEGATIVE):
        raise ModelError(f"opinion must be +1 or -1, got {opinion}")
    return int(opinion)


class OpinionModel(ABC):
    """Base class for polar opinion propagation models."""

    #: Human-readable model name (used in logs and the CLI).
    name: str = "abstract"

    @abstractmethod
    def spreading_penalties(
        self, graph: DiGraph, state: NetworkState, opinion: int
    ) -> np.ndarray:
        """Per-edge ``-log Pout`` penalties for spreading *opinion*.

        Returns a float array aligned with ``graph.indices`` (CSR edge
        order). Entries must be finite and non-negative: models encode
        "impossible" transitions with the ε trick of §3 (a large but finite
        penalty) rather than infinities, so that any two network states
        remain at a finite, comparable distance.
        """

    def supports_simulation(self) -> bool:
        """Whether :meth:`step` is implemented for this model."""
        return True

    def step(
        self, graph: DiGraph, state: NetworkState, rng: np.random.Generator
    ) -> NetworkState:
        """Advance the dynamics by one round (optional capability)."""
        raise NotImplementedError(f"{self.name} does not define forward dynamics")

    # Convenience shared by subclasses -------------------------------- #

    @staticmethod
    def _edge_endpoint_opinions(
        graph: DiGraph, state: NetworkState
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectors of source and target opinions per CSR edge."""
        values = state.values
        return (
            values[graph.edge_sources()].astype(np.int64),
            values[graph.indices].astype(np.int64),
        )
