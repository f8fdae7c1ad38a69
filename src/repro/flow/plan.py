"""Transportation-plan representation and feasibility checking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import FlowError
from repro.flow.problem import TransportationProblem

__all__ = ["TransportPlan"]

_TOL = 1e-7


@dataclass(frozen=True)
class TransportPlan:
    """An (optimal) solution to a :class:`TransportationProblem`.

    Attributes
    ----------
    flows:
        ``(n_suppliers, n_consumers)`` matrix; ``flows[i, j]`` is the mass
        moved from supplier ``i`` to consumer ``j``.
    cost:
        Total transportation cost ``sum(flows * costs)``.
    info:
        Diagnostics of the solve that produced the plan, when the solver
        reports any: a :class:`~repro.flow.network_simplex.NetworkSimplexInfo`
        for the network simplex; ``None`` for the other solvers.
    """

    flows: np.ndarray
    cost: float
    info: object = field(default=None, compare=False)

    @property
    def moved_mass(self) -> float:
        """Total mass moved by the plan."""
        return float(self.flows.sum())

    def validate(self, problem: TransportationProblem) -> None:
        """Raise :class:`FlowError` unless the plan is feasible for *problem*
        and moves the required ``min(total_supply, total_demand)`` mass."""
        flows = self.flows
        if flows.shape != problem.costs.shape:
            raise FlowError(
                f"plan shape {flows.shape} does not match problem {problem.costs.shape}"
            )
        if flows.size and float(flows.min()) < -_TOL:
            raise FlowError(f"negative flow entry: {flows.min()}")
        scale = max(1.0, problem.total_supply, problem.total_demand)
        row = flows.sum(axis=1)
        if np.any(row > problem.supplies + _TOL * scale):
            raise FlowError("plan exceeds some supplier capacity")
        col = flows.sum(axis=0)
        if np.any(col > problem.demands + _TOL * scale):
            raise FlowError("plan exceeds some consumer capacity")
        required = problem.moved_mass
        if abs(self.moved_mass - required) > _TOL * scale:
            raise FlowError(
                f"plan moves {self.moved_mass}, but must move {required}"
            )
        recomputed = float((flows * problem.costs).sum())
        if abs(recomputed - self.cost) > _TOL * max(1.0, abs(recomputed)):
            raise FlowError(
                f"stored cost {self.cost} does not match flows ({recomputed})"
            )
