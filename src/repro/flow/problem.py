"""Problem models for transportation and min-cost flow.

:class:`TransportationProblem` is the dense bipartite form used by the EMD
family (suppliers x consumers with a full cost matrix).
:class:`MinCostFlowProblem` is the sparse general form the successive
shortest paths solver runs on (the bipartite form of a transportation
instance, or the screened support of the sinkhorn-hybrid tier).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import FlowError, ValidationError
from repro.utils.validation import check_finite, check_nonnegative, check_vector

__all__ = ["TransportationProblem", "MinCostFlowProblem"]

#: Mass below this threshold is treated as zero when cleaning inputs.
MASS_EPS = 1e-12


@dataclass(frozen=True)
class TransportationProblem:
    """Optimal transport of ``supplies`` to ``demands`` under dense ``costs``.

    The problem may be *unbalanced* (total supply != total demand); solvers
    then move ``min(total_supply, total_demand)`` units, matching the
    original EMD formulation (Rubner et al., Eq. 1 of the paper):

    .. math::
       \\min \\sum f_{ij} D_{ij}, \\quad
       \\sum f_{ij} = \\min(\\sum P_i, \\sum Q_j), \\quad
       f_{ij} \\ge 0, \\; \\sum_j f_{ij} \\le P_i, \\; \\sum_i f_{ij} \\le Q_j.
    """

    supplies: np.ndarray
    demands: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        supplies = check_vector(self.supplies, "supplies")
        demands = check_vector(self.demands, "demands")
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.shape != (supplies.shape[0], demands.shape[0]):
            raise ValidationError(
                f"costs must have shape ({supplies.shape[0]}, {demands.shape[0]}), "
                f"got {costs.shape}"
            )
        check_nonnegative(supplies, "supplies")
        check_nonnegative(demands, "demands")
        check_nonnegative(costs, "costs")
        check_finite(supplies, "supplies")
        check_finite(demands, "demands")
        check_finite(costs, "costs")
        object.__setattr__(self, "supplies", supplies)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "costs", costs)

    @property
    def n_suppliers(self) -> int:
        return self.supplies.shape[0]

    @property
    def n_consumers(self) -> int:
        return self.demands.shape[0]

    @property
    def total_supply(self) -> float:
        return float(self.supplies.sum())

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    @property
    def is_balanced(self) -> bool:
        return abs(self.total_supply - self.total_demand) <= MASS_EPS * max(
            1.0, self.total_supply, self.total_demand
        )

    @property
    def moved_mass(self) -> float:
        """Mass an optimal plan must move: ``min(total_supply, total_demand)``."""
        return min(self.total_supply, self.total_demand)

    def balanced_form(self) -> tuple["TransportationProblem", bool, bool]:
        """Return an equivalent balanced problem.

        A dummy consumer (resp. supplier) with zero cost absorbs the surplus,
        which realises the EMD inequality constraints exactly. Returns
        ``(problem, has_dummy_consumer, has_dummy_supplier)``.
        """
        surplus = self.total_supply - self.total_demand
        if abs(surplus) <= MASS_EPS * max(1.0, self.total_supply, self.total_demand):
            return self, False, False
        if surplus > 0:
            demands = np.append(self.demands, surplus)
            costs = np.hstack([self.costs, np.zeros((self.n_suppliers, 1))])
            return TransportationProblem(self.supplies, demands, costs), True, False
        supplies = np.append(self.supplies, -surplus)
        costs = np.vstack([self.costs, np.zeros((1, self.n_consumers))])
        return TransportationProblem(supplies, self.demands, costs), False, True


class MinCostFlowProblem:
    """Sparse min-cost flow: directed arcs with capacities and costs, and a
    per-node supply vector ``b`` (positive = source, negative = sink).

    Arcs are appended via :meth:`add_edge`; the structure is frozen by the
    first solver call (arrays are built lazily and cached).
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 0:
            raise ValidationError(f"n_nodes must be non-negative, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self._tails: list[int] = []
        self._heads: list[int] = []
        self._caps: list[float] = []
        self._costs: list[float] = []
        self.supply = np.zeros(self.n_nodes, dtype=np.float64)
        self._frozen: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int, capacity: float, cost: float) -> int:
        """Append arc ``u -> v``; returns its edge id."""
        if self._frozen is not None:
            raise FlowError("problem already frozen by a solver; build a new one")
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise ValidationError(f"arc endpoints ({u}, {v}) out of range")
        if capacity < 0:
            raise ValidationError(f"capacity must be non-negative, got {capacity}")
        self._tails.append(int(u))
        self._heads.append(int(v))
        self._caps.append(float(capacity))
        self._costs.append(float(cost))
        return len(self._tails) - 1

    def add_edges(self, tails, heads, capacities, costs) -> int:
        """Append a batch of arcs at once (vectorised ``add_edge``).

        All four arguments are broadcast-compatible 1-D sequences of equal
        length. Returns the edge id of the first appended arc; the batch
        occupies contiguous ids from there. Validation matches
        :meth:`add_edge` but runs once over the whole batch.
        """
        if self._frozen is not None:
            raise FlowError("problem already frozen by a solver; build a new one")
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        capacities = np.asarray(capacities, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if not (tails.shape == heads.shape == capacities.shape == costs.shape):
            raise ValidationError(
                f"edge batch arrays must share a shape, got {tails.shape}, "
                f"{heads.shape}, {capacities.shape}, {costs.shape}"
            )
        first_id = len(self._tails)
        if tails.size == 0:
            return first_id
        lo = min(int(tails.min()), int(heads.min()))
        hi = max(int(tails.max()), int(heads.max()))
        if lo < 0 or hi >= self.n_nodes:
            raise ValidationError(f"arc endpoints out of range [{lo}, {hi}]")
        if float(capacities.min()) < 0:
            raise ValidationError(
                f"capacities must be non-negative, min={capacities.min()}"
            )
        self._tails.extend(tails.tolist())
        self._heads.extend(heads.tolist())
        self._caps.extend(capacities.tolist())
        self._costs.extend(costs.tolist())
        return first_id

    def set_supply(self, node: int, b: float) -> None:
        """Set the imbalance of *node* (positive supplies, negative demands)."""
        if not 0 <= node < self.n_nodes:
            raise ValidationError(f"node {node} out of range")
        self.supply[node] = float(b)

    def add_supply(self, node: int, b: float) -> None:
        """Accumulate imbalance onto *node*."""
        if not 0 <= node < self.n_nodes:
            raise ValidationError(f"node {node} out of range")
        self.supply[node] += float(b)

    @property
    def n_edges(self) -> int:
        return len(self._tails)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Freeze and return ``(tails, heads, capacities, costs)`` arrays."""
        if self._frozen is None:
            self._frozen = (
                np.asarray(self._tails, dtype=np.int64),
                np.asarray(self._heads, dtype=np.int64),
                np.asarray(self._caps, dtype=np.float64),
                np.asarray(self._costs, dtype=np.float64),
            )
        return self._frozen

    def validate_balance(self) -> None:
        """Raise unless supplies sum to (numerically) zero."""
        total = float(self.supply.sum())
        scale = max(1.0, float(np.abs(self.supply).sum()))
        if abs(total) > 1e-9 * scale:
            raise FlowError(f"node supplies must sum to zero, got {total}")


@dataclass
class FlowSolution:
    """Solver output: per-arc flow, total cost, and solver diagnostics."""

    flows: np.ndarray
    cost: float
    iterations: int = 0
    info: dict = field(default_factory=dict)
