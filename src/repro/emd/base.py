"""The original Earth Mover's Distance (Rubner, Tomasi & Guibas 2000).

EMD(P, Q, D) is the cost of the optimal partial transport moving
``min(sum P, sum Q)`` units from P's bins to Q's bins, divided by the moved
mass (Eq. 1 of the paper). It is a metric on equal-mass histograms when D is
a metric (Theorem 1), but it silently ignores any total-mass mismatch — the
limitation EMD̂/EMDα/EMD* address.

The partial transport is one dense transportation problem, solved by
:func:`repro.flow.solve_transportation` with any of its methods (``"ssp"``
by default; ``"network-simplex"``, ``"lp"``, ``"auto"``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import HistogramError
from repro.flow.plan import TransportPlan
from repro.flow.problem import TransportationProblem
from repro.utils.validation import check_nonnegative, check_vector

__all__ = ["emd", "emd_raw_cost"]


def _as_problem(p, q, costs) -> TransportationProblem:
    p = check_nonnegative(check_vector(p, "P"), "P")
    q = check_nonnegative(check_vector(q, "Q"), "Q")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape != (p.shape[0], q.shape[0]):
        raise HistogramError(
            f"ground distance must be ({p.shape[0]}, {q.shape[0]}), got {costs.shape}"
        )
    return TransportationProblem(p, q, costs)


def emd(
    p,
    q,
    costs,
    *,
    method: str = "ssp",
    return_plan: bool = False,
) -> float | tuple[float, TransportPlan]:
    """Original EMD: mean per-unit cost of the optimal (partial) transport.

    Parameters
    ----------
    p, q:
        Non-negative histograms (any lengths ``n`` and ``m``).
    costs:
        ``(n, m)`` non-negative ground-distance matrix.
    method:
        Transportation solver: ``"ssp"`` (default), ``"network-simplex"``,
        ``"lp"``, ``"auto"`` (see :func:`repro.flow.solve_transportation`).
    return_plan:
        Also return the optimal :class:`TransportPlan`.

    Notes
    -----
    When either histogram is empty the distance is 0 by convention (there is
    no mass to move); Rubner et al. leave this case undefined.
    """
    from repro.flow import solve_transportation

    problem = _as_problem(p, q, costs)
    if problem.moved_mass <= 0.0:
        plan = TransportPlan(flows=np.zeros(problem.costs.shape), cost=0.0)
        return (0.0, plan) if return_plan else 0.0
    plan = solve_transportation(problem, method=method)
    value = plan.cost / problem.moved_mass
    return (value, plan) if return_plan else value


def emd_raw_cost(p, q, costs, *, method: str = "ssp") -> float:
    """Un-normalised optimal transportation cost (``EMD * moved_mass``).

    This is the quantity EMDα and EMD* produce after their mass-evening
    extensions: with balanced extended histograms,
    ``EMD(ext) * total_mass == optimal cost``.
    """
    from repro.flow import solve_transportation

    problem = _as_problem(p, q, costs)
    if problem.moved_mass <= 0.0:
        return 0.0
    return solve_transportation(problem, method=method).cost
