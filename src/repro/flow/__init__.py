"""Min-cost flow and transportation solvers.

The EMD family and the fast SND pipeline both reduce to dense
(possibly unbalanced) transportation problems. Three interchangeable
exact solvers are provided:

* :func:`solve_transportation_network_simplex` — sparse network simplex
  with a warm-startable spanning-tree basis (block pivoting, strongly
  feasible anti-cycling); the exact tier ``method="auto"`` selects, and
  the one that exploits temporal locality across nearly identical
  instances (sliding windows, corpus appends);
* :func:`solve_transportation_ssp` — successive shortest paths with
  potentials over the bipartite min-cost-flow form
  (:func:`solve_mcf_ssp`: heap-free vectorised Dijkstra kernel, heap
  kernel without scipy); the paper's own solver, kept for the ablation;
* :func:`solve_transportation_lp` — :func:`scipy.optimize.linprog`
  reference (the paper's CPLEX role in Fig. 11) and the independent
  oracle of the equivalence tests.

All exact solvers agree to numerical tolerance; cross-solver agreement is
property-tested in ``tests/flow/test_solver_equivalence.py``. One
*approximation tier* sits alongside them:
:func:`solve_transportation_sinkhorn_hybrid` (``"sinkhorn-hybrid"``) — a
Sinkhorn screen identifies a sparse support, then an exact solver runs on
that support; its relative error is certified per solve and
property-tested under tolerance tiers. ``method="auto"``
(:func:`select_transport_method`) is the network simplex up to
:data:`AUTO_HYBRID_CELLS` cells and the hybrid above, where exact dense
solves stop being viable; see ``docs/solvers.md``.
"""

from repro.exceptions import ValidationError
from repro.flow.basis import TransportBasis
from repro.flow.lp_reference import solve_transportation_lp
from repro.flow.network_simplex import solve_transportation_network_simplex
from repro.flow.problem import MinCostFlowProblem, TransportationProblem
from repro.flow.sinkhorn import solve_transportation_sinkhorn
from repro.flow.sinkhorn_hybrid import solve_transportation_sinkhorn_hybrid
from repro.flow.ssp import select_mcf_kernel, solve_mcf_ssp, solve_transportation_ssp

__all__ = [
    "TransportationProblem",
    "MinCostFlowProblem",
    "TransportBasis",
    "select_mcf_kernel",
    "select_transport_method",
    "solve_mcf_ssp",
    "solve_transportation_ssp",
    "solve_transportation_network_simplex",
    "solve_transportation_lp",
    "solve_transportation_sinkhorn",
    "solve_transportation_sinkhorn_hybrid",
    "solve_transportation",
]

#: Above this cell count ``method="auto"`` switches from the exact network
#: simplex to the ``"sinkhorn-hybrid"`` approximation tier: the screened
#: sparse exact solve beats the best exact dense solver by >= 5x at <= 1%
#: certified relative error from roughly this size upward (measured on
#: powerlaw-graph reduced instances — see benchmarks/README.md and
#: BENCH_sinkhorn_hybrid.json). Overridable per call via the
#: ``hybrid_cells`` parameter of :func:`select_transport_method`
#: (``None`` disables the branch and keeps ``auto`` fully exact).
AUTO_HYBRID_CELLS = 160_000

_TRANSPORT_SOLVERS = {
    "ssp": solve_transportation_ssp,
    "network-simplex": solve_transportation_network_simplex,
    "lp": solve_transportation_lp,
    "sinkhorn-hybrid": solve_transportation_sinkhorn_hybrid,
}


def select_transport_method(
    n_suppliers: int,
    n_consumers: int,
    *,
    hybrid_cells: int | None = AUTO_HYBRID_CELLS,
) -> str:
    """The ``method="auto"`` policy for dense transportation instances.

    Returns ``"sinkhorn-hybrid"`` above ``hybrid_cells`` cells and
    ``"network-simplex"`` otherwise. The cold network simplex ties or
    beats every other exact solver from 8x8 upward (measured in
    ``docs/solvers.md``) and is the only exact tier that consumes a warm
    basis, so one exact branch serves cold and warm callers alike. The
    hybrid tier is approximate (certified relative error, see
    :mod:`repro.flow.sinkhorn_hybrid`) and is the only branch that trades
    accuracy for scale. Pass ``hybrid_cells=None`` to keep the selection
    fully exact, or another cell count to move the approximation
    threshold.
    """
    cells = max(0, int(n_suppliers)) * max(0, int(n_consumers))
    if hybrid_cells is not None and cells > int(hybrid_cells):
        return "sinkhorn-hybrid"
    return "network-simplex"


def solve_transportation(problem: TransportationProblem, *, method: str = "ssp"):
    """Solve a (possibly unbalanced) transportation problem.

    ``method`` is one of ``"ssp"`` (default),
    ``"network-simplex"`` (warm-startable sparse simplex — pass bases via
    :func:`solve_transportation_network_simplex` directly), ``"lp"``,
    ``"sinkhorn-hybrid"`` (approximate: Sinkhorn-screened sparse exact
    solve with a certified error bound), or ``"auto"`` (size-based
    selection, :func:`select_transport_method` — the network simplex below
    :data:`AUTO_HYBRID_CELLS` cells, hybrid above).
    Returns a :class:`~repro.flow.plan.TransportPlan`.
    """
    if method == "auto":
        method = select_transport_method(problem.n_suppliers, problem.n_consumers)
    try:
        solver = _TRANSPORT_SOLVERS[method]
    except KeyError:
        raise ValidationError(
            f"unknown method {method!r}; expected 'auto' or one of "
            f"{sorted(_TRANSPORT_SOLVERS)}"
        ) from None
    return solver(problem)
