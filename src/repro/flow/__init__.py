"""Min-cost flow and transportation solvers.

The EMD family and the fast SND pipeline both reduce to dense
(possibly unbalanced) transportation problems. Three interchangeable
exact solvers are provided:

* :func:`solve_transportation_network_simplex` — sparse network simplex
  with a warm-startable spanning-tree basis (block pivoting, strongly
  feasible anti-cycling); the exact tier ``method="auto"`` selects, and
  the only one that exploits temporal locality across nearly identical
  instances (sliding windows, corpus appends);
* :func:`solve_transportation_ssp` — successive shortest paths with
  potentials over the bipartite min-cost-flow form
  (:func:`solve_mcf_ssp`, one scipy csgraph Dijkstra per augmentation);
  the paper's own solver, kept for the ablation;
* :func:`solve_transportation_lp` — :func:`scipy.optimize.linprog`
  reference (the paper's CPLEX role in Fig. 11) and the independent
  oracle of the equivalence tests.

All exact solvers agree to numerical tolerance; cross-solver agreement is
property-tested in ``tests/flow/test_solver_equivalence.py``.
``method="auto"`` (:func:`select_transport_method`) is the exact network
simplex at every size; see ``docs/solvers.md``.
"""

from repro.exceptions import ValidationError
from repro.flow.basis import TransportBasis
from repro.flow.lp_reference import solve_transportation_lp
from repro.flow.network_simplex import solve_transportation_network_simplex
from repro.flow.problem import MinCostFlowProblem, TransportationProblem
from repro.flow.ssp import solve_mcf_ssp, solve_transportation_ssp

__all__ = [
    "TransportationProblem",
    "MinCostFlowProblem",
    "TransportBasis",
    "select_transport_method",
    "solve_mcf_ssp",
    "solve_transportation_ssp",
    "solve_transportation_network_simplex",
    "solve_transportation_lp",
    "solve_transportation",
]

_TRANSPORT_SOLVERS = {
    "ssp": solve_transportation_ssp,
    "network-simplex": solve_transportation_network_simplex,
    "lp": solve_transportation_lp,
}


def select_transport_method(n_suppliers: int, n_consumers: int) -> str:
    """The ``method="auto"`` policy for dense transportation instances.

    Always ``"network-simplex"``. The cold network simplex ties or beats
    every other exact solver from 8x8 upward (measured in
    ``docs/solvers.md``), and it is the only tier that consumes a warm
    basis. The SND pipeline still calls
    this with the folded instance shape, so a tracer wrapping it can count
    solves per tier and instance sizes.
    """
    del n_suppliers, n_consumers
    return "network-simplex"


def solve_transportation(problem: TransportationProblem, *, method: str = "ssp"):
    """Solve a (possibly unbalanced) transportation problem.

    ``method`` is one of ``"ssp"`` (default),
    ``"network-simplex"`` (warm-startable sparse simplex — pass bases via
    :func:`solve_transportation_network_simplex` directly), ``"lp"``, or
    ``"auto"``
    (:func:`select_transport_method`: the network simplex).
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
