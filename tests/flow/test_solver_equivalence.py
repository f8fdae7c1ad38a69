"""Cross-solver equivalence harness (property tests).

Randomized balanced transportation and min-cost-flow instances —
parametrized over size, density (fraction of cheaply-connected pairs),
integer vs float costs, and degenerate supplies (zero bins, tie-heavy
costs) — are solved by every exact solver in the library:

* ``solve_transportation_ssp`` (scipy-backed successive shortest paths;
  min-cost-flow instances are checked against the heap-Dijkstra oracle
  in ``tests/ssp_reference.py``),
* ``solve_transportation_network_simplex`` (warm-startable sparse
  simplex — solved cold *and* re-solved warm from its own optimal basis,
  asserting the warm result is bitwise identical on fully integral
  instances and within ``AGREE_TOL`` otherwise),
* ``solve_transportation(method="auto")`` (the selection policy),
* ``solve_transportation_lp`` (HiGHS reference),

asserting all optimal costs agree within ``1e-9`` (relative to the cost
scale) and that **every returned plan** satisfies the feasibility and
reduced-cost optimality invariants: flow conservation, capacity bounds,
and the absence of a negative-cost cycle in the residual/exchange graph
(the complementary-slackness certificate).

A small smoke subset runs in tier-1; the full matrix is marked
``@pytest.mark.slow`` and runs in CI's property-suite job (``--runslow``).
"""

from __future__ import annotations

import numpy as np
import pytest
import ssp_reference

from repro import flow
from repro.exceptions import ValidationError
from repro.flow import (
    MinCostFlowProblem,
    TransportationProblem,
    select_transport_method,
    solve_mcf_ssp,
    solve_transportation,
    solve_transportation_lp,
    solve_transportation_network_simplex,
    solve_transportation_ssp,
)

#: Cross-solver agreement budget (absolute, costs are O(1e3) at most).
AGREE_TOL = 1e-9
#: Slack for invariant checks on plans returned by the float LP solver.
FEAS_TOL = 1e-6


# --------------------------------------------------------------------- #
# Instance generators
# --------------------------------------------------------------------- #


def make_transportation(
    rng: np.random.Generator,
    n: int,
    m: int,
    *,
    integer_costs: bool = True,
    density: float = 1.0,
    degenerate: bool = False,
) -> TransportationProblem:
    """A random *balanced* transportation instance.

    ``density`` is the fraction of supplier/consumer pairs with a cheap
    cost; the rest get a large uniform cost, modelling effectively
    disconnected pairs. ``degenerate`` zeroes random bins and flattens
    costs onto a coarse grid so solvers face ties and empty rows/columns.
    """
    supplies = rng.integers(0, 12, n).astype(np.float64)
    demands = rng.integers(0, 12, m).astype(np.float64)
    if degenerate:
        supplies[rng.random(n) < 0.4] = 0.0
        demands[rng.random(m) < 0.4] = 0.0
    gap = supplies.sum() - demands.sum()
    if gap > 0:
        demands[-1] += gap
    elif gap < 0:
        supplies[-1] += -gap
    if integer_costs:
        costs = rng.integers(0, 20, (n, m)).astype(np.float64)
    else:
        costs = np.round(rng.random((n, m)) * 20.0, 6)
    if density < 1.0:
        costs = np.where(rng.random((n, m)) < density, costs, 1000.0)
    if degenerate:
        costs = np.floor(costs / 4.0) * 4.0
    return TransportationProblem(supplies, demands, costs)


def make_mcf(
    rng: np.random.Generator, n: int, n_arcs: int, *, integer: bool = True
) -> MinCostFlowProblem:
    """A random balanced MCF instance, feasible by construction (every
    source has a high-cost backbone arc to the sink)."""
    mcf = MinCostFlowProblem(n)
    n_sources = max(1, n // 4)
    supply = rng.integers(1, 6, n_sources).astype(np.float64)
    mcf.supply[:n_sources] = supply
    mcf.supply[n - 1] = -supply.sum()
    total = float(supply.sum())
    mcf.add_edges(
        np.arange(n_sources),
        np.full(n_sources, n - 1),
        np.full(n_sources, total),
        np.full(n_sources, 100.0),
    )
    tails = rng.integers(0, n, n_arcs)
    heads = rng.integers(0, n, n_arcs)
    keep = tails != heads
    caps = rng.integers(1, 9, int(keep.sum())).astype(np.float64)
    if integer:
        costs = rng.integers(0, 30, int(keep.sum())).astype(np.float64)
    else:
        costs = np.round(rng.random(int(keep.sum())) * 30.0, 6)
    mcf.add_edges(tails[keep], heads[keep], caps, costs)
    return mcf


# --------------------------------------------------------------------- #
# Invariant checks
# --------------------------------------------------------------------- #


def _assert_no_negative_cycle(
    n_nodes: int,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    *,
    tol: float,
    label: str,
) -> None:
    """Bellman–Ford convergence check: valid potentials exist (no negative
    residual cycle) iff relaxation reaches a fixed point within n rounds."""
    if len(tails) == 0:
        return
    dist = np.zeros(n_nodes)
    for _ in range(n_nodes + 1):
        alt = dist[tails] + weights
        new = dist.copy()
        np.minimum.at(new, heads, alt)
        if np.all(dist - new <= tol):
            return
        dist = new
    pytest.fail(f"{label}: residual graph has a negative cycle — plan not optimal")


def assert_transportation_plan_optimal(
    problem: TransportationProblem, plan, *, label: str
) -> None:
    """Feasibility + reduced-cost optimality of a transportation plan."""
    plan.validate(problem)  # shape, non-negativity, marginals, moved mass
    n, m = problem.n_suppliers, problem.n_consumers
    if n == 0 or m == 0 or problem.moved_mass <= 0.0:
        return
    scale = max(1.0, float(problem.costs.max()))
    flows = plan.flows
    # Exchange graph: i -> j at c_ij always (f_ij can grow), j -> i at
    # -c_ij where f_ij > 0 (it can shrink). Optimal iff no negative cycle.
    fwd_tails = np.repeat(np.arange(n), m)
    fwd_heads = n + np.tile(np.arange(m), n)
    fwd_costs = problem.costs.ravel()
    back = flows.ravel() > FEAS_TOL
    tails = np.concatenate([fwd_tails, fwd_heads[back]])
    heads = np.concatenate([fwd_heads, fwd_tails[back]])
    weights = np.concatenate([fwd_costs, -fwd_costs[back]])
    _assert_no_negative_cycle(
        n + m, tails, heads, weights, tol=FEAS_TOL * scale, label=label
    )


def assert_mcf_solution_optimal(mcf: MinCostFlowProblem, flows, *, label: str) -> None:
    """Conservation, capacity bounds, and reduced-cost optimality of a
    min-cost-flow solution."""
    tails, heads, caps, costs = mcf.arrays()
    flows = np.asarray(flows, dtype=np.float64)
    scale = max(1.0, float(np.abs(mcf.supply).sum()))
    assert flows.min() >= -FEAS_TOL * scale, f"{label}: negative arc flow"
    assert np.all(flows <= caps + FEAS_TOL * scale), f"{label}: capacity violated"
    outflow = np.bincount(tails, weights=flows, minlength=mcf.n_nodes)
    inflow = np.bincount(heads, weights=flows, minlength=mcf.n_nodes)
    imbalance = np.abs(outflow - inflow - mcf.supply)
    assert imbalance.max() <= FEAS_TOL * scale, (
        f"{label}: flow conservation violated by {imbalance.max()}"
    )
    cost_scale = max(1.0, float(np.abs(costs).max()) if len(costs) else 1.0)
    usable_fwd = flows < caps - FEAS_TOL
    usable_bwd = flows > FEAS_TOL
    res_tails = np.concatenate([tails[usable_fwd], heads[usable_bwd]])
    res_heads = np.concatenate([heads[usable_fwd], tails[usable_bwd]])
    res_costs = np.concatenate([costs[usable_fwd], -costs[usable_bwd]])
    _assert_no_negative_cycle(
        mcf.n_nodes, res_tails, res_heads, res_costs,
        tol=FEAS_TOL * cost_scale, label=label,
    )


def check_transportation_instance(problem: TransportationProblem) -> None:
    """Solve with every applicable solver; assert agreement + invariants."""
    plans = {"ssp": solve_transportation_ssp(problem)}
    plans["lp"] = solve_transportation_lp(problem)
    plans["auto"] = solve_transportation(problem, method="auto")
    ns_cold, ns_basis = solve_transportation_network_simplex(
        problem, return_basis=True
    )
    plans["network-simplex"] = ns_cold

    integral = bool(
        np.allclose(problem.costs, np.round(problem.costs))
        and np.allclose(problem.supplies, np.round(problem.supplies))
        and np.allclose(problem.demands, np.round(problem.demands))
    )

    reference = plans["lp"].cost
    scale = max(1.0, abs(reference))
    for name, plan in plans.items():
        assert plan.cost == pytest.approx(reference, abs=AGREE_TOL * scale), (
            f"{name} disagrees with lp_reference: {plan.cost} vs {reference}"
        )
        assert_transportation_plan_optimal(problem, plan, label=name)

    # Warm-vs-cold exactness: re-solving from the cold solve's own optimal
    # basis only changes the *starting tree*, never the optimum. Fully
    # integral instances must reproduce the cold plan bitwise (all simplex
    # arithmetic stays on integers); float instances agree to AGREE_TOL.
    ns_warm = solve_transportation_network_simplex(problem, basis=ns_basis)
    if integral:
        assert ns_warm.cost == ns_cold.cost, "warm NS cost not bitwise equal"
        assert np.array_equal(ns_warm.flows, ns_cold.flows), (
            "warm NS plan not bitwise equal on integral instance"
        )
    else:
        assert ns_warm.cost == pytest.approx(ns_cold.cost, abs=AGREE_TOL * scale)
        assert_transportation_plan_optimal(problem, ns_warm, label="ns-warm")


def check_mcf_instance(mcf_factory) -> None:
    """Solve a (re-buildable) MCF instance with the SSP solver and the
    heap-Dijkstra reference."""
    solutions = {
        "ssp-heap": (mcf := mcf_factory(), ssp_reference.solve_mcf_ssp_heap(mcf)),
        "ssp": (mcf := mcf_factory(), solve_mcf_ssp(mcf)),
    }

    reference = solutions["ssp-heap"][1].cost
    scale = max(1.0, abs(reference))
    for name, (mcf, solution) in solutions.items():
        assert solution.cost == pytest.approx(reference, abs=AGREE_TOL * scale), (
            f"{name} disagrees with ssp-heap: {solution.cost} vs {reference}"
        )
        assert_mcf_solution_optimal(mcf, solution.flows, label=name)


# --------------------------------------------------------------------- #
# Tier-1 smoke subset
# --------------------------------------------------------------------- #


class TestEquivalenceSmoke:
    # Up to 8x8 = 64 cells: the small-instance region, where auto runs the
    # network simplex as at every size.
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 4), (6, 6), (8, 8)])
    def test_transportation_small(self, rng, n, m):
        check_transportation_instance(make_transportation(rng, n, m))

    def test_transportation_degenerate(self, rng):
        check_transportation_instance(
            make_transportation(rng, 5, 5, degenerate=True)
        )

    def test_transportation_float_costs(self, rng):
        check_transportation_instance(
            make_transportation(rng, 4, 6, integer_costs=False)
        )

    def test_mcf_small(self, rng):
        seed = int(rng.integers(0, 2**32))
        check_mcf_instance(
            lambda: make_mcf(np.random.default_rng(seed), 10, 25)
        )

    def test_all_zero_mass(self):
        problem = TransportationProblem(np.zeros(3), np.zeros(2), np.ones((3, 2)))
        check_transportation_instance(problem)


# --------------------------------------------------------------------- #
# Full property matrix (CI property-suite job)
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 7), (6, 6), (9, 5), (12, 12), (16, 16)])
    @pytest.mark.parametrize("density", [1.0, 0.4])
    @pytest.mark.parametrize("integer_costs", [True, False])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_transportation_matrix(self, rng, n, m, density, integer_costs, degenerate):
        problem = make_transportation(
            rng, n, m,
            integer_costs=integer_costs, density=density, degenerate=degenerate,
        )
        check_transportation_instance(problem)

    @pytest.mark.parametrize("n,n_arcs", [(8, 20), (16, 40), (16, 120), (32, 90), (48, 300)])
    @pytest.mark.parametrize("integer", [True, False])
    def test_mcf_matrix(self, rng, n, n_arcs, integer):
        seed = int(rng.integers(0, 2**32))
        check_mcf_instance(
            lambda: make_mcf(np.random.default_rng(seed), n, n_arcs, integer=integer)
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_unbalanced_partial_transport(self, rng, trial):
        """Unbalanced instances: the solvers move min(supply, demand) mass
        and still agree (the EMD partial-transport semantics)."""
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        supplies = rng.integers(0, 12, n).astype(np.float64)
        demands = rng.integers(0, 12, m).astype(np.float64)
        costs = rng.integers(0, 20, (n, m)).astype(np.float64)
        problem = TransportationProblem(supplies, demands, costs)
        plans = {"ssp": solve_transportation_ssp(problem)}
        plans["network-simplex"] = solve_transportation_network_simplex(problem)
        plans["auto"] = solve_transportation(problem, method="auto")
        plans["lp"] = solve_transportation_lp(problem)
        reference = plans["lp"].cost
        scale = max(1.0, abs(reference))
        for name, plan in plans.items():
            assert plan.cost == pytest.approx(reference, abs=AGREE_TOL * scale), name
            plan.validate(problem)


# --------------------------------------------------------------------- #
# The method="auto" policy and the method registry
# --------------------------------------------------------------------- #


def _shape_with_cells(cells: int) -> tuple[int, int]:
    """An (n, m) whose product is exactly *cells* and reasonably square."""
    n = int(np.sqrt(cells))
    while cells % n:
        n -= 1
    return n, cells // n


class TestAutoPolicy:
    @pytest.mark.parametrize(
        "cells", [2, 64, 65, 2_048, 2_049, 40_000, 160_001, 100_000_000]
    )
    def test_exact_region_is_network_simplex(self, cells):
        """One exact branch: every size lands on the network simplex (no
        size tiers), 10 000 x 10 000 included."""
        n, m = _shape_with_cells(cells)
        assert select_transport_method(n, m) == "network-simplex"

    @pytest.mark.parametrize("cells", [160_000, 160_001])
    def test_each_cutoff_both_sides(self, monkeypatch, cells):
        """On both sides of the former 160 000-cell cutoff ``auto``
        dispatches to the registered network simplex, while naming a
        solver still reaches it."""
        n, m = _shape_with_cells(cells)
        assert n * m == cells
        calls = []
        for name in ("network-simplex", "ssp"):
            monkeypatch.setitem(
                flow._TRANSPORT_SOLVERS, name, lambda p, name=name: calls.append(name)
            )
        problem = TransportationProblem(np.ones(n), np.ones(m), np.zeros((n, m)))
        solve_transportation(problem, method="auto")
        solve_transportation(problem, method="ssp")
        assert calls == ["network-simplex", "ssp"]

    def test_degenerate_shapes(self):
        assert select_transport_method(0, 10) == "network-simplex"
        assert select_transport_method(10, 0) == "network-simplex"
        assert select_transport_method(1, 1) == "network-simplex"

    def test_auto_exact_above_old_cutoff(self):
        """420 x 400 = 168 000 cells, above the 160 000-cell cutoff where
        ``auto`` once left the exact solvers: ``auto`` is bitwise the cold
        network simplex and agrees with HiGHS."""
        rng = np.random.default_rng(11)
        supplies = rng.integers(1, 12, 420).astype(float)
        demands = rng.integers(1, 12, 400).astype(float)
        demands *= supplies.sum() / demands.sum()
        costs = rng.integers(0, 20, (420, 400)).astype(float)
        problem = TransportationProblem(supplies, demands, costs)
        auto = solve_transportation(problem, method="auto")
        cold = solve_transportation_network_simplex(problem)
        assert np.array_equal(auto.flows, cold.flows)
        assert repr(auto.cost) == repr(cold.cost)
        exact = solve_transportation_lp(problem)
        assert auto.cost == pytest.approx(exact.cost, rel=1e-9)

    @pytest.mark.parametrize("method", ["sinkhorn", "sinkhorn-hybrid"])
    def test_unknown_method_rejected(self, rng, method):
        problem = make_transportation(rng, 3, 3)
        with pytest.raises(ValidationError, match="network-simplex"):
            solve_transportation(problem, method=method)
