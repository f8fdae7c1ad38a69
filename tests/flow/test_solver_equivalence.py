"""Cross-solver equivalence harness (property tests).

Randomized balanced transportation and min-cost-flow instances —
parametrized over size, density (fraction of cheaply-connected pairs),
integer vs float costs, and degenerate supplies (zero bins, tie-heavy
costs) — are solved by every exact solver in the library:

* ``solve_transportation_ssp`` under all three Dijkstra kernels
  (``heap`` / ``vector`` / ``argmin``),
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

The **tolerance-tiered hybrid harness** at the bottom extends the same
idea to the approximate ``"sinkhorn-hybrid"`` tier: exact solvers must
agree to ``AGREE_TOL``; the hybrid must return a *feasible* plan whose
cost (a) upper-bounds the exact optimum, (b) stays within a stated
relative-error budget that is a function of ``(ε, k)`` and **monotone in
both** (the tier table itself is asserted monotone), and (c) never
exceeds its own per-solve certificate ``screen_error_bound``.

A small smoke subset runs in tier-1; the full matrix is marked
``@pytest.mark.slow`` and runs in CI's property-suite job (``--runslow``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow import (
    MinCostFlowProblem,
    TransportationProblem,
    solve_mcf_ssp,
    solve_transportation,
    solve_transportation_lp,
    solve_transportation_network_simplex,
    solve_transportation_ssp,
)
from repro.flow.sinkhorn_hybrid import (
    last_hybrid_info,
    solve_transportation_sinkhorn_hybrid,
)

#: Cross-solver agreement budget (absolute, costs are O(1e3) at most).
AGREE_TOL = 1e-9
#: Slack for invariant checks on plans returned by the float LP solver.
FEAS_TOL = 1e-6

SSP_KERNELS = ("heap", "vector", "argmin")

#: The hybrid tier table: ``(epsilon, support_k) -> relative-error
#: budget``. Budgets were calibrated on randomized 70x70..120x80 instances
#: (worst observed error x a 2-5x safety margin; see benchmarks/README.md)
#: and are MONOTONE in both knobs — tightening ε or raising k never
#: loosens the budget. ``test_tier_table_monotone`` asserts that shape
#: programmatically, so the table cannot silently regress.
HYBRID_ERROR_TIERS = (
    # (epsilon, support_k, rel-error budget)
    (0.5, 2, 2.5),       # coarse screen: error can exceed the optimum itself
    (0.1, 4, 0.10),
    (0.05, 6, 0.02),
    (0.02, 8, 0.005),
    (0.005, 16, 0.001),
)


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
    plans = {}
    for kernel in SSP_KERNELS:
        plans[f"ssp-{kernel}"] = solve_transportation_ssp(problem, kernel=kernel)
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
    """Solve a (re-buildable) MCF instance with every SSP kernel."""
    solutions = {}
    for kernel in SSP_KERNELS:
        solutions[f"ssp-{kernel}"] = (mcf := mcf_factory(), solve_mcf_ssp(mcf, kernel=kernel))

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
    # network simplex like everywhere else below the hybrid threshold.
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

    def test_auto_kernel_policy(self, monkeypatch):
        import repro.flow.ssp as ssp_mod
        from repro.flow import select_mcf_kernel

        # With scipy importable the vector kernel wins on every measured
        # shape; without it the heap loop is kept.
        assert select_mcf_kernel(50, 100) == "vector"
        assert select_mcf_kernel(100_000, 200_000) == "vector"
        monkeypatch.setattr(ssp_mod, "_sp_dijkstra", None)
        assert select_mcf_kernel(50, 100) == "heap"


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
        plans = {
            f"ssp-{kernel}": solve_transportation_ssp(problem, kernel=kernel)
            for kernel in SSP_KERNELS
        }
        plans["network-simplex"] = solve_transportation_network_simplex(problem)
        plans["auto"] = solve_transportation(problem, method="auto")
        plans["lp"] = solve_transportation_lp(problem)
        reference = plans["lp"].cost
        scale = max(1.0, abs(reference))
        for name, plan in plans.items():
            assert plan.cost == pytest.approx(reference, abs=AGREE_TOL * scale), name
            plan.validate(problem)


# --------------------------------------------------------------------- #
# Tolerance-tiered hybrid harness
# --------------------------------------------------------------------- #


def make_screened_transportation(
    rng: np.random.Generator,
    n: int,
    m: int,
    *,
    tie_heavy: bool = False,
    integer_costs: bool = True,
) -> TransportationProblem:
    """A balanced instance big enough that the hybrid actually screens
    (``n*m > SMALL_EXACT_CELLS``) with strictly positive costs, so the
    optimum is bounded away from zero and relative error is well-defined."""
    supplies = rng.integers(1, 12, n).astype(np.float64)
    demands = rng.integers(1, 12, m).astype(np.float64)
    demands *= supplies.sum() / demands.sum()
    if integer_costs:
        costs = rng.integers(1, 21, (n, m)).astype(np.float64)
    else:
        costs = 1.0 + np.round(rng.random((n, m)) * 19.0, 6)
    if tie_heavy:
        costs = np.maximum(1.0, np.floor(costs / 4.0) * 4.0)
    return TransportationProblem(supplies, demands, costs)


def check_hybrid_tier(
    problem: TransportationProblem,
    *,
    epsilon: float,
    support_k: int,
    budget: float,
) -> None:
    """One hybrid solve against the exact optimum: feasibility, the
    upper-bound property, the tier's relative-error budget, and the
    per-solve certificate."""
    exact = solve_transportation_lp(problem).cost
    plan = solve_transportation_sinkhorn_hybrid(
        problem, epsilon=epsilon, support_k=support_k
    )
    label = f"hybrid(eps={epsilon}, k={support_k})"
    # Feasible plan with the full partial-transport marginal semantics.
    assert_transportation_plan_optimal_on_support(problem, plan, label=label)
    # Exact-on-a-restriction => a true upper bound on the optimum.
    scale = max(1.0, abs(exact))
    assert plan.cost >= exact - AGREE_TOL * scale, (
        f"{label}: cost {plan.cost} fell below exact optimum {exact}"
    )
    # The tier's stated relative-error budget.
    rel = (plan.cost - exact) / exact
    assert rel <= budget, (
        f"{label}: relative error {rel:.3e} exceeds tier budget {budget}"
    )
    # The certificate: actual error never exceeds the reported bound
    # ((C - OPT)/OPT <= (C - LB)/LB whenever LB <= OPT <= C).
    info = last_hybrid_info()
    assert info is not None and info.screened, f"{label}: expected a screened solve"
    if np.isfinite(info.screen_error_bound):
        assert rel <= info.screen_error_bound + 1e-9, (
            f"{label}: error {rel:.3e} exceeds its own certificate "
            f"{info.screen_error_bound:.3e}"
        )


def assert_transportation_plan_optimal_on_support(problem, plan, *, label):
    """Feasibility-only variant of :func:`assert_transportation_plan_optimal`:
    the hybrid plan is optimal on its *support*, not on the full cell set,
    so the full exchange-graph negative-cycle check does not apply."""
    plan.validate(problem)
    assert plan.flows.min() >= -FEAS_TOL, f"{label}: negative flow"


class TestHybridTiersSmoke:
    """Tier-1 subset: one screened instance, the two mid tiers."""

    @pytest.mark.parametrize(
        "epsilon,support_k,budget",
        [t for t in HYBRID_ERROR_TIERS if t[0] in (0.05, 0.02)],
    )
    def test_mid_tiers(self, rng, epsilon, support_k, budget):
        problem = make_screened_transportation(rng, 70, 70)
        check_hybrid_tier(
            problem, epsilon=epsilon, support_k=support_k, budget=budget
        )

    def test_tier_table_monotone(self):
        """The budget function is monotone in BOTH knobs: any tier with
        smaller-or-equal ε and larger-or-equal k must have a
        smaller-or-equal budget."""
        for e1, k1, b1 in HYBRID_ERROR_TIERS:
            for e2, k2, b2 in HYBRID_ERROR_TIERS:
                if e2 <= e1 and k2 >= k1:
                    assert b2 <= b1, (
                        f"tier table not monotone: ({e1},{k1})->{b1} vs "
                        f"({e2},{k2})->{b2}"
                    )
        # And it is strictly ordered along the published tier sequence.
        budgets = [b for _, _, b in HYBRID_ERROR_TIERS]
        assert budgets == sorted(budgets, reverse=True)

    def test_tiers_tighten_in_practice(self, rng):
        """Observed error is (weakly) better at the tightest tier than at
        the loosest — the behavioural counterpart of the table shape."""
        problem = make_screened_transportation(rng, 70, 70)
        exact = solve_transportation_lp(problem).cost
        loose = solve_transportation_sinkhorn_hybrid(
            problem, epsilon=0.5, support_k=2
        ).cost
        tight = solve_transportation_sinkhorn_hybrid(
            problem, epsilon=0.005, support_k=16
        ).cost
        assert abs(tight - exact) <= abs(loose - exact) + AGREE_TOL * exact


@pytest.mark.slow
class TestHybridTierMatrix:
    """Full randomized matrix: every tier x instance family (CI
    property-suite job, ``--runslow``)."""

    @pytest.mark.parametrize("epsilon,support_k,budget", HYBRID_ERROR_TIERS)
    @pytest.mark.parametrize("n,m", [(70, 70), (64, 90), (120, 80)])
    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_tier_matrix(self, rng, n, m, epsilon, support_k, budget, tie_heavy):
        problem = make_screened_transportation(rng, n, m, tie_heavy=tie_heavy)
        check_hybrid_tier(
            problem, epsilon=epsilon, support_k=support_k, budget=budget
        )

    @pytest.mark.parametrize("trial", range(4))
    def test_float_costs(self, rng, trial):
        problem = make_screened_transportation(rng, 80, 70, integer_costs=False)
        check_hybrid_tier(problem, epsilon=0.02, support_k=8, budget=0.005)

    @pytest.mark.parametrize("trial", range(3))
    def test_unbalanced_screened(self, rng, trial):
        """Unbalanced screened instances: the dummy row/column is folded
        into the support and partial-transport semantics hold."""
        supplies = rng.integers(1, 12, 75).astype(np.float64)
        demands = rng.integers(1, 12, 70).astype(np.float64)
        costs = rng.integers(1, 21, (75, 70)).astype(np.float64)
        problem = TransportationProblem(supplies, demands, costs)
        exact = solve_transportation_lp(problem).cost
        plan = solve_transportation_sinkhorn_hybrid(
            problem, epsilon=0.02, support_k=8
        )
        plan.validate(problem)
        scale = max(1.0, abs(exact))
        assert plan.cost >= exact - AGREE_TOL * scale
        assert (plan.cost - exact) / max(exact, 1.0) <= 0.005

    def test_upper_bound_never_violated_across_seeds(self, rng):
        """Cost >= exact on a stream of fresh instances — the invariant
        that makes the hybrid safe wherever an upper bound is assumed."""
        for _ in range(6):
            seed = int(rng.integers(0, 2**32))
            problem = make_screened_transportation(
                np.random.default_rng(seed), 70, 70
            )
            exact = solve_transportation_lp(problem).cost
            cost = solve_transportation_sinkhorn_hybrid(
                problem, epsilon=0.1, support_k=4
            ).cost
            assert cost >= exact - AGREE_TOL * max(1.0, exact), f"seed={seed}"
