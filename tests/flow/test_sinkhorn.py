"""Tests for the Sinkhorn screen of the ``"sinkhorn-hybrid"`` solver.

The log-domain Sinkhorn iterations (``sinkhorn_iterate``) run only as the
hybrid's screening pass. These tests pin the contract the hybrid keeps
whatever the instance (single supplier/consumer, all-equal costs,
zero-mass bins surviving the balancing step) and whatever the screening
budget or regularisation: the returned plan satisfies the marginals to
float precision and its cost upper-bounds the exact optimum. Instances
that must exercise the screen have more than ``SMALL_EXACT_CELLS`` cells
(``plan.info.screened``); smaller ones are solved exactly unscreened.
"""

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow import TransportationProblem, solve_transportation_lp
from repro.flow.sinkhorn_hybrid import (
    SMALL_EXACT_CELLS,
    solve_transportation_sinkhorn_hybrid,
)

#: Side of a square instance just above the unscreened size.
SCREENED = 70
assert SCREENED * SCREENED > SMALL_EXACT_CELLS


def random_problem(rng, n=SCREENED, m=SCREENED, balanced=True):
    supplies = rng.integers(1, 10, n).astype(float)
    demands = rng.integers(1, 10, m).astype(float)
    if balanced:
        demands = demands * (supplies.sum() / demands.sum())
    costs = rng.integers(1, 15, (n, m)).astype(float)
    return TransportationProblem(supplies, demands, costs)


def child_rng(rng):
    return np.random.default_rng(int(rng.integers(0, 2**32)))


def screened(problem, **kwargs):
    plan = solve_transportation_sinkhorn_hybrid(problem, **kwargs)
    assert plan.info.screened and plan.info.sinkhorn_iterations > 0
    return plan


class TestSinkhorn:
    @pytest.mark.parametrize("trial", range(4))
    def test_upper_bounds_exact_within_margin(self, rng, trial):
        problem = random_problem(child_rng(rng))
        exact = solve_transportation_lp(problem).cost
        approx = screened(problem, epsilon=0.02).cost
        assert approx >= exact - 1e-6  # exact optimum over a restricted support
        assert approx <= exact * 1.15 + 1e-6  # but close

    def test_tightens_with_smaller_epsilon(self, rng):
        """A sharper screening kernel keeps cells nearer the optimal
        support, so the restricted optimum moves toward the exact one."""
        problem = random_problem(rng)
        exact = solve_transportation_lp(problem).cost
        loose = screened(problem, epsilon=0.5).cost
        tight = screened(problem, epsilon=0.01).cost
        assert abs(tight - exact) <= abs(loose - exact) + 1e-9

    def test_marginals_respected(self, rng):
        problem = random_problem(rng)
        plan = screened(problem, epsilon=0.05)
        assert np.allclose(plan.flows.sum(axis=1), problem.supplies, atol=1e-9)
        assert np.allclose(plan.flows.sum(axis=0), problem.demands, atol=1e-9)

    def test_unbalanced_problem_handled(self, rng):
        problem = random_problem(rng, balanced=False)
        assert problem.total_supply != problem.total_demand
        plan = screened(problem, epsilon=0.02)
        plan.validate(problem)
        exact = solve_transportation_lp(problem).cost
        assert plan.cost == pytest.approx(exact, rel=0.15)

    def test_zero_mass(self):
        problem = TransportationProblem(np.zeros(2), np.zeros(2), np.ones((2, 2)))
        assert solve_transportation_sinkhorn_hybrid(problem).cost == 0.0

    def test_empty_bins_tolerated(self, rng):
        problem = random_problem(rng, m=SCREENED + 2)
        supplies, demands = problem.supplies.copy(), problem.demands.copy()
        supplies[[0, 5]] = 0.0
        demands[[1, 9]] = 0.0
        demands *= supplies.sum() / demands.sum()
        problem = TransportationProblem(supplies, demands, problem.costs)
        plan = screened(problem, epsilon=0.02)
        assert not plan.flows[[0, 5], :].any() and not plan.flows[:, [1, 9]].any()
        exact = solve_transportation_lp(problem).cost
        assert plan.cost == pytest.approx(exact, rel=0.1)

    def test_bad_epsilon(self, rng):
        with pytest.raises(FlowError):
            solve_transportation_sinkhorn_hybrid(random_problem(rng), epsilon=0.0)


class TestDegenerateRegressions:
    """Pin the feasibility + upper-bound contract on degenerate instances
    and starved screening budgets."""

    def assert_contract(self, problem, **kwargs):
        plan = solve_transportation_sinkhorn_hybrid(problem, **kwargs)
        exact = solve_transportation_lp(problem).cost
        # Marginal feasibility: shape, non-negativity, moved mass.
        plan.validate(problem)
        # Cost is a true upper bound on the exact optimum.
        scale = max(1.0, abs(exact))
        assert plan.cost >= exact - 1e-9 * scale, (
            f"hybrid cost {plan.cost} fell below exact optimum {exact}"
        )
        return plan, exact

    def test_single_supplier(self, rng):
        problem = TransportationProblem(
            np.array([10.0]),
            rng.integers(1, 5, 4).astype(float),
            rng.integers(1, 9, (1, 4)).astype(float),
        )
        self.assert_contract(problem)

    def test_single_consumer(self, rng):
        problem = TransportationProblem(
            rng.integers(1, 5, 4).astype(float),
            np.array([30.0]),
            rng.integers(1, 9, (4, 1)).astype(float),
        )
        self.assert_contract(problem)

    def test_single_cell(self):
        problem = TransportationProblem(
            np.array([3.0]), np.array([3.0]), np.array([[7.0]])
        )
        plan, exact = self.assert_contract(problem)
        assert plan.cost == pytest.approx(21.0, abs=1e-9)

    def test_all_equal_costs(self, rng):
        """Flat cost surface: every plan is optimal; the screening kernel is
        uniform and the plan must still hit the marginals exactly."""
        n, m = SCREENED, SCREENED
        supplies = rng.integers(1, 8, n).astype(float)
        demands = rng.integers(1, 8, m).astype(float)
        demands *= supplies.sum() / demands.sum()
        problem = TransportationProblem(supplies, demands, np.full((n, m), 3.0))
        plan, exact = self.assert_contract(problem)
        assert plan.info.screened
        assert plan.cost == pytest.approx(3.0 * supplies.sum(), rel=1e-12)

    def test_all_zero_costs(self, rng):
        problem = TransportationProblem(
            np.array([2.0, 3.0]), np.array([5.0]), np.zeros((2, 1))
        )
        plan, _ = self.assert_contract(problem)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_zero_mass_rows_after_balancing(self, rng):
        """Zero-supply bins plus the balancing dummy: the solver must
        restrict to positive-mass bins, then re-embed a full-shape plan."""
        supplies = rng.integers(1, 8, 6).astype(float)
        supplies[[1, 4]] = 0.0
        demands = rng.integers(1, 8, 5).astype(float)  # unbalanced -> dummy
        costs = rng.integers(1, 12, (6, 5)).astype(float)
        problem = TransportationProblem(supplies, demands, costs)
        plan, _ = self.assert_contract(problem)
        assert np.all(plan.flows[[1, 4], :] == 0.0)
        assert plan.flows.shape == (6, 5)

    @pytest.mark.parametrize("max_iter", [1, 3, 10])
    def test_starved_iteration_budget_still_feasible(self, rng, max_iter):
        """A screening budget far below the convergence horizon picks a
        poor support, but the northwest-corner repair keeps it feasible:
        the plan meets the marginals and upper-bounds the optimum for ANY
        budget."""
        problem = random_problem(child_rng(rng))
        plan, _ = self.assert_contract(problem, epsilon=0.02, max_iter=max_iter)
        assert plan.info.screened
        assert np.allclose(plan.flows.sum(axis=1), problem.supplies, atol=1e-9)
        assert np.allclose(plan.flows.sum(axis=0), problem.demands, atol=1e-9)

    def test_tiny_epsilon_numerically_stable(self, rng):
        """Aggressive regularisation (near-exact regime): the log-domain
        iterations must not overflow and the plan must stay feasible."""
        problem = random_problem(child_rng(rng))
        plan, exact = self.assert_contract(problem, epsilon=0.001)
        assert plan.info.screened and plan.info.sinkhorn_iterations > 0
        assert np.isfinite(plan.cost) and np.isfinite(plan.info.lower_bound)
        assert plan.cost == pytest.approx(exact, rel=0.02)
