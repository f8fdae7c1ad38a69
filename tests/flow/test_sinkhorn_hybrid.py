"""Unit tests for the sinkhorn-hybrid solver's building blocks.

The cross-solver *accuracy* properties (tolerance tiers, certificates,
upper-bound vs exact) live in ``test_solver_equivalence.py``; this file
pins the mechanics: the ε-scaling schedule, support-k resolution, top-k
screening mask, northwest-corner feasibility repair, small-instance exact
delegation, the restricted-solve backends, the diagnostics surface
(``last_hybrid_info`` / ``HYBRID_METRICS``), and the two-branch
``method="auto"`` policy (network simplex, hybrid above a cell count).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FlowError, ValidationError
from repro.flow import (
    AUTO_HYBRID_CELLS,
    TransportationProblem,
    select_transport_method,
    solve_transportation,
    solve_transportation_lp,
)
from repro.flow.sinkhorn_hybrid import (
    HYBRID_METRICS,
    HybridMetrics,
    HybridSolveInfo,
    SMALL_EXACT_CELLS,
    _northwest_corner_cells,
    _solve_support_ssp,
    epsilon_schedule,
    last_hybrid_info,
    resolve_support_k,
    screen_support,
    solve_transportation_sinkhorn_hybrid,
)


def random_balanced(rng, n, m, *, cost_hi=20):
    supplies = rng.integers(1, 12, n).astype(float)
    demands = rng.integers(1, 12, m).astype(float)
    demands *= supplies.sum() / demands.sum()
    costs = rng.integers(0, cost_hi, (n, m)).astype(float)
    return TransportationProblem(supplies, demands, costs)


# --------------------------------------------------------------------- #
# ε-scaling schedule
# --------------------------------------------------------------------- #


class TestEpsilonSchedule:
    def test_ends_exactly_at_epsilon(self):
        sched = epsilon_schedule(0.013)
        assert sched[-1] == 0.013

    def test_strictly_decreasing_from_start(self):
        sched = epsilon_schedule(0.01, start=1.0, factor=0.25)
        assert sched[0] == 1.0
        assert all(a > b for a, b in zip(sched, sched[1:]))

    def test_epsilon_at_start_is_single_stage(self):
        assert epsilon_schedule(1.0, start=1.0) == [1.0]

    def test_epsilon_above_start(self):
        # Degenerate but legal: one stage at the requested ε.
        assert epsilon_schedule(2.0, start=1.0) == [2.0]

    def test_bad_epsilon(self):
        with pytest.raises(FlowError):
            epsilon_schedule(0.0)

    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.5, 2.0])
    def test_bad_factor(self, factor):
        with pytest.raises(ValidationError):
            epsilon_schedule(0.1, factor=factor)


# --------------------------------------------------------------------- #
# support_k resolution
# --------------------------------------------------------------------- #


class TestResolveSupportK:
    def test_explicit_passthrough(self):
        assert resolve_support_k(7, 100, 100) == 7

    def test_auto_grows_logarithmically(self):
        small = resolve_support_k("auto", 50, 50)
        large = resolve_support_k("auto", 5000, 5000)
        assert small >= 5
        assert small < large < 40  # log-scale, not linear

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "bogus", None])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValidationError):
            resolve_support_k(bad, 10, 10)


# --------------------------------------------------------------------- #
# screening mask + feasibility repair
# --------------------------------------------------------------------- #


class TestScreenSupport:
    def test_row_and_column_coverage(self, rng):
        log_plan = rng.normal(size=(30, 40))
        k = 4
        mask = screen_support(log_plan, k)
        assert mask.sum(axis=1).min() >= k  # every row keeps >= k cells
        assert mask.sum(axis=0).min() >= k  # every column too
        assert mask.sum() <= k * (30 + 40)  # union stays sparse

    def test_keeps_the_largest_cells(self, rng):
        log_plan = rng.normal(size=(12, 12))
        mask = screen_support(log_plan, 3)
        # The single largest entry of each row must survive.
        top = np.argmax(log_plan, axis=1)
        assert mask[np.arange(12), top].all()

    def test_masks_nested_in_k(self, rng):
        log_plan = rng.normal(size=(25, 18))
        m_small = screen_support(log_plan, 2)
        m_large = screen_support(log_plan, 6)
        assert not (m_small & ~m_large).any()  # monotone: support grows with k

    def test_k_at_least_dims_keeps_everything(self, rng):
        log_plan = rng.normal(size=(6, 9))
        assert screen_support(log_plan, 9).all()


class TestNorthwestRepair:
    def test_cell_count_bound(self, rng):
        a = rng.integers(1, 10, 17).astype(float)
        b = rng.integers(1, 10, 23).astype(float)
        b *= a.sum() / b.sum()
        rows, cols = _northwest_corner_cells(a, b)
        assert rows.size <= 17 + 23 - 1

    def test_nw_cells_alone_are_feasible(self, rng):
        """The NW chain is a basic feasible solution: the restricted
        problem on *only* those cells must already admit exact marginals —
        the property that makes the repair a feasibility guarantee."""
        a = rng.integers(1, 10, 9).astype(float)
        b = rng.integers(1, 10, 12).astype(float)
        b *= a.sum() / b.sum()
        d = rng.integers(0, 20, (9, 12)).astype(float)
        rows, cols = _northwest_corner_cells(a, b)
        plan = _solve_support_ssp(a, b, d, rows, cols)
        assert np.allclose(plan.sum(axis=1), a, atol=1e-9)
        assert np.allclose(plan.sum(axis=0), b, atol=1e-9)

    def test_aggressive_screen_still_feasible(self, rng):
        """k=1 prunes far below feasibility on its own; the repair step
        must still produce a valid plan."""
        problem = random_balanced(rng, 70, 70)
        plan = solve_transportation_sinkhorn_hybrid(
            problem, support_k=1, epsilon=0.3, max_iter=100
        )
        plan.validate(problem)
        info = last_hybrid_info()
        assert info.screened
        assert info.support_density < 0.15


# --------------------------------------------------------------------- #
# exact delegation + restricted-solve backends
# --------------------------------------------------------------------- #


class TestDelegationAndBackends:
    def test_small_instance_matches_exact(self, rng):
        problem = random_balanced(rng, 12, 15)  # 180 cells << SMALL_EXACT_CELLS
        hybrid = solve_transportation_sinkhorn_hybrid(problem)
        exact = solve_transportation_lp(problem)
        assert hybrid.cost == pytest.approx(exact.cost, abs=1e-9 * max(1.0, exact.cost))
        info = last_hybrid_info()
        assert not info.screened
        assert info.support_density == 1.0
        assert info.screen_error_bound == 0.0

    def test_large_k_disables_screening(self, rng):
        problem = random_balanced(rng, 70, 70)  # 4900 cells > SMALL_EXACT_CELLS
        hybrid = solve_transportation_sinkhorn_hybrid(problem, support_k=70)
        exact = solve_transportation_lp(problem)
        assert hybrid.cost == pytest.approx(exact.cost, abs=1e-9 * max(1.0, exact.cost))
        assert not last_hybrid_info().screened

    @pytest.mark.parametrize("backend", ["ssp", "lp"])
    def test_backends_agree_when_screened(self, rng, backend):
        seed = int(rng.integers(0, 2**32))
        problem = random_balanced(np.random.default_rng(seed), 70, 70)
        plan = solve_transportation_sinkhorn_hybrid(
            problem, support_k=8, epsilon=0.02, exact_backend=backend
        )
        plan.validate(problem)
        assert last_hybrid_info().exact_backend == backend
        # Same screen (deterministic) -> same restricted optimum.
        other = "lp" if backend == "ssp" else "ssp"
        ref = solve_transportation_sinkhorn_hybrid(
            problem, support_k=8, epsilon=0.02, exact_backend=other
        )
        assert plan.cost == pytest.approx(ref.cost, abs=1e-7 * max(1.0, ref.cost))

    def test_bad_backend(self, rng):
        with pytest.raises(ValidationError):
            solve_transportation_sinkhorn_hybrid(
                random_balanced(rng, 4, 4), exact_backend="cplex"
            )

    def test_bad_epsilon(self, rng):
        with pytest.raises(FlowError):
            solve_transportation_sinkhorn_hybrid(
                random_balanced(rng, 4, 4), epsilon=-1.0
            )


class TestDegenerateInstances:
    def test_zero_total_mass(self):
        problem = TransportationProblem(np.zeros(3), np.zeros(2), np.ones((3, 2)))
        plan = solve_transportation_sinkhorn_hybrid(problem)
        assert plan.cost == 0.0
        assert plan.flows.shape == (3, 2)

    def test_unbalanced_partial_transport(self, rng):
        supplies = rng.integers(1, 10, 8).astype(float)
        demands = rng.integers(1, 10, 5).astype(float)
        costs = rng.integers(0, 15, (8, 5)).astype(float)
        problem = TransportationProblem(supplies, demands, costs)
        plan = solve_transportation_sinkhorn_hybrid(problem)
        plan.validate(problem)  # partial-transport marginal semantics
        exact = solve_transportation_lp(problem)
        assert plan.cost == pytest.approx(exact.cost, abs=1e-9 * max(1.0, exact.cost))

    def test_zero_mass_bins_screened_instance(self, rng):
        """Empty rows/columns survive the balancing step; the screen must
        restrict to positive-mass bins and still return a full-shape
        feasible plan."""
        problem = random_balanced(rng, 80, 80)
        supplies = problem.supplies.copy()
        demands = problem.demands.copy()
        supplies[::7] = 0.0
        demands *= supplies.sum() / demands.sum()
        problem = TransportationProblem(supplies, demands, problem.costs)
        plan = solve_transportation_sinkhorn_hybrid(problem, epsilon=0.05)
        plan.validate(problem)
        assert plan.flows.shape == (80, 80)
        assert np.all(plan.flows[::7] == 0.0)


# --------------------------------------------------------------------- #
# diagnostics
# --------------------------------------------------------------------- #


class TestDiagnostics:
    def test_last_hybrid_info_fields(self, rng):
        problem = random_balanced(rng, 70, 70)
        plan = solve_transportation_sinkhorn_hybrid(problem, epsilon=0.05, support_k=6)
        info = last_hybrid_info()
        assert info.screened
        assert info.n_cells == 70 * 70
        assert 0 < info.support_cells < info.n_cells
        assert info.support_density == pytest.approx(
            info.support_cells / info.n_cells
        )
        assert info.support_k == 6
        assert info.epsilon == 0.05
        assert info.sinkhorn_iterations > 0
        assert info.cost == plan.cost
        assert np.isfinite(info.screen_error_bound)
        assert info.screen_error_bound >= 0.0

    def test_global_metrics_accumulate(self, rng):
        before = HYBRID_METRICS.snapshot()
        solve_transportation_sinkhorn_hybrid(random_balanced(rng, 70, 70))
        solve_transportation_sinkhorn_hybrid(random_balanced(rng, 5, 5))
        after = HYBRID_METRICS.snapshot()
        assert after["solves"] == before["solves"] + 2
        assert after["screened_solves"] == before["screened_solves"] + 1

    def test_metrics_snapshot_shape(self, rng):
        metrics = HybridMetrics()
        metrics.record(
            HybridSolveInfo(
                n_cells=100, support_cells=25, support_density=0.25,
                screen_error_bound=0.1, screened=True,
            )
        )
        metrics.record(HybridSolveInfo(screened=False))
        snap = metrics.snapshot()
        assert snap["solves"] == 2
        assert snap["screened_solves"] == 1
        assert snap["support_density"] == pytest.approx(0.25)
        assert snap["last_support_density"] == pytest.approx(0.25)
        assert snap["max_screen_error_bound"] == pytest.approx(0.1)
        metrics.reset()
        assert metrics.snapshot()["solves"] == 0

    def test_infinite_bound_not_folded_into_max(self):
        metrics = HybridMetrics()
        metrics.record(
            HybridSolveInfo(
                n_cells=4, support_cells=4, screen_error_bound=float("inf"),
                screened=True,
            )
        )
        snap = metrics.snapshot()
        assert snap["max_screen_error_bound"] == 0.0  # inf = "uncertified"
        assert snap["last_screen_error_bound"] == float("inf")  # but last is honest


# --------------------------------------------------------------------- #
# method="auto": network simplex, hybrid above the cell threshold
# --------------------------------------------------------------------- #


def _shape_with_cells(cells: int) -> tuple[int, int]:
    """An (n, m) whose product is exactly *cells* and reasonably square."""
    n = int(np.sqrt(cells))
    while cells % n:
        n -= 1
    return n, cells // n


class TestAutoSelectionBoundaries:
    @pytest.mark.parametrize(
        "cells,expected",
        [
            (AUTO_HYBRID_CELLS, "network-simplex"),  # exact up to the threshold
            (AUTO_HYBRID_CELLS + 1, "sinkhorn-hybrid"),
        ],
    )
    def test_each_cutoff_both_sides(self, cells, expected):
        n, m = _shape_with_cells(cells)
        assert n * m == cells
        assert select_transport_method(n, m) == expected

    @pytest.mark.parametrize("cells", [2, 64, 65, 2_048, 2_049, 40_000])
    def test_exact_region_is_network_simplex(self, cells):
        """One exact branch: every size below the hybrid threshold lands on
        the network simplex (no size tiers inside the exact region)."""
        n, m = _shape_with_cells(cells)
        assert select_transport_method(n, m) == "network-simplex"

    def test_hybrid_cells_none_keeps_auto_exact(self):
        n, m = _shape_with_cells(AUTO_HYBRID_CELLS + 1)
        assert select_transport_method(n, m, hybrid_cells=None) == "network-simplex"
        huge = select_transport_method(10_000, 10_000, hybrid_cells=None)
        assert huge == "network-simplex"

    def test_hybrid_cells_override_moves_threshold(self):
        assert select_transport_method(80, 80, hybrid_cells=6_000) == "sinkhorn-hybrid"
        assert select_transport_method(80, 80, hybrid_cells=6_400) == "network-simplex"

    def test_hybrid_threshold_above_small_exact_floor(self):
        """auto never routes an instance to the hybrid that the hybrid
        would immediately delegate back to an exact solver."""
        assert AUTO_HYBRID_CELLS > SMALL_EXACT_CELLS

    def test_degenerate_shapes(self):
        assert select_transport_method(0, 10) == "network-simplex"
        assert select_transport_method(10, 0) == "network-simplex"
        assert select_transport_method(1, 1) == "network-simplex"

    def test_solve_transportation_dispatches_hybrid(self, rng):
        problem = random_balanced(rng, 10, 10)
        via_registry = solve_transportation(problem, method="sinkhorn-hybrid")
        exact = solve_transportation_lp(problem)
        assert via_registry.cost == pytest.approx(exact.cost, abs=1e-9)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValidationError, match="sinkhorn-hybrid"):
            solve_transportation(random_balanced(rng, 3, 3), method="sinkhorn")
