"""Unit tests for the sinkhorn-hybrid solver's building blocks.

The cross-solver *accuracy* properties (tolerance tiers, certificates,
upper-bound vs exact) live in ``test_solver_equivalence.py``; this file
pins the mechanics: the ε-scaling schedule, support-k resolution, top-k
screening mask, northwest-corner feasibility repair, small-instance exact
delegation, the cold network-simplex restricted solve, the diagnostics
surface (``plan.info``, and its sums in ``SolverCounts``), and the ``method="auto"``
policy (the exact network simplex at every size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import flow
from repro.exceptions import FlowError, ValidationError
from repro.flow import (
    TransportationProblem,
    select_transport_method,
    solve_transportation,
    solve_transportation_lp,
    solve_transportation_network_simplex,
)
from repro.flow.network_simplex import solve_support_network_simplex
from repro.flow.sinkhorn_hybrid import (
    HybridSolveInfo,
    _northwest_corner_cells,
    epsilon_schedule,
    resolve_support_k,
    screen_support,
    solve_transportation_sinkhorn_hybrid,
)
from repro.snd.fast import SolverCounts


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
        plan = solve_support_network_simplex(a, b, d, rows, cols).flows
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
        info = plan.info
        assert info.screened
        assert info.support_density < 0.15


# --------------------------------------------------------------------- #
# exact delegation + the cold restricted solve
# --------------------------------------------------------------------- #


class TestDelegationAndBackends:
    def test_small_instance_matches_exact(self, rng):
        problem = random_balanced(rng, 12, 15)  # 180 cells << SMALL_EXACT_CELLS
        hybrid = solve_transportation_sinkhorn_hybrid(problem)
        exact = solve_transportation_lp(problem)
        assert hybrid.cost == pytest.approx(exact.cost, abs=1e-9 * max(1.0, exact.cost))
        info = hybrid.info
        assert not info.screened
        assert info.support_density == 1.0
        assert info.screen_error_bound == 0.0

    def test_large_k_disables_screening(self, rng):
        problem = random_balanced(rng, 70, 70)  # 4900 cells > SMALL_EXACT_CELLS
        hybrid = solve_transportation_sinkhorn_hybrid(problem, support_k=70)
        exact = solve_transportation_lp(problem)
        assert hybrid.cost == pytest.approx(exact.cost, abs=1e-9 * max(1.0, exact.cost))
        assert not hybrid.info.screened

    def test_network_simplex_backend_reports_its_pivots(self, rng):
        """The screened support is solved cold by the network simplex, and
        the plan reports that solve's pivots."""
        problem = random_balanced(rng, 70, 70)
        plan = solve_transportation_sinkhorn_hybrid(problem, support_k=8)
        plan.validate(problem)
        assert plan.info.screened
        assert plan.info.pivots > 0
        again = solve_transportation_sinkhorn_hybrid(problem, support_k=8)
        assert again.info.pivots == plan.info.pivots
        assert np.array_equal(again.flows, plan.flows)

    def test_bad_backend(self, rng):
        # The restricted solve has one backend; the option is gone and
        # fails loudly rather than being ignored.
        with pytest.raises(TypeError, match="exact_backend"):
            solve_transportation_sinkhorn_hybrid(
                random_balanced(rng, 4, 4), exact_backend="lp"
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
        """The plan carries its own solve's info."""
        problem = random_balanced(rng, 70, 70)
        plan = solve_transportation_sinkhorn_hybrid(problem, epsilon=0.05, support_k=6)
        info = plan.info
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

    def test_counts_accumulate(self, rng):
        """Each hybrid solve counts once, and its restricted solve once as
        a cold network-simplex solve; a solve with no mass runs none."""
        counts = SolverCounts()
        for problem in (
            random_balanced(rng, 70, 70),
            random_balanced(rng, 5, 5),
            TransportationProblem([0.0], [0.0], np.ones((1, 1))),
        ):
            counts.add(solve_transportation_sinkhorn_hybrid(problem).info)
        snap = counts.snapshot()
        assert snap["hybrid"]["solves"] == 3
        assert snap["hybrid"]["screened_solves"] == 1
        assert snap["network_simplex"]["solves"] == 2
        assert snap["network_simplex"]["cold_solves"] == 2

    def test_metrics_snapshot_shape(self, rng):
        counts = SolverCounts()
        counts.add(
            HybridSolveInfo(
                n_cells=100, support_cells=25, support_density=0.25,
                screen_error_bound=0.1, screened=True, pivots=7,
            )
        )
        counts.add(HybridSolveInfo(screened=False))
        snap = counts.snapshot()["hybrid"]
        assert snap == {
            "solves": 2, "screened_solves": 1,
            "support_density": pytest.approx(0.25),
            "max_screen_error_bound": pytest.approx(0.1),
        }
        merged = SolverCounts()
        merged.merge(counts)
        merged.merge(counts)
        assert merged.snapshot()["hybrid"]["solves"] == 4
        assert merged.snapshot()["hybrid"]["max_screen_error_bound"] == pytest.approx(0.1)
        assert merged.snapshot()["network_simplex"]["cold_pivots"] == 14

    def test_infinite_bound_not_folded_into_max(self):
        counts = SolverCounts()
        counts.add(
            HybridSolveInfo(
                n_cells=4, support_cells=4, screen_error_bound=float("inf"),
                screened=True,
            )
        )
        # inf means "uncertified": it never becomes the largest bound.
        assert counts.snapshot()["hybrid"]["max_screen_error_bound"] == 0.0


# --------------------------------------------------------------------- #
# method="auto": the exact network simplex at every size
# --------------------------------------------------------------------- #


def _shape_with_cells(cells: int) -> tuple[int, int]:
    """An (n, m) whose product is exactly *cells* and reasonably square."""
    n = int(np.sqrt(cells))
    while cells % n:
        n -= 1
    return n, cells // n


class TestAutoSelectionBoundaries:
    @pytest.mark.parametrize(
        "cells,explicit",
        [
            (160_000, "network-simplex"),
            (160_001, "sinkhorn-hybrid"),  # above the former auto cutoff
        ],
    )
    def test_each_cutoff_both_sides(self, monkeypatch, cells, explicit):
        """On both sides of the former 160 000-cell cutoff ``auto`` dispatches
        to the network simplex, while naming a solver still reaches it."""
        n, m = _shape_with_cells(cells)
        assert n * m == cells
        assert select_transport_method(n, m) == "network-simplex"
        calls = []
        for name in ("network-simplex", "sinkhorn-hybrid"):
            monkeypatch.setitem(
                flow._TRANSPORT_SOLVERS, name, lambda p, name=name: calls.append(name)
            )
        problem = TransportationProblem(np.ones(n), np.ones(m), np.zeros((n, m)))
        solve_transportation(problem, method="auto")
        solve_transportation(problem, method=explicit)
        assert calls == ["network-simplex", explicit]

    @pytest.mark.parametrize(
        "cells", [2, 64, 65, 2_048, 2_049, 40_000, 160_001, 100_000_000]
    )
    def test_exact_region_is_network_simplex(self, cells):
        """One exact branch: every size lands on the network simplex (no
        size tiers), 10 000 x 10 000 included."""
        n, m = _shape_with_cells(cells)
        assert select_transport_method(n, m) == "network-simplex"

    def test_auto_exact_above_old_cutoff(self):
        """420 x 400 = 168 000 cells, above the 160 000-cell cutoff where
        ``auto`` used to escalate to the approximate hybrid: ``auto`` is
        now bitwise the cold network simplex and agrees with HiGHS."""
        problem = random_balanced(np.random.default_rng(11), 420, 400)
        auto = solve_transportation(problem, method="auto")
        cold = solve_transportation_network_simplex(problem)
        assert np.array_equal(auto.flows, cold.flows)
        assert repr(auto.cost) == repr(cold.cost)
        exact = solve_transportation_lp(problem)
        assert auto.cost == pytest.approx(exact.cost, rel=1e-9)

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
