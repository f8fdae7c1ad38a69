"""The warm-startable sparse network simplex (unit + property tests).

Covers the tier's three contracts:

* **Cold correctness** — agreement with the HiGHS LP reference on random,
  degenerate, unbalanced, and float-cost instances (the heavier
  cross-solver matrix lives in ``test_solver_equivalence.py``, which the
  network simplex also joins).
* **Warm exactness** — a warm basis is a *hint*: any cell set (its own
  optimum, a nearby instance's optimum, a transposed basis, garbage) may
  be passed and the result is the exact optimum; bitwise identical to the
  cold solve on fully integral instances. Warm starts from the instance's
  own optimal basis take zero pivots, and perturbed-instance warm starts
  take measurably fewer pivots than cold — the temporal-locality claim,
  counter-asserted rather than assumed.
* **Anti-cycling** — Cunningham's strongly feasible basis rule must
  terminate on tie-heavy integer costs with many zero bins (the classic
  cycling regime for naive pivot rules); regression-tested across seeds.

Plus the basis helpers (:class:`TransportBasis`, ``validate_basis``), the
sparse support entry point the sinkhorn-hybrid tier consumes, and the
:data:`SIMPLEX_METRICS` counter surface that
``engine.stats()`` / BENCH_engine.json report.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow import TransportationProblem, solve_transportation_lp
from repro.flow.basis import TransportBasis, validate_basis
from repro.flow.network_simplex import (
    SIMPLEX_METRICS,
    last_network_simplex_info,
    solve_support_network_simplex,
    solve_transportation_network_simplex,
)

from test_solver_equivalence import (
    AGREE_TOL,
    assert_transportation_plan_optimal,
    make_transportation,
)


def _agree(plan, problem, label):
    exact = solve_transportation_lp(problem).cost
    scale = max(1.0, abs(exact))
    assert plan.cost == pytest.approx(exact, abs=AGREE_TOL * scale), label
    assert_transportation_plan_optimal(problem, plan, label=label)


def make_nondegenerate(rng, n, m):
    """A balanced instance with continuous masses and costs: the optimal
    basis is nondegenerate (no zero-flow basis arc) almost surely, which is
    the regime where warm-starting from an instance's *own* optimal basis
    provably takes zero pivots (a degenerate optimum drops its zero-flow
    arcs during warm rebuild and pays a few pivots to swap the artificial
    anchors back out — still exact, just not pivot-free)."""
    supplies = rng.random(n) + 0.5
    demands = rng.random(m) + 0.5
    demands *= supplies.sum() / demands.sum()
    costs = rng.random((n, m)) * 20.0
    return TransportationProblem(supplies, demands, costs)


# --------------------------------------------------------------------- #
# Basis helpers
# --------------------------------------------------------------------- #


class TestTransportBasis:
    def test_roundtrip_and_len(self):
        basis = TransportBasis(rows=[0, 1, 2], cols=[1, 0, 2])
        assert len(basis) == 3
        assert basis.cells() == [(0, 1), (1, 0), (2, 2)]
        assert basis.rows.dtype == np.int64

    def test_immutable(self):
        basis = TransportBasis(rows=[0, 1], cols=[1, 0])
        with pytest.raises(ValueError):
            basis.rows[0] = 5

    def test_nbytes_exact(self):
        basis = TransportBasis(rows=np.arange(7), cols=np.arange(7))
        assert basis.nbytes == 2 * 7 * 8  # two int64 vectors

    def test_transpose(self):
        basis = TransportBasis(rows=[0, 2], cols=[1, 3])
        t = basis.transpose()
        assert t.cells() == [(1, 0), (3, 2)]
        assert t.transpose().cells() == basis.cells()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransportBasis(rows=[0, 1], cols=[1])

    def test_validate_rejects_cycles_and_bad_counts(self):
        assert not validate_basis([(0, 0), (0, 1)], 2, 2)  # too few
        # Right count but contains a cycle (0,0),(0,1),(1,0),(1,1) over 3x2.
        assert not validate_basis([(0, 0), (0, 1), (1, 0), (1, 1)], 3, 2)
        assert not validate_basis([(0, 0), (0, 5), (1, 0)], 2, 2)  # out of range
        assert validate_basis([(0, 0), (0, 1), (1, 1)], 2, 2)


# --------------------------------------------------------------------- #
# Cold correctness
# --------------------------------------------------------------------- #


class TestColdSolve:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (6, 6), (9, 4), (14, 14)])
    def test_matches_lp(self, rng, n, m):
        problem = make_transportation(rng, n, m)
        plan = solve_transportation_network_simplex(problem)
        _agree(plan, problem, f"ns-cold-{n}x{m}")

    def test_float_costs(self, rng):
        problem = make_transportation(rng, 7, 9, integer_costs=False)
        _agree(solve_transportation_network_simplex(problem), problem, "ns-float")

    def test_degenerate_bins(self, rng):
        problem = make_transportation(rng, 8, 8, degenerate=True)
        _agree(solve_transportation_network_simplex(problem), problem, "ns-degen")

    def test_unbalanced_partial_transport(self, rng):
        supplies = rng.integers(0, 12, 6).astype(np.float64)
        demands = rng.integers(0, 12, 9).astype(np.float64)
        costs = rng.integers(0, 20, (6, 9)).astype(np.float64)
        problem = TransportationProblem(supplies, demands, costs)
        plan = solve_transportation_network_simplex(problem)
        exact = solve_transportation_lp(problem).cost
        assert plan.cost == pytest.approx(exact, abs=AGREE_TOL * max(1.0, exact))
        plan.validate(problem)

    def test_zero_mass(self):
        problem = TransportationProblem(np.zeros(3), np.zeros(2), np.ones((3, 2)))
        plan = solve_transportation_network_simplex(problem)
        assert plan.cost == 0.0
        assert not plan.flows.any()

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_degenerate_terminates(self, seed):
        """Cycling regression: tie-heavy integer costs on a coarse grid with
        many zero bins is the classic stalling regime for naive leaving-arc
        rules. The strongly-feasible rule must terminate (within the pivot
        budget) and still hit the LP optimum."""
        gen = np.random.default_rng(1000 + seed)
        problem = make_transportation(gen, 12, 12, degenerate=True)
        # Flatten further: only three distinct cost values remain.
        problem = TransportationProblem(
            problem.supplies, problem.demands, np.floor(problem.costs / 8.0) * 8.0
        )
        plan = solve_transportation_network_simplex(problem)
        _agree(plan, problem, f"ns-ties-{seed}")


# --------------------------------------------------------------------- #
# Warm starts
# --------------------------------------------------------------------- #


class TestWarmStart:
    def test_own_basis_zero_pivots(self, rng):
        problem = make_nondegenerate(rng, 10, 10)
        cold, basis = solve_transportation_network_simplex(problem, return_basis=True)
        warm = solve_transportation_network_simplex(problem, basis=basis)
        info = last_network_simplex_info()
        assert info is not None and info.warm
        assert info.pivots == 0, "re-solving from the optimal basis must not pivot"
        assert info.warm_arcs_used == len(basis)
        np.testing.assert_allclose(warm.flows, cold.flows, atol=1e-9)
        assert warm.cost == pytest.approx(cold.cost, abs=AGREE_TOL * max(1.0, cold.cost))

    def test_own_basis_bitwise_on_integral(self, rng):
        """Integral instance (possibly degenerate): the warm solve may pivot
        to retire artificial anchors, but all arithmetic stays on integers,
        so the result is *bitwise* the cold plan."""
        problem = make_transportation(rng, 10, 10)
        cold, basis = solve_transportation_network_simplex(problem, return_basis=True)
        warm = solve_transportation_network_simplex(problem, basis=basis)
        assert last_network_simplex_info().warm
        assert warm.cost == cold.cost
        assert np.array_equal(warm.flows, cold.flows)

    def test_perturbed_instance_fewer_pivots(self, rng):
        base = make_transportation(rng, 24, 24)
        _, basis = solve_transportation_network_simplex(base, return_basis=True)
        # Shift a few units of supply between bins (stay balanced).
        supplies = base.supplies.copy()
        donors = np.nonzero(supplies >= 2)[0]
        supplies[donors[0]] -= 2
        supplies[donors[-1]] += 2
        perturbed = TransportationProblem(supplies, base.demands, base.costs)
        cold = solve_transportation_network_simplex(perturbed)
        cold_pivots = last_network_simplex_info().pivots
        warm = solve_transportation_network_simplex(perturbed, basis=basis)
        warm_pivots = last_network_simplex_info().pivots
        assert warm.cost == pytest.approx(cold.cost, abs=AGREE_TOL * max(1.0, cold.cost))
        assert warm_pivots < cold_pivots, (
            f"warm start did not save pivots: {warm_pivots} vs {cold_pivots}"
        )
        _agree(warm, perturbed, "ns-warm-perturbed")

    def test_garbage_basis_is_safe(self, rng):
        """The basis is a *hint*: arbitrary, even out-of-range, cells must
        never change the optimum."""
        problem = make_transportation(rng, 8, 8)
        exact = solve_transportation_network_simplex(problem).cost
        garbage = TransportBasis(
            rows=rng.integers(-3, 12, 30), cols=rng.integers(-3, 12, 30)
        )
        warm = solve_transportation_network_simplex(problem, basis=garbage)
        assert warm.cost == pytest.approx(exact, abs=AGREE_TOL * max(1.0, exact))
        _agree(warm, problem, "ns-garbage-basis")

    def test_transposed_basis_warms_reversed_instance(self, rng):
        problem = make_transportation(rng, 12, 9)
        _, basis = solve_transportation_network_simplex(problem, return_basis=True)
        reversed_problem = TransportationProblem(
            problem.demands, problem.supplies, problem.costs.T.copy()
        )
        cold = solve_transportation_network_simplex(reversed_problem)
        warm = solve_transportation_network_simplex(
            reversed_problem, basis=basis.transpose()
        )
        info = last_network_simplex_info()
        assert info.warm and info.warm_arcs_used > 0
        assert warm.cost == cold.cost  # integral instance: bitwise

    @pytest.mark.slow
    @pytest.mark.parametrize("trial", range(8))
    def test_warm_exactness_property(self, rng, trial):
        """Warm == cold across random instance families and random hints
        drawn from *other* instances' optima. A foreign hint changes the
        pivot path, so with cost ties the solver may land on an alternate
        optimal vertex — the exactness contract is therefore on the
        *optimum* (bitwise cost on integral instances, where every sum is
        exact integer arithmetic) plus full plan optimality, while
        plan-level bitwise identity is asserted on own-basis warm starts
        (see ``test_own_basis_bitwise_on_integral`` and the equivalence
        harness), where every warm pivot is provably degenerate."""
        n, m = int(rng.integers(2, 16)), int(rng.integers(2, 16))
        integer_costs = bool(rng.integers(0, 2))
        problem = make_transportation(rng, n, m, integer_costs=integer_costs)
        other = make_transportation(rng, n, m, integer_costs=integer_costs)
        _, hint = solve_transportation_network_simplex(other, return_basis=True)
        cold = solve_transportation_network_simplex(problem)
        warm = solve_transportation_network_simplex(problem, basis=hint)
        if integer_costs:
            assert warm.cost == cold.cost, "integral warm cost not bitwise equal"
        else:
            scale = max(1.0, abs(cold.cost))
            assert warm.cost == pytest.approx(cold.cost, abs=AGREE_TOL * scale)
        _agree(warm, problem, f"ns-foreign-hint-{trial}")


# --------------------------------------------------------------------- #
# Sparse support entry point (the sinkhorn-hybrid consumer)
# --------------------------------------------------------------------- #


class TestSupportSolve:
    def _dense_support(self, n, m):
        rows = np.repeat(np.arange(n), m)
        cols = np.tile(np.arange(m), n)
        return rows, cols

    def test_full_support_matches_dense(self, rng):
        problem = make_transportation(rng, 7, 7)
        # Strictly positive bins so the balanced support solve applies.
        a = problem.supplies + 1.0
        b = problem.demands + 1.0
        b *= a.sum() / b.sum()
        d = problem.costs
        rows, cols = self._dense_support(7, 7)
        plan = solve_support_network_simplex(a, b, d, rows, cols)
        dense = solve_transportation_lp(TransportationProblem(a, b, d))
        assert float((plan * d).sum()) == pytest.approx(
            dense.cost, abs=AGREE_TOL * max(1.0, dense.cost)
        )
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-9)

    def test_restricted_support_warm_cells(self, rng):
        n = m = 8
        # Continuous masses: the optimal support basis is nondegenerate
        # almost surely, so the own-cells warm start is pivot-free.
        a = rng.random(n) + 0.5
        b = rng.random(m) + 0.5
        b *= a.sum() / b.sum()
        d = rng.random((n, m)) * 20.0
        # A feasible sparse support: full row 0 + full column 0 + randoms.
        mask = np.zeros((n, m), dtype=bool)
        mask[0, :] = True
        mask[:, 0] = True
        mask[rng.random((n, m)) < 0.4] = True
        rows, cols = np.nonzero(mask)
        plan_cold, cells = solve_support_network_simplex(
            a, b, d, rows, cols, return_cells=True
        )
        plan_warm = solve_support_network_simplex(
            a, b, d, rows, cols, warm_cells=cells
        )
        warm_pivots = last_network_simplex_info().pivots
        assert warm_pivots == 0
        np.testing.assert_allclose(plan_warm, plan_cold, atol=1e-9)
        # Off-support cells never receive flow.
        assert not plan_cold[~mask].any()

    def test_infeasible_support_raises(self):
        # Two suppliers, two consumers, but the support only reaches
        # consumer 0 — consumer 1's demand cannot be met.
        a = np.array([2.0, 2.0])
        b = np.array([1.0, 3.0])
        d = np.ones((2, 2))
        rows = np.array([0, 1])
        cols = np.array([0, 0])
        with pytest.raises(FlowError, match="infeasible"):
            solve_support_network_simplex(a, b, d, rows, cols)


# --------------------------------------------------------------------- #
# Diagnostics
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_counters_split_cold_and_warm(self, rng):
        problem = make_nondegenerate(rng, 10, 10)
        SIMPLEX_METRICS.reset()
        _, basis = solve_transportation_network_simplex(problem, return_basis=True)
        solve_transportation_network_simplex(problem, basis=basis)
        snap = SIMPLEX_METRICS.snapshot()
        assert snap["solves"] == 2
        assert snap["cold_solves"] == 1 and snap["warm_solves"] == 1
        assert snap["warm_pivots_per_solve"] == 0.0
        assert snap["cold_pivots"] == snap["cold_pivots_per_solve"]
        assert snap["last_pivots"] == 0
        SIMPLEX_METRICS.reset()
        assert SIMPLEX_METRICS.snapshot()["solves"] == 0

    def test_last_info_fields(self, rng):
        problem = make_transportation(rng, 6, 5)
        _, basis = solve_transportation_network_simplex(problem, return_basis=True)
        info = last_network_simplex_info()
        assert (info.n_suppliers, info.n_consumers) == (6, 5)
        assert not info.warm and info.warm_arcs_given == 0
        solve_transportation_network_simplex(problem, basis=basis)
        info = last_network_simplex_info()
        assert info.warm and info.warm_arcs_given == len(basis)
        assert info.warm_arcs_used <= info.warm_arcs_given

    def test_basis_survives_pickle(self, rng):
        """Bases cross the process boundary via worker caches; the arrays
        must survive a pickle round-trip intact (and stay read-only)."""
        problem = make_transportation(rng, 5, 5)
        _, basis = solve_transportation_network_simplex(problem, return_basis=True)
        clone = pickle.loads(pickle.dumps(basis))
        assert clone.cells() == basis.cells()
        warm = solve_transportation_network_simplex(problem, basis=clone)
        info = last_network_simplex_info()
        assert info.warm and info.pivots == 0
        assert warm.cost == pytest.approx(
            solve_transportation_lp(problem).cost, abs=AGREE_TOL
        )
