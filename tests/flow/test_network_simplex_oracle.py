"""The network simplex is bitwise equal to its frozen reference.

``tests/network_simplex_reference.py`` keeps the array-state solver the
list-and-thread tree state replaced. Both run the same pivot rule with
the same float operations in the same order, so every output must match
bit for bit: cost, flows, basis cells, pivots and warm arcs used. The
instances are tiny, medium, degenerate with integer costs and
unbalanced; the starts are cold, the instance's own optimal basis, a
neighbouring instance's basis, random in-range cells and garbage cells.

The default run draws a modest number of examples; ``--runslow`` (CI's
warm-start suite) draws ten times as many.
"""

from __future__ import annotations

import network_simplex_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import TransportationProblem
from repro.flow.basis import TransportBasis
from repro.flow.network_simplex import solve_transportation_network_simplex

KINDS = ("tiny", "medium", "degenerate", "unbalanced")
HINTS = ("cold", "own", "neighbour", "random", "garbage", "empty")
EXAMPLES = 60
SLOW_EXAMPLES = 600


def _instance(rng, kind: str) -> TransportationProblem:
    if kind == "tiny":
        n, m = (int(k) for k in rng.integers(1, 5, size=2))
    else:
        n, m = (int(k) for k in rng.integers(2, 25, size=2))
    if kind == "degenerate":
        # Integer masses with zero bins and tie-heavy integer costs: the
        # regime where the leaving-arc rule decides every degenerate pivot.
        supplies = rng.integers(0, 4, size=n).astype(np.float64)
        demands = rng.integers(0, 4, size=m).astype(np.float64)
        gap = supplies.sum() - demands.sum()
        if gap > 0:
            demands[0] += gap
        else:
            supplies[0] -= gap
        costs = rng.integers(0, 4, size=(n, m)).astype(np.float64)
    else:
        supplies = rng.random(n) + 0.1 * (rng.random(n) < 0.8)
        demands = rng.random(m) + 0.1 * (rng.random(m) < 0.8)
        if kind != "unbalanced":
            demands *= supplies.sum() / demands.sum()
        costs = rng.random((n, m)) * 20.0
    return TransportationProblem(supplies, demands, costs)


def _perturbed(rng, problem: TransportationProblem) -> TransportationProblem:
    supplies = problem.supplies * (1.0 + 0.2 * rng.random(problem.n_suppliers))
    demands = problem.demands * (1.0 + 0.2 * rng.random(problem.n_consumers))
    return TransportationProblem(supplies, demands, problem.costs)


def _hint(rng, mode: str, problem: TransportationProblem):
    n, m = problem.costs.shape
    if mode == "cold":
        return None
    if mode == "empty":
        return TransportBasis(rows=[], cols=[])
    if mode == "own":
        return reference.solve_transportation_network_simplex(
            problem, return_basis=True
        )[1]
    if mode == "neighbour":
        return reference.solve_transportation_network_simplex(
            _perturbed(rng, problem), return_basis=True
        )[1]
    k = int(rng.integers(1, n + m + 3))
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, m, size=k)
    if mode == "garbage":
        # Out-of-range and negative cells, repeats and a cycle's worth of
        # in-range cells: everything the warm-start repair must survive.
        rows = np.concatenate([rows, [-1, n, n + 7, 0], rows[:2]])
        cols = np.concatenate([cols, [0, -3, m, m + 2], cols[:2]])
    return TransportBasis(rows=rows, cols=cols)


def _same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_same_plan(got, want) -> None:
    assert _same_float(got.cost, want.cost), (got.cost, want.cost)
    assert got.flows.shape == want.flows.shape
    assert got.flows.tobytes() == want.flows.tobytes()
    for field in ("n_arcs", "pivots", "warm_arcs_given", "warm_arcs_used"):
        assert getattr(got.info, field) == getattr(want.info, field), field


def _check_dense(seed: int, kind: str, mode: str) -> None:
    rng = np.random.default_rng(seed)
    problem = _instance(rng, kind)
    basis = _hint(rng, mode, problem)
    got, got_basis = solve_transportation_network_simplex(
        problem, basis=basis, return_basis=True
    )
    want, want_basis = reference.solve_transportation_network_simplex(
        problem, basis=basis, return_basis=True
    )
    _assert_same_plan(got, want)
    assert np.array_equal(got_basis.rows, want_basis.rows)
    assert np.array_equal(got_basis.cols, want_basis.cols)
    if mode != "empty" or problem.total_supply > 0:
        assert got.info.warm == want.info.warm


_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    mode=st.sampled_from(HINTS),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(**_cases)
def test_dense_matches_reference(seed, kind, mode):
    _check_dense(seed, kind, mode)


@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(**_cases)
def test_dense_matches_reference_large_budget(seed, kind, mode):
    _check_dense(seed, kind, mode)


@pytest.mark.parametrize("n,m", [(96, 96), (40, 150)])
def test_large_dense_matches_reference(rng, n, m):
    """Instances well past one pricing block (cold and own-basis warm)."""
    problem = TransportationProblem(
        rng.random(n) + 0.5, rng.random(m) + 0.5, rng.integers(0, 50, (n, m))
    )
    own = reference.solve_transportation_network_simplex(problem, return_basis=True)[1]
    for basis in (None, own):
        got, got_basis = solve_transportation_network_simplex(
            problem, basis=basis, return_basis=True
        )
        want, want_basis = reference.solve_transportation_network_simplex(
            problem, basis=basis, return_basis=True
        )
        _assert_same_plan(got, want)
        assert np.array_equal(got_basis.rows, want_basis.rows)
        assert np.array_equal(got_basis.cols, want_basis.cols)
