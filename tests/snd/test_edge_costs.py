"""The facts an Eq. 2 cost array carries (``EdgeCosts``): whether every
cost is an integer, the smallest cost and the smallest positive one.

The quantizing builder states them; any other array is scanned once per
fact. A certified term reads integrality off them: an unreached cell of a
search to ``r`` costs ``min(⌊r⌋ + 1, U)`` on quantized costs and keeps
``min(r, U)`` on fractional ones.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.snd.fast as fast
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.snd import allocate_banks
from repro.snd.cache import DijkstraRowCache
from repro.snd.fast import reduce_term, solve_reduced_term
from repro.snd.ground import (
    EdgeCosts,
    GroundDistanceConfig,
    _quantized,
    quantize_costs,
    unreachable_cost,
)

MAX_COST = 10
GRAPH = erdos_renyi_graph(40, 0.1, seed=2, directed=True)
STATE = NetworkState.from_active_sets(GRAPH.num_nodes, positive=range(0, 8), negative=[30])


def _config(quantize: bool, scale: float = 1.0) -> GroundDistanceConfig:
    rng = np.random.default_rng(5)
    return GroundDistanceConfig(
        ModelAgnostic(0.5, 1.7, 8.1),
        communication_penalties=scale * rng.uniform(0.3, 2.7, GRAPH.num_edges),
        adoption_penalties=scale * rng.uniform(0.0, 1.3, GRAPH.num_nodes),
        max_cost=MAX_COST, quantize=quantize,
    )


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("scale", [0.01, 1.0, 40.0])
@pytest.mark.parametrize("opinion", [POSITIVE, NEGATIVE])
def test_builder_facts_equal_a_scan(quantize, scale, opinion):
    """What the builder states equals what a scan of the array finds."""
    built = _config(quantize, scale).build(GRAPH, STATE, opinion)
    scanned = EdgeCosts(built.values.copy())
    assert built.integral is scanned.integral is quantize
    assert built.smallest == scanned.smallest
    assert built.smallest_positive == scanned.smallest_positive
    assert built.values.tobytes() == _config(quantize, scale).edge_costs(
        GRAPH, STATE, opinion
    ).tobytes()


@pytest.mark.parametrize("costs", [
    [3.0, 0.0, 7.0, 2.0],  # integers within U, one below 1
    [4.0, 4.0],  # integers, all at least 1
    [1.0 + 1e-12, 3.0],  # integers up to rounding
    [0.0, 0.0],  # nothing positive
    [0.2, 5.5, 1e6],  # scaled onto {1..U}
    [0.6, 2.4, 9.7],
])
def test_quantized_smallest_is_the_output_minimum(costs):
    values, smallest = _quantized(np.array(costs), MAX_COST)
    assert smallest == values.min()
    assert values.tobytes() == quantize_costs(np.array(costs), max_cost=MAX_COST).astype(
        np.float64
    ).tobytes()


def test_empty_array_has_no_smallest_cost():
    empty = EdgeCosts(np.empty(0))
    assert empty.integral and empty.smallest == empty.smallest_positive == np.inf


@pytest.mark.parametrize("quantize", [True, False])
def test_unreached_price_follows_the_builder(monkeypatch, quantize):
    """A bounded term prices an unreached cell at ``min(⌊r⌋ + 1, U)`` on
    the quantizing builder's costs and at ``min(r, U)`` on fractional
    ones."""
    costs = _config(quantize).build(GRAPH, STATE, POSITIVE)
    banks = allocate_banks(GRAPH, n_clusters=3, seed=0)
    unreachable = unreachable_cost(GRAPH.num_nodes, MAX_COST)
    calls = []
    priced = fast._priced

    def recorded(values, radius, unreachable, integral):
        prices, bound = priced(values, radius, unreachable, integral)
        if radius is not None:
            calls.append((np.array(radius, dtype=float), integral, prices.copy(), bound.copy()))
        return prices, bound

    monkeypatch.setattr(fast, "_priced", recorded)
    rng = np.random.default_rng(4)
    for _ in range(4):
        p = (rng.random(GRAPH.num_nodes) < 0.3).astype(float)
        q = (rng.random(GRAPH.num_nodes) < 0.3).astype(float)
        cache = DijkstraRowCache()
        for _ in range(cache.RADIUS_WINDOW):
            cache.record_radius(2.5, 0.0)
        solve_reduced_term(
            reduce_term(p, q, banks, "mass"), GRAPH, costs, banks, max_cost=MAX_COST,
            solver="network-simplex", row_cache=cache, cost_key=("costs", quantize),
        )
    assert calls
    n_bound = 0
    for radius, integral, prices, bound in calls:
        assert integral is quantize
        edge = np.floor(radius) + 1 if quantize else radius
        fill = np.broadcast_to(np.minimum(edge, unreachable)[:, None], prices.shape)
        assert np.array_equal(prices[bound], fill[bound])
        n_bound += int(bound.sum())
    assert n_bound > 0
