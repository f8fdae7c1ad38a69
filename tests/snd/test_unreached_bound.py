"""The bound a certified term prices an unreached cell at, and where its
searches start.

A search limited to ``r`` settles every node within ``r``. On integral
edge costs every distance is an integer, so a node it left unreached is
at least ``⌊r⌋ + 1`` away, and :mod:`repro.snd.fast` prices such a cell
there; on fractional costs it keeps the radius ``r``. A term with at
least ``DijkstraRowCache.MANY_SOURCES`` row sources starts at the median
of the certificate record, a smaller one at its 75th percentile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snd.fast as fast
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.shortestpath.dijkstra import multi_source_distances
from repro.snd import allocate_banks
from repro.snd.cache import DijkstraRowCache
from repro.snd.fast import FastTermStats, emd_star_term_fast
from repro.snd.ground import build_edge_costs, unreachable_cost

MAX_COST = 10


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    radius=st.floats(0.0, 3.0 * MAX_COST, allow_nan=False),
    reverse=st.booleans(),
)
def test_unreached_cells_lie_past_the_next_integer(seed, radius, reverse):
    """On random integral costs every cell a search to ``r`` leaves
    unreached, fresh or served from a held full row cut at ``r``, has
    a full-row distance of at least ``⌊r⌋ + 1``; so the price ``_priced``
    gives it is a lower bound on its full-row price."""
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_graph(30, 0.1, seed=seed, directed=True)
    costs = rng.integers(1, MAX_COST + 1, graph.num_edges).astype(np.float64)
    sources = rng.choice(graph.num_nodes, size=4, replace=False)
    full = multi_source_distances(graph, sources, weights=costs, reverse=reverse)
    fresh = multi_source_distances(
        graph, sources, weights=costs, reverse=reverse, limit=radius
    )
    cache = DijkstraRowCache()
    kwargs = dict(reverse=reverse, cost_key=("c", seed))
    cache.distance_rows(graph, sources, costs, **kwargs)
    served = cache.distance_rows(graph, sources, costs, radius=radius, **kwargs)
    assert cache.stats()["hits"] == sources.size
    assert served.tobytes() == fresh.tobytes()
    assert cache.integral_costs(("c", seed), costs)

    unreached = ~np.isfinite(fresh)
    assert np.all(full[unreached] >= np.floor(radius) + 1)
    unreachable = unreachable_cost(graph.num_nodes, MAX_COST)
    radii = np.full(sources.size, radius)
    prices, bound = fast._priced(fresh, radii, unreachable, True)
    exact, _ = fast._priced(full, None, unreachable, True)
    assert np.array_equal(bound, unreached)
    assert np.array_equal(prices[~unreached], exact[~unreached])
    assert np.all(prices <= exact)


def _fractional_costs(graph, state, opinion, seed):
    rng = np.random.default_rng(seed)
    return build_edge_costs(
        graph, state, opinion, ModelAgnostic(0.5, 1.7, 8.1),
        communication_penalties=rng.uniform(0.3, 2.7, graph.num_edges),
        adoption_penalties=rng.uniform(0.0, 1.3, graph.num_nodes),
        max_cost=MAX_COST, quantize=False,
    )


def _seeded_cache(radius: float) -> DijkstraRowCache:
    cache = DijkstraRowCache()
    for _ in range(cache.RADIUS_WINDOW):
        cache.record_radius(radius, 0.0)
    return cache


def _record_prices(monkeypatch) -> list[tuple]:
    """Wrap ``fast._priced``: every partial-row call's radius, integrality
    flag, prices and bound mask."""
    calls = []
    priced = fast._priced

    def recorded(values, radius, unreachable, integral):
        prices, bound = priced(values, radius, unreachable, integral)
        if radius is not None:
            calls.append((radius, integral, prices, bound, unreachable))
        return prices, bound

    monkeypatch.setattr(fast, "_priced", recorded)
    return calls


@pytest.mark.parametrize("fractional", [True, False])
def test_fractional_costs_keep_the_radius_bound(monkeypatch, fractional):
    """Bounded terms equal full-row terms to 1e-12 on fractional Eq. 2
    costs (``quantize=False``, fractional penalties) and on quantized ones;
    an unreached cell costs the radius on the first and ``⌊r⌋ + 1`` on the
    second."""
    graph = erdos_renyi_graph(40, 0.1, seed=2, directed=True)
    banks = allocate_banks(graph, n_clusters=3, seed=0)
    state = NetworkState.from_active_sets(graph.num_nodes, positive=range(0, 8))
    rng = np.random.default_rng(4)
    calls = _record_prices(monkeypatch)
    rounds = []
    for opinion in (POSITIVE, NEGATIVE):
        if fractional:
            costs = _fractional_costs(graph, state, opinion, seed=opinion + 1)
            assert not np.array_equal(costs, np.rint(costs))
        else:
            costs = build_edge_costs(graph, state, opinion, ModelAgnostic(), max_cost=MAX_COST)
        for _ in range(6):
            p = (rng.random(graph.num_nodes) < 0.3).astype(float)
            q = (rng.random(graph.num_nodes) < 0.3).astype(float)
            full = emd_star_term_fast(
                graph, p, q, costs, banks, max_cost=MAX_COST, solver="network-simplex"
            )
            for radius in (1.5, 4.0, 9.25):
                stats = FastTermStats()
                value = emd_star_term_fast(
                    graph, p, q, costs, banks, max_cost=MAX_COST,
                    solver="network-simplex", row_cache=_seeded_cache(radius),
                    cost_key=("costs", opinion), stats=stats,
                )
                assert abs(value - full) <= 1e-12 * max(1.0, abs(full))
                rounds.append(stats.rounds)
    assert max(rounds) > 1  # some terms grew their rows
    n_bound = 0
    for radius, integral, prices, bound, unreachable in calls:
        assert integral is not fractional
        edge = np.floor(radius) + 1 if integral else radius
        fill = np.broadcast_to(np.minimum(edge, unreachable)[:, None], prices.shape)
        assert np.array_equal(prices[bound], fill[bound])
        n_bound += int(bound.sum())
    assert n_bound > 0


def test_integrality_is_scanned_once_per_cost_key(monkeypatch):
    scans = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: scans.append(a) or array_equal(a, b))
    cache = DijkstraRowCache()
    whole, half = np.array([1.0, 3.0, 7.0]), np.array([1.0, 2.5])
    for _ in range(3):
        assert cache.integral_costs("a", whole) and not cache.integral_costs("b", half)
    assert len(scans) == 2


def _record(cache: DijkstraRowCache, radii, fraction: float = 0.1) -> None:
    for radius in radii:
        cache.record_radius(float(radius), fraction)


class TestStartRule:
    """Few sources start at the record's 75th percentile, many at its
    median; the warm-up and the full-row rule hold for both."""

    RADII = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0] * 2

    def test_source_count_picks_the_percentile(self):
        cache = DijkstraRowCache()
        _record(cache, self.RADII)
        p50, p75 = np.percentile(self.RADII, [50, 75])
        for n_sources in range(1, cache.MANY_SOURCES):
            assert cache.start_radius(n_sources) == p75
        for n_sources in (cache.MANY_SOURCES, cache.MANY_SOURCES + 1, 40):
            assert cache.start_radius(n_sources) == p50
        assert cache.start_radius() == p75
        assert cache.stats()["terms"] == cache.MANY_SOURCES + 3

    def test_warm_up_and_full_rows_hold_for_many_sources(self):
        cache = DijkstraRowCache()
        _record(cache, self.RADII[: cache.RADIUS_WARMUP - 1])
        assert cache.start_radius(1) == cache.start_radius(cache.MANY_SOURCES) == np.inf
        _record(cache, [3.0])
        assert np.isfinite(cache.start_radius(cache.MANY_SOURCES))
        _record(cache, [5.0] * cache.RADIUS_WINDOW, fraction=0.9)
        assert cache.start_radius(1) == cache.start_radius(cache.MANY_SOURCES) == np.inf
        cache.clear()
        assert cache.start_radius(cache.MANY_SOURCES) == np.inf

    def test_terms_start_by_their_row_sources(self, monkeypatch):
        """The term asks with its row-source count: a 2-source term starts
        at the 75th percentile and a 6-source term at the median."""
        graph = erdos_renyi_graph(40, 0.1, seed=3, directed=True)
        banks = allocate_banks(graph, n_clusters=3, seed=0)
        state = NetworkState.from_active_sets(graph.num_nodes, positive=range(0, 8))
        costs = build_edge_costs(graph, state, POSITIVE, ModelAgnostic(), max_cost=MAX_COST)
        cache = DijkstraRowCache()
        _record(cache, self.RADII)
        starts = []
        distance_rows = cache.distance_rows

        def first_radius(*args, radius, **kwargs):
            starts.append(np.unique(radius))
            return distance_rows(*args, radius=radius, **kwargs)

        monkeypatch.setattr(cache, "distance_rows", first_radius)
        for n_sources, q_start in ((2, 75), (6, 50)):
            # Each term records its certificate: read the record it starts from.
            want = np.percentile([radius for radius, _ in cache._radii], q_start)
            p, q = np.zeros(graph.num_nodes), np.zeros(graph.num_nodes)
            p[10:10 + n_sources] = 1.0  # bank-only: every row from p
            starts.clear()
            stats = FastTermStats()
            emd_star_term_fast(
                graph, p, q, costs, banks, max_cost=MAX_COST, solver="network-simplex",
                row_cache=cache, cost_key=("c", POSITIVE), stats=stats,
            )
            assert stats.n_sssp_runs == n_sources
            assert starts[0].tolist() == [want]
        assert cache.stats()["terms"] == 2
