"""Certified bounded Dijkstra rows: a term searched only as far as its
optimum needs equals the full-row term.

A :class:`DijkstraRowCache` whose certificate-radius record is seeded
starts every term's searches at a chosen finite radius; the term then
runs the rows → solve → check → extend loop of :mod:`repro.snd.fast`.
Its value must equal the cache-free (full-row) value to 1e-12 for every
exact solver, both bank-share rules and every orientation of the reduced
instance, including directed graphs whose targets are unreachable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.shortestpath.dijkstra import multi_source_distances
from repro.snd import allocate_banks
from repro.snd.cache import DijkstraRowCache
from repro.snd.fast import MAX_ROUNDS, FastTermStats, emd_star_term_fast
from repro.snd.ground import build_edge_costs, unreachable_cost

EXACT_SOLVERS = ("auto", "ssp", "lp", "network-simplex")
MAX_COST = 10


def seeded_cache(radius: float) -> DijkstraRowCache:
    """A row cache that starts its next term's searches at *radius*."""
    cache = DijkstraRowCache()
    for _ in range(cache.RADIUS_WINDOW):
        cache.record_radius(radius, 0.0)
    assert cache.start_radius() == radius
    return cache


def _histograms(n: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(supplier, consumer) histograms covering every orientation: a
    deficit on either side, and equal totals with either side smaller."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(3):
        # 0/1 states: deficits on both sides.
        p = (rng.random(n) < 0.3).astype(float)
        q = (rng.random(n) < 0.3).astype(float)
        pairs += [(p, q), (q, p)]
        # Dyadic masses with equal totals: zero deficit, either side smaller.
        h = rng.integers(1, 4, n) / 4 * (rng.random(n) < 0.35)
        spread = rng.permutation(h)
        pairs += [(h, spread), (spread, h)]
    return pairs


def _orientations(pairs) -> set[str]:
    seen = set()
    for p, q in pairs:
        common = np.minimum(p, q)
        n_sup = np.count_nonzero(p - common > 1e-12)
        n_con = np.count_nonzero(q - common > 1e-12)
        if p.sum() != q.sum():
            seen.add("banks-on-consumers" if p.sum() > q.sum() else "banks-on-suppliers")
        elif n_sup != n_con:
            seen.add("even-fewer-suppliers" if n_sup < n_con else "even-more-suppliers")
    return seen


def _term(graph, p, q, costs, banks, **kwargs) -> tuple[float, FastTermStats]:
    stats = FastTermStats()
    value = emd_star_term_fast(
        graph, p, q, costs, banks, max_cost=MAX_COST, stats=stats, **kwargs
    )
    return value, stats


def bounded_vs_full(graph, solver, shares, n_banks, radii, seed) -> list[tuple]:
    """Check every histogram pair at every start radius; returns one
    record per bounded term: ``float.hex`` of its value, its rounds,
    settled nodes and pivots."""
    banks = allocate_banks(graph, n_clusters=3, n_banks=n_banks, seed=0)
    state = NetworkState.from_active_sets(graph.num_nodes, positive=range(0, 8))
    pairs = _histograms(graph.num_nodes, seed)
    assert _orientations(pairs) == {
        "banks-on-consumers", "banks-on-suppliers",
        "even-fewer-suppliers", "even-more-suppliers",
    }
    records = []
    for opinion in (POSITIVE, NEGATIVE):
        costs = build_edge_costs(
            graph, state, opinion, ModelAgnostic(), max_cost=MAX_COST
        )
        for p, q in pairs:
            options = dict(solver=solver, bank_shares=shares)
            full, full_stats = _term(graph, p, q, costs, banks, **options)
            for radius in radii:
                value, stats = _term(
                    graph, p, q, costs, banks, row_cache=seeded_cache(radius),
                    cost_key=("costs", opinion), **options,
                )
                assert abs(value - full) <= 1e-12 * max(1.0, abs(full))
                assert stats.n_sssp_runs == full_stats.n_sssp_runs
                assert stats.n_settled <= full_stats.n_settled
                records.append(
                    (value.hex(), stats.rounds, stats.n_settled, stats.pivots)
                )
    return records


GRAPH = erdos_renyi_graph(30, 0.15, seed=5, directed=True)


#: sha256 prefix of the bounded terms' records: a refactor of the loop
#: that moves a value bit, a round, a settled count or a pivot shows here.
BOUNDED_DIGEST = {"network-simplex": "b4e2f684370b9705", "ssp": "e9d028c771a4bd23"}


@pytest.mark.parametrize("solver", ["network-simplex", "ssp"])
def test_bounded_equals_full_rows(solver):
    records = bounded_vs_full(GRAPH, solver, "mass", 1, radii=(2.0, 8.0), seed=1)
    rounds = [r[1] for r in records]
    # The grid reaches both certified first rounds and grown radii.
    assert 1 in rounds and max(rounds) > 1
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == BOUNDED_DIGEST[solver]


@pytest.mark.slow
@pytest.mark.parametrize("solver", EXACT_SOLVERS)
@pytest.mark.parametrize("shares", ["mass", "size"])
@pytest.mark.parametrize("n_banks", [1, 3])
@pytest.mark.parametrize("graph_seed", [2, 9])
def test_bounded_equals_full_rows_grid(solver, shares, n_banks, graph_seed):
    graph = erdos_renyi_graph(40, 0.1, seed=graph_seed, directed=True)
    records = bounded_vs_full(
        graph, solver, shares, n_banks, radii=(1.0, 4.0, 12.0), seed=graph_seed
    )
    rounds = [r[1] for r in records]
    assert 1 in rounds and max(rounds) > 1


def _split_graph() -> DiGraph:
    """Two directed chains, 0 → … → 4 and 5 → … → 9, with no edge
    between them: nothing in the second is reachable from the first."""
    edges = [(k, k + 1) for k in range(4)] + [(k, k + 1) for k in range(5, 9)]
    return DiGraph(10, edges)


def test_unreachable_target_escalates_to_one_unlimited_search():
    graph = _split_graph()
    banks = allocate_banks(graph, n_clusters=2, seed=0)
    costs = np.ones(graph.num_edges)
    p, q = np.zeros(10), np.zeros(10)
    p[0] = q[7] = 1.0  # equal totals: no banks, node 7 must be served from 0
    full, _ = _term(graph, p, q, costs, banks, solver="network-simplex")
    assert full == unreachable_cost(10, MAX_COST)

    cache = seeded_cache(1.0)
    value, stats = _term(
        graph, p, q, costs, banks, solver="network-simplex",
        row_cache=cache, cost_key=("ones", POSITIVE),
    )
    assert value == full
    # Start radius 1; then 2 (1 node within half the radius, 2 within it:
    # doubling the count doubles the radius); then, with 3 of the 10 nodes
    # settled, a row whose doubled count would pass half the graph: one
    # unlimited search — not ~30 doublings up to the unreachable cost.
    assert stats.rounds == 3 < MAX_ROUNDS
    assert cache.stats()["misses"] == 3
    # Neither the bounded rows nor the row grown to full is stored.
    assert len(cache) == 0


def test_full_rows_of_record_full_terms_are_stored_and_hit():
    """A term the record starts full (no record yet) stores its rows, and
    the next term from the same sources reads every one of them back."""
    graph = erdos_renyi_graph(40, 0.1, seed=3, directed=True)
    banks = allocate_banks(graph, n_clusters=3, seed=0)
    state = NetworkState.from_active_sets(40, positive=range(0, 8))
    costs = build_edge_costs(graph, state, POSITIVE, ModelAgnostic(), max_cost=MAX_COST)
    p, q = _histograms(40, seed=4)[0]
    cache = DijkstraRowCache()
    kwargs = dict(solver="network-simplex", row_cache=cache, cost_key=("c", POSITIVE))
    first, first_stats = _term(graph, p, q, costs, banks, **kwargs)
    assert len(cache) == cache.misses == first_stats.n_sssp_runs > 0
    again, _ = _term(graph, p, q, costs, banks, **kwargs)
    assert again == first
    assert cache.hits == cache.misses == len(cache)


@pytest.mark.parametrize("reverse", [False, True])
def test_extended_row_bitwise_equals_fresh_search(reverse):
    """Rows asked for at growing radii — one radius, per-source radii,
    then full — are each bitwise the fresh search. Bounded rows are not
    stored, so each larger radius searches again; the full rows are
    stored and answer a later bounded request cut."""
    graph = erdos_renyi_graph(60, 0.08, seed=4, directed=True)
    state = NetworkState.from_active_sets(60, positive=range(0, 12))
    costs = build_edge_costs(graph, state, POSITIVE, ModelAgnostic(), max_cost=MAX_COST)
    sources = np.array([3, 17, 40])
    cache = DijkstraRowCache()
    kwargs = dict(reverse=reverse, cost_key=("c", POSITIVE))

    def fresh(limit):
        return multi_source_distances(
            graph, sources, weights=costs, reverse=reverse, limit=limit
        )

    short = cache.distance_rows(graph, sources, costs, radius=4.0, **kwargs)
    assert short.tobytes() == fresh(4.0).tobytes()
    assert np.isfinite(short).sum() < np.isfinite(fresh(np.inf)).sum()
    # Per-source radii: one source grows, the others shrink.
    radii = np.array([4.0, 9.0, 2.5])
    mixed = cache.distance_rows(graph, sources, costs, radius=radii, **kwargs)
    for row, source, radius in zip(mixed, sources, radii):
        want = multi_source_distances(
            graph, [source], weights=costs, reverse=reverse, limit=radius
        )
        assert row.tobytes() == want[0].tobytes()
    for limit in (9.0, np.inf):
        grown = cache.distance_rows(graph, sources, costs, radius=limit, **kwargs)
        assert grown.tobytes() == fresh(limit).tobytes()
    assert len(cache) == 3  # only the full rows are held
    cut = cache.distance_rows(graph, sources, costs, radius=4.0, **kwargs)
    assert cut.tobytes() == short.tobytes()
    stats = cache.stats()
    # 4 rounds of 3 fresh searches; then 3 hits on the held full rows.
    assert (stats["misses"], stats["hits"]) == (12, 3)
    assert stats["settled"] > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    radius=st.floats(0.0, 3.0 * MAX_COST, allow_nan=False),
    reverse=st.booleans(),
    integral=st.booleans(),
)
def test_held_row_cut_bitwise_equals_limited_search(seed, radius, reverse, integral):
    """A held full row cut at any radius is bit for bit the search limited
    to it, in both directions and on integral and fractional costs."""
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_graph(40, 0.08, seed=seed, directed=True)
    costs = (
        rng.integers(1, MAX_COST + 1, graph.num_edges).astype(np.float64)
        if integral else rng.uniform(0.3, MAX_COST, graph.num_edges)
    )
    sources = rng.choice(graph.num_nodes, size=3, replace=False)
    cache = DijkstraRowCache()
    kwargs = dict(reverse=reverse, cost_key=("c", seed))
    full = cache.distance_rows(graph, sources, costs, **kwargs)
    assert full.tobytes() == multi_source_distances(
        graph, sources, weights=costs, reverse=reverse
    ).tobytes()
    # Per-source radii too: each row is cut at its own.
    radii = radius * rng.uniform(0.5, 1.5, sources.size)
    for limit in (radius, radii):
        served = cache.distance_rows(graph, sources, costs, radius=limit, **kwargs)
        for row, source, r in zip(served, sources, np.broadcast_to(limit, sources.shape)):
            want = multi_source_distances(
                graph, [source], weights=costs, reverse=reverse, limit=r
            )
            assert row.tobytes() == want[0].tobytes()
    assert cache.stats()["hits"] == 2 * sources.size
    assert cache.stats()["misses"] == sources.size


def test_row_cache_counts_settled_nodes():
    graph = erdos_renyi_graph(40, 0.1, seed=1, directed=True)
    costs = np.ones(graph.num_edges)
    cache = DijkstraRowCache()
    rows = cache.distance_rows(
        graph, [0, 5], costs, reverse=False, cost_key="k", radius=2.0
    )
    assert cache.stats()["settled"] == int(np.isfinite(rows).sum())
    # A bounded row is not stored: asking again searches again.
    cache.distance_rows(graph, [0, 5], costs, reverse=False, cost_key="k", radius=2.0)
    assert cache.stats()["settled"] == 2 * int(np.isfinite(rows).sum())
    full = cache.distance_rows(graph, [0, 5], costs, reverse=False, cost_key="k")
    settled = cache.stats()["settled"]
    assert settled == 2 * int(np.isfinite(rows).sum()) + int(np.isfinite(full).sum())
    cache.distance_rows(graph, [0, 5], costs, reverse=False, cost_key="k", radius=2.0)
    assert cache.stats()["settled"] == settled  # hits on the held full rows


def test_start_radius_needs_a_warm_record_and_small_certificates():
    cache = DijkstraRowCache()
    for k in range(cache.RADIUS_WARMUP - 1):
        cache.record_radius(float(k), 0.1)
    assert cache.start_radius() == np.inf  # too few radii recorded
    cache.record_radius(3.0, 0.1)
    assert cache.start_radius() == float(
        np.percentile([*range(cache.RADIUS_WARMUP - 1), 3.0], 75)
    )
    for _ in range(cache.RADIUS_WINDOW):
        cache.record_radius(5.0, 0.9)  # certificates settle most of the graph
    assert cache.start_radius() == np.inf
    cache.clear()
    assert cache.start_radius() == np.inf


def test_engine_bounded_rows_match_cache_free_values():
    """An engine whose row record starts terms at a small radius returns
    the cache-free values to 1e-12 and counts its row searches' settled
    nodes in ``stats()``, storing none of its bounded rows."""
    from repro.snd import SND, SNDEngine

    graph = erdos_renyi_graph(60, 0.06, seed=8)
    rng = np.random.default_rng(3)
    states = [
        NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=60))
        for _ in range(8)
    ]
    snd = SND(graph, n_clusters=3, seed=0, solver="auto")
    reference = [snd.distance(a, b) for a, b in zip(states, states[1:])]
    with SNDEngine(SND(graph, banks=snd.banks, solver="auto"), jobs=1) as engine:
        for _ in range(engine.caches.rows.RADIUS_WINDOW):
            engine.caches.rows.record_radius(2.0, 0.0)
        values = engine.evaluate_series(states)
        rows = engine.stats()["caches"]["rows"]
    np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0)
    assert rows["size"] == rows["hits"] == 0
    assert 0 < rows["settled"] < rows["misses"] * graph.num_nodes


@pytest.mark.slow
def test_streamed_20k_terms_match_full_rows(monkeypatch):
    """On a 20k-node graph a bounded search costs far less than a full
    one, and the certified loop runs for real: an engine whose radius
    record is warm streams two episodes, each value equals the cache-free
    full-row value to 1e-12, no bounded or grown row was stored, some term
    took more than one round and none took more than MAX_ROUNDS."""
    import repro.snd.fast as fast
    from repro.datasets.synthetic import giant_component_powerlaw
    from repro.opinions.dynamics import generate_series
    from repro.snd import SND, SNDEngine

    graph = giant_component_powerlaw(20_000, -2.3, k_min=2, seed=1)
    rng = np.random.default_rng(7)

    def episode():
        return list(generate_series(
            graph, 8, n_seeds=400, p_nbr=0.01, p_ext=0.0002,
            candidate_fraction=0.3, seed=rng,
        ))

    def streamed(engine, states):
        return [u.distance for u in engine.stream(states) if u.distance is not None]

    snd = SND(graph, n_clusters=24, seed=0, solver="auto")
    reference = SND(graph, banks=snd.banks, solver="auto")
    rounds = []
    certified_solve = fast._certified_solve

    def counted(term, *args, **kwargs):
        out = certified_solve(term, *args, **kwargs)
        rounds.append(term.rounds)
        return out

    warm_up, *episodes = episode(), episode(), episode()
    want = [
        [reference.distance(a, b) for a, b in zip(states, states[1:])]
        for states in episodes
    ]
    with SNDEngine(snd, jobs=1) as engine:
        rows = engine.caches.rows
        streamed(engine, warm_up)
        assert len(rows._radii) >= rows.RADIUS_WARMUP and np.isfinite(rows._start)
        before = rows.stats()
        monkeypatch.setattr(fast, "_certified_solve", counted)
        got = [streamed(engine, states) for states in episodes]
        after = rows.stats()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert after["size"] == before["size"]
    assert max(rounds) > 1 and max(rounds) <= MAX_ROUNDS
    # Bounded rows: far fewer nodes settled than full rows would take.
    searched = after["misses"] - before["misses"]
    assert after["settled"] - before["settled"] < 0.5 * searched * graph.num_nodes
