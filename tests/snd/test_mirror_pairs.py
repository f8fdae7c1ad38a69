"""Eq. 3's mirror terms solved as a pair: ``(a, b, o)`` then ``(b, a, o)``.

Lemmas 1-2 reduce a term and its mirror to the same changed users, with
the same amounts and the same bank capacities; only the orientation and
the Eq. 2 costs differ. :func:`~repro.snd.fast.mirror_reduction` reads the
mirror's reduction off the first term's, bit for bit what its own
:func:`~repro.snd.fast.reduce_term` returns. On certified rows the mirror
starts each row at the first term's dual radius ``ρ_s``
(:func:`~repro.snd.fast._dual_radii`) instead of the record's start, and
it falls back to the record when the two terms' rows run from different
users (the no-deficit tie), when the first term's optimal basis is not a
spanning tree, when the solver is not the network simplex, or when the
record would run full rows. Values never depend on where rows start.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snd.fast as fast
from repro.flow import network_simplex
from repro.flow.basis import TransportBasis
from repro.graph.generators import erdos_renyi_graph
from repro.multipolar import MultipolarSND, MultipolarState
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.snd import SND, SNDEngine, allocate_banks
from repro.snd.cache import DijkstraRowCache
from repro.snd.fast import (
    FastTermStats,
    MirrorHandoff,
    mirror_reduction,
    reduce_term,
)

EXAMPLES = 25
SLOW_EXAMPLES = 300

#: The reduction's fields a mirror shares with its own reduce step.
SKELETON = (
    "forward", "src_ids", "src_amounts", "dst_ids", "dst_amounts", "bank_caps",
    "active", "n_suppliers", "n_consumers", "totals",
)


def seed_record(cache: DijkstraRowCache, radius: float, settled: float = 0.0) -> DijkstraRowCache:
    """Fill *cache*'s certificate record so its next terms start at
    *radius* (or run full rows, for a large *settled* fraction)."""
    for _ in range(cache.RADIUS_WINDOW):
        cache.record_radius(radius, settled)
    return cache


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_reduction(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return all(
        _bitwise(getattr(got, name), getattr(want, name)) for name in SKELETON
    )


def _snd(graph, poles, fractional, solver="auto", banks=None, seed=0):
    """A bipolar (*poles* ``None``) or k-pole SND on integral or
    fractional Eq. 2 costs."""
    kwargs = dict(solver=solver, banks=banks)
    if banks is None:
        kwargs.update(n_clusters=3, seed=0)
    model = None
    if fractional:
        rng = np.random.default_rng(seed)
        model = ModelAgnostic(0.5, 1.7, 8.1)
        kwargs.update(
            quantize=False,
            communication_penalties=rng.uniform(0.3, 2.7, graph.num_edges),
            adoption_penalties=rng.uniform(0.0, 1.3, graph.num_nodes),
        )
    if poles is None:
        return SND(graph, model, **kwargs)
    return MultipolarSND(graph, poles, model, **kwargs)


def _states(rng, n, poles, length, change=0.25):
    """A random walk of states: each step re-draws a quarter of the users,
    so terms activate and deactivate users (one- and two-sided terms, both
    orientations)."""
    top = 1 if poles is None else poles
    low = -1 if poles is None else 0
    values = rng.integers(low, top + 1, n).astype(np.int8)
    states = []
    for _ in range(length):
        values = values.copy()
        flip = rng.choice(n, size=max(1, int(change * n)), replace=False)
        values[flip] = rng.integers(low, top + 1, flip.size)
        states.append(
            NetworkState(values) if poles is None else MultipolarState(values, n_poles=poles)
        )
    return states


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


def _check_engine_values(seed, poles, fractional, directed, radius):
    graph = erdos_renyi_graph(30, 0.12, seed=seed % 997, directed=directed)
    snd = _snd(graph, poles, fractional, seed=seed)
    states = _states(np.random.default_rng(seed), graph.num_nodes, poles, 5)
    reference = [snd.distance(a, b) for a, b in zip(states, states[1:])]
    engine_snd = _snd(graph, poles, fractional, banks=snd.banks, seed=seed)
    with SNDEngine(engine_snd, jobs=1) as engine:
        seed_record(engine.caches.rows, radius)
        values = engine.evaluate_series(states)
    for got, want in zip(values, reference):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


_engine_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    poles=st.sampled_from([None, 2, 3]),
    fractional=st.booleans(),
    directed=st.booleans(),
    radius=st.floats(0.5, 8.0, allow_nan=False),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(**_engine_cases)
def test_engine_values_equal_cache_free(seed, poles, fractional, directed, radius):
    """An engine whose record starts terms at *radius*, so that mirror
    terms start at their duals, returns the cache-free values to 1e-12."""
    _check_engine_values(seed, poles, fractional, directed, radius)


@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(**_engine_cases)
def test_engine_values_equal_cache_free_large_budget(seed, poles, fractional, directed, radius):
    _check_engine_values(seed, poles, fractional, directed, radius)


def _histogram_pair(rng, n, kind):
    mask = rng.random(n) < 0.4
    if kind == "indicator":  # 0/1 states: a deficit on either side
        return (rng.random(n) < 0.3).astype(float), (rng.random(n) < 0.3).astype(float)
    if kind == "equal-totals":  # zero deficit, either side smaller or a tie
        h = rng.integers(1, 4, n) / 4 * mask
        return h, rng.permutation(h)
    return rng.random(n) * mask, rng.random(n) * (rng.random(n) < 0.4)


def _check_mirror_reduction(seed, kind, shares):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_graph(25, 0.15, seed=seed % 101)
    banks = allocate_banks(graph, n_clusters=3, n_banks=1 + seed % 3, seed=0)
    p, q = _histogram_pair(rng, graph.num_nodes, kind)
    first = reduce_term(p, q, banks, shares)
    assert _same_reduction(mirror_reduction(first), reduce_term(q, p, banks, shares))
    assert _same_reduction(mirror_reduction(mirror_reduction(first)), first)


_reduction_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["indicator", "equal-totals", "fractional"]),
    shares=st.sampled_from(["mass", "size"]),
)


@settings(max_examples=4 * EXAMPLES, deadline=None)
@given(**_reduction_cases)
def test_mirror_reduction_is_the_mirror_reduce(seed, kind, shares):
    """The shared reduction equals the mirror's own, bit for bit: ids,
    amounts, capacities, active clusters, orientation, counts, totals."""
    _check_mirror_reduction(seed, kind, shares)


@pytest.mark.slow
@settings(max_examples=10 * SLOW_EXAMPLES, deadline=None)
@given(**_reduction_cases)
def test_mirror_reduction_is_the_mirror_reduce_large_budget(seed, kind, shares):
    _check_mirror_reduction(seed, kind, shares)


def test_mirror_reduction_of_nothing_is_nothing():
    graph = erdos_renyi_graph(10, 0.3, seed=1)
    banks = allocate_banks(graph, n_clusters=2, seed=0)
    h = np.linspace(0.0, 1.0, 10)
    assert reduce_term(h, h, banks, "mass") is None
    assert mirror_reduction(None) is None


# --------------------------------------------------------------------- #
# Where the mirror starts
# --------------------------------------------------------------------- #

GRAPH = erdos_renyi_graph(50, 0.08, seed=0, directed=True)
RADIUS = 2.0


def _first_pair(graph=GRAPH):
    """The states of the fixture: the first of a seeded random draw."""
    rng = np.random.default_rng(0)
    draw = [
        NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=graph.num_nodes,
                                p=[0.2, 0.6, 0.2]))
        for _ in range(2)
    ]
    return draw[0], draw[1]


def _pair(snd, a, b, opinion, *, record=None, mirror_record=None):
    """Solve ``(a, b, o)`` then its mirror ``(b, a, o)`` with one hand-off;
    returns the hand-off, the mirror's stats, its row cache and the radii
    its first search asked for."""
    graph = snd.graph
    handoff = MirrorHandoff()
    first_cache = seed_record(DijkstraRowCache(), RADIUS) if record is None else record
    snd.term(a, b, opinion, row_cache=first_cache, cost_key=("a", opinion), mirror=handoff)
    cache = seed_record(DijkstraRowCache(), RADIUS) if mirror_record is None else mirror_record
    asked = []
    distance_rows = cache.distance_rows

    def first_radius(*args, radius, **kwargs):
        asked.append(np.broadcast_to(radius, (len(args[1]),)).copy())
        return distance_rows(*args, radius=radius, **kwargs)

    cache.distance_rows = first_radius
    stats = FastTermStats()
    value = snd.term(
        b, a, opinion, row_cache=cache, cost_key=("b", opinion), stats=stats, mirror=handoff,
        edge_costs=snd.ground.edge_costs(graph, b, opinion),
    )
    return handoff, stats, cache, asked[0] if asked else None, value


def test_mirror_starts_at_its_dual_radii():
    """On integral costs the mirror's rows start at ``⌊ρ_s + ε⌋``, one
    radius per source, and the term counts as ``mirrored``."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    a, b = _first_pair()
    handoff, stats, cache, asked, _ = _pair(snd, a, b, POSITIVE)
    assert handoff.ready and handoff.radii is not None
    assert asked.tolist() == np.floor(handoff.radii + fast._RADIUS_SLACK).tolist()
    assert cache.stats()["mirrored"] == 1 and cache.stats()["terms"] == 1
    assert stats.rounds == 1


def test_dual_radii_certify_in_one_round_where_the_record_took_more():
    """A mirror term that took several rounds from the record's start
    certifies in one from the first term's duals, at the same value."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    a, b = _first_pair()
    costs = snd.ground.edge_costs(GRAPH, b, POSITIVE)
    recorded = FastTermStats()
    from_record = snd.term(
        b, a, POSITIVE, edge_costs=costs, stats=recorded,
        row_cache=seed_record(DijkstraRowCache(), RADIUS), cost_key=("b", POSITIVE),
    )
    _handoff, mirrored, _cache, _asked, value = _pair(snd, a, b, POSITIVE)
    assert recorded.rounds >= 2 and mirrored.rounds == 1
    assert abs(value - from_record) <= 1e-12 * max(1.0, from_record)


def _assert_record_start(asked, cache, radius=RADIUS):
    assert np.all(asked == radius)
    assert cache.stats()["mirrored"] == 0


def _check_start_rule(seed, solver, full, fractional):
    graph = erdos_renyi_graph(30, 0.12, seed=seed % 997, directed=bool(seed % 2))
    snd = _snd(graph, None, fractional, solver=solver, seed=seed)
    a, b = _states(np.random.default_rng(seed), graph.num_nodes, None, 2)
    unreachable = fast.unreachable_cost(graph.num_nodes, snd.ground.max_cost)
    for opinion in (POSITIVE, NEGATIVE):
        record = seed_record(DijkstraRowCache(), RADIUS, settled=0.9 if full else 0.0)
        handoff, _stats, cache, asked, _ = _pair(snd, a, b, opinion, mirror_record=record)
        first = reduce_term(a.histogram(opinion), b.histogram(opinion), snd.banks, "mass")
        if first is None or asked is None:
            continue  # nothing moves, or nothing to search
        if solver in ("ssp", "lp") or first.forward == handoff.term.forward:
            assert handoff.radii is None  # no basis, or rows from other users
        if full:
            assert np.all(asked == np.inf) and cache.stats()["mirrored"] == 0
        elif handoff.radii is None:
            assert np.all(asked == RADIUS) and cache.stats()["mirrored"] == 0
        else:
            radii = handoff.radii if fractional else np.floor(handoff.radii + fast._RADIUS_SLACK)
            want = np.where(handoff.radii >= unreachable, np.inf, radii)
            assert asked.tolist() == want.tolist() and cache.stats()["mirrored"] == 1


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    solver=st.sampled_from(["auto", "network-simplex", "ssp", "lp"]),
    full=st.booleans(),
    fractional=st.booleans(),
)
def test_mirror_start_rule(seed, solver, full, fractional):
    """A mirror term starts at its dual radii only from a network-simplex
    spanning tree, with rows from the same users, under a record that
    bounds rows; otherwise it starts where the record says."""
    _check_start_rule(seed, solver, full, fractional)


def test_tie_orientation_starts_from_the_record():
    """No deficit and as many suppliers as consumers: both terms run rows
    from their suppliers, different users, so no radii are handed on."""
    n = GRAPH.num_nodes
    a = NetworkState.from_active_sets(n, positive=[1, 2, 30])
    b = NetworkState.from_active_sets(n, positive=[3, 4, 30])
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    handoff, _stats, cache, asked, _ = _pair(snd, a, b, POSITIVE)
    first = reduce_term(a.histogram(POSITIVE), b.histogram(POSITIVE), snd.banks, "mass")
    assert first.forward and handoff.term.forward
    assert handoff.radii is None
    _assert_record_start(asked, cache)


def test_forest_basis_starts_from_the_record(monkeypatch):
    """An optimum whose tree kept an artificial arc leaves a forest of
    real cells: no potentials, so the mirror starts from the record."""
    solve = network_simplex.solve_transportation_network_simplex

    def forest(problem, **kwargs):
        plan, basis = solve(problem, **kwargs)
        return plan, TransportBasis(rows=basis.rows[1:], cols=basis.cols[1:])

    monkeypatch.setattr(network_simplex, "solve_transportation_network_simplex", forest)
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    a, b = _first_pair()
    handoff, _stats, cache, asked, _ = _pair(snd, a, b, POSITIVE)
    assert handoff.ready and handoff.radii is None
    _assert_record_start(asked, cache)


def test_potentials_need_a_spanning_tree():
    costs = np.arange(6.0).reshape(2, 3)
    tree = TransportBasis(rows=[0, 0, 1, 1], cols=[0, 1, 1, 2])
    u, v = fast._potentials(costs, tree)
    assert all(u[i] + v[j] == costs[i, j] for i, j in tree.cells())
    forest = TransportBasis(rows=[0, 0, 1], cols=[0, 1, 2])
    cycle = TransportBasis(rows=[0, 0, 1, 1], cols=[0, 1, 0, 1])  # column 2 left out
    assert fast._potentials(costs, forest) is None
    assert fast._potentials(costs, cycle) is None


@pytest.mark.parametrize("solver", ["ssp", "lp"])
def test_other_solvers_start_from_the_record(solver):
    """Only the network simplex leaves an optimal basis to read duals from."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver=solver)
    a, b = _first_pair()
    handoff, _stats, cache, asked, _ = _pair(snd, a, b, POSITIVE)
    assert handoff.ready and handoff.radii is None and handoff.term is not None
    _assert_record_start(asked, cache)


def test_full_row_record_keeps_full_rows():
    """A record that runs full rows (large certificates) is never
    overruled by the dual radii: the mirror searches in full too."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    a, b = _first_pair()
    full = seed_record(DijkstraRowCache(), RADIUS, settled=0.9)
    assert full.start_radius() == np.inf
    handoff, stats, cache, asked, _ = _pair(snd, a, b, POSITIVE, mirror_record=full)
    assert handoff.radii is not None
    assert np.all(asked == np.inf)
    assert cache.stats()["mirrored"] == 0 and stats.rounds == 1


# --------------------------------------------------------------------- #
# The record and the engines
# --------------------------------------------------------------------- #


def test_mirror_starts_leave_the_full_row_switch_as_without_them():
    """On a fixture whose certificates settle most of the graph, the row
    cache switches to full rows on the settled fractions of
    record-started terms alone: a cache fed only those terms'
    certificates switches at the same term. Mirror-started terms record
    their certificate radius (the largest cost their plan ships on, which
    does not depend on where their rows stopped) and no fraction."""
    graph = erdos_renyi_graph(40, 0.1, seed=1, directed=True)
    rng = np.random.default_rng(2)
    states = [
        NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=40))
        for _ in range(14)
    ]
    snd = SND(graph, n_clusters=3, seed=0, solver="network-simplex")
    with SNDEngine(snd, jobs=1) as engine:
        rows = seed_record(engine.caches.rows, RADIUS)
        record = rows.record_radius
        log = []

        def logged(radius, settled):
            record(radius, settled)
            log.append((radius, settled, rows._full_rows, rows.mirrored))

        rows.record_radius = logged
        engine.evaluate_series(states)
        mirrored = rows.stats()["mirrored"]
        fractions = list(rows._fractions)

    replay = seed_record(DijkstraRowCache(), RADIUS)
    full_rows_before = False
    for radius, settled, full_rows, _ in log:
        if settled is None:
            assert full_rows == full_rows_before  # a mirror term moves no switch
        else:
            replay.record_radius(radius, settled)
            assert replay._full_rows == full_rows
        full_rows_before = full_rows
    assert list(replay._fractions) == fractions
    # Every mirror-started term recorded a radius without a fraction, all
    # of them before the switch to full rows, which did happen.
    assert sum(settled is None for _, settled, _, _ in log) == mirrored > 0
    switch = next(i for i, entry in enumerate(log) if entry[2])
    assert log[switch][3] == mirrored
    assert all(settled is not None for _, settled, _, _ in log[switch:])


def test_pooled_nearest_engine_matches_serial():
    """A ``jobs=2`` engine under ``"nearest"`` returns the serial values
    to 1e-12; the serial engine started mirror terms at their duals."""
    graph = erdos_renyi_graph(60, 0.06, seed=8)
    states = _states(np.random.default_rng(3), graph.num_nodes, None, 6)
    values = {}
    for jobs in (None, 2):
        snd = SND(graph, n_clusters=3, seed=0, solver="auto")
        with SNDEngine(snd, jobs=jobs) as engine:
            seed_record(engine.caches.rows, RADIUS)
            values[jobs] = engine.pairwise_matrix(states)
            if jobs is None:
                assert engine.stats()["caches"]["rows"]["mirrored"] > 0
    np.testing.assert_allclose(values[2], values[None], rtol=1e-12, atol=0)


def test_k2_multipolar_engine_equals_bipolar_engine():
    """At k = 2 the k-pole engine takes the bipolar engine's mirror
    starts, term for term: the same values bit for bit and the same
    counts."""
    graph = erdos_renyi_graph(40, 0.1, seed=3, directed=True)
    series = _states(np.random.default_rng(5), graph.num_nodes, None, 8)
    out = {}
    for poles in (None, 2):
        snd = _snd(graph, poles, fractional=False)
        states = series if poles is None else [MultipolarState.from_bipolar(s) for s in series]
        with SNDEngine(snd, jobs=1) as engine:
            seed_record(engine.caches.rows, RADIUS)
            values = engine.evaluate_series(states)
            stats = engine.stats()
        out[poles] = (values, stats["caches"]["rows"], stats["network_simplex"])
    (bipolar, rows, solves), (multi, k2_rows, k2_solves) = out[None], out[2]
    assert np.array_equal(multi, bipolar)
    assert rows["mirrored"] > 0
    for key in ("mirrored", "terms", "settled", "misses"):
        assert k2_rows[key] == rows[key]
    assert k2_solves == solves


def test_lower_bound_shares_the_reduction(monkeypatch):
    """``SND.lower_bound`` reduces each mirror pair once, and its value is
    the sum of the four terms' bounds."""
    snd = SND(GRAPH, n_clusters=3, seed=0)
    a, b = _first_pair()
    calls = []
    reduce = fast.reduce_term

    def counted(*args, **kwargs):
        calls.append(1)
        return reduce(*args, **kwargs)

    want = 0.5 * sum(
        fast.emd_star_term_bound(
            s.histogram(o), c.histogram(o), snd.ground.edge_costs(GRAPH, s, o),
            snd.banks, max_cost=snd.ground.max_cost,
        )
        for s, c, o in snd._pair_terms(a, b)
    )
    import repro.snd.snd as snd_module

    monkeypatch.setattr(snd_module, "reduce_term", counted)
    assert snd.lower_bound(a, b) == want
    assert len(calls) == 2


def test_evaluate_terms_unchanged_by_the_shared_reduction():
    """Cache-free terms take the shared reduction and nothing else: each
    term equals the term solved alone, bit for bit."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="network-simplex")
    a, b = _first_pair()
    result = snd.evaluate(a, b)
    alone = [snd.term(s, c, o) for s, c, o in snd._pair_terms(a, b)]
    assert result.terms == tuple(alone)
