"""The hop-aware lower bound ``Corpus.query`` checks before it solves.

A unit shipped to a ``dst`` user t crosses at least ``H(t)`` edges, ``H``
the hop distance from the term's nearest ``src`` user along the direction
its rows run, and each edge costs at least ``c_min``; a unit that fills a
live bank bin of cluster c costs at least ``γ`` plus ``c_min`` times the
cluster's nearest member's hops (under ``"nearest"``). The bound must
never exceed the exact term, nor the pair bound ``SND.distance``, under
either share rule and bank metric, on integral and fractional costs, on
directed and undirected graphs with an unreachable piece, for bipolar and
k = 3 states; and a query that prunes with it must still return the
brute-force answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.traversal import bfs_distances
from repro.multipolar import MultipolarSND, MultipolarState
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import POSITIVE, NetworkState
from repro.snd import SND, Corpus, SNDEngine, allocate_banks
from repro.snd.engine import BOUND_RTOL
from repro.snd.fast import (
    HOP_DEPTH,
    emd_star_term_bound,
    emd_star_term_fast,
    reduce_term,
    term_bound,
    term_hops,
)
from repro.snd.ground import DEFAULT_MAX_COST, build_edge_costs, unreachable_cost

EXAMPLES = 40
SLOW_EXAMPLES = 1500


def _graph(seed: int, directed: bool) -> DiGraph:
    """Two Erdős–Rényi pieces with no edge between them, so some users
    cannot reach others at all."""
    big = erdos_renyi_graph(24, 0.12, seed=seed % 997, directed=directed)
    small = erdos_renyi_graph(8, 0.3, seed=seed % 991 + 1, directed=directed)
    edges = np.concatenate([big.edge_array()[:, :2], small.edge_array()[:, :2] + 24])
    return DiGraph(32, edges.astype(np.int64))


def _below(bound: float, value: float) -> bool:
    return bound <= value * (1 + BOUND_RTOL) + 1e-12


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


def _histograms(rng, n, shape):
    """A deficit on either side (``random``), none (``equal_totals``), or
    one unit of one user: moving to another user (``one_move``), into the
    banks (``to_banks``) or out of them (``from_banks``). On uniform costs
    a one-unit term under ``"nearest"`` is exactly its hop bound."""
    p = rng.integers(1, 5, n) / 4 * (rng.random(n) < 0.25)
    if shape == "equal_totals":
        return p, rng.permutation(p)  # dyadic masses: a zero deficit bit for bit
    if shape == "random":
        return p, rng.integers(1, 5, n) / 4 * (rng.random(n) < 0.25)
    p, q = np.zeros(n), np.zeros(n)
    i, j = rng.choice(n, size=2, replace=False)
    p[i] = 1.0 if shape != "from_banks" else 0.0
    q[j] = 1.0 if shape != "to_banks" else 0.0
    return p, q


def _check_term(seed, directed, shape, costs, shares, bank_metric):
    rng = np.random.default_rng(seed)
    graph = _graph(seed, directed)
    n = graph.num_nodes
    banks = allocate_banks(graph, n_clusters=3, n_banks=1 + seed % 2, seed=0)
    p, q = _histograms(rng, n, shape)
    if costs == "uniform":  # every path costs c_min per hop: a sharp bound
        edge_costs = np.full(graph.num_edges, 3.0)
    elif costs == "fractional":
        edge_costs = rng.uniform(0.4, 6.0, graph.num_edges)
    else:
        supplier = NetworkState((rng.random(n) < 0.3).astype(np.int8))
        edge_costs = build_edge_costs(graph, supplier, POSITIVE, ModelAgnostic())
    kwargs = dict(max_cost=DEFAULT_MAX_COST, bank_shares=shares)
    cheap = emd_star_term_bound(p, q, edge_costs, banks, **kwargs)
    term = reduce_term(p, q, banks, shares)
    bound = term_bound(
        term, edge_costs, banks, unreachable=unreachable_cost(n, DEFAULT_MAX_COST),
        hops=None if term is None else term_hops(graph, term), bank_metric=bank_metric,
    )
    value = emd_star_term_fast(
        graph, p, q, edge_costs, banks, solver="auto", bank_metric=bank_metric, **kwargs
    )
    assert cheap <= bound * (1 + 1e-12)
    assert 0.0 <= bound and _below(bound, value)


_term_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    directed=st.booleans(),
    shape=st.sampled_from(["random", "equal_totals", "one_move", "to_banks", "from_banks"]),
    costs=st.sampled_from(["integral", "fractional", "uniform"]),
    shares=st.sampled_from(["mass", "size"]),
    bank_metric=st.sampled_from(["nearest", "cluster"]),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(**_term_cases)
# Under "cluster" a bank leg from a src user's whole cluster undercuts the
# user's own hops on these two: reading "nearest" legs there breaks the bound.
@example(seed=1, directed=True, shape="to_banks", costs="uniform", shares="size",
         bank_metric="cluster")
@example(seed=53, directed=True, shape="from_banks", costs="uniform", shares="size",
         bank_metric="cluster")
def test_term_bound_below_term(seed, directed, shape, costs, shares, bank_metric):
    """The hop-aware term bound is at least the cheap one and at most the
    term, whatever the orientation the reduction picks."""
    _check_term(seed, directed, shape, costs, shares, bank_metric)


@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(**_term_cases)
def test_term_bound_below_term_large_budget(seed, directed, shape, costs, shares, bank_metric):
    _check_term(seed, directed, shape, costs, shares, bank_metric)


def _states(rng, n, poles, count):
    if poles is None:
        return [NetworkState(rng.choice([-1, 0, 0, 1], size=n).astype(np.int8))
                for _ in range(count)]
    return [MultipolarState(rng.integers(0, poles + 1, n).astype(np.int8), n_poles=poles)
            for _ in range(count)]


def _check_pair(seed, directed, poles, fractional, shares, bank_metric):
    rng = np.random.default_rng(seed)
    graph = _graph(seed, directed)
    kwargs = dict(n_clusters=3, seed=0, solver="auto", bank_metric=bank_metric,
                  bank_shares=shares)
    model = None
    if fractional:
        model = ModelAgnostic(0.5, 1.7, 8.1)
        kwargs.update(
            quantize=False,
            communication_penalties=rng.uniform(0.3, 2.7, graph.num_edges),
            adoption_penalties=rng.uniform(0.0, 1.3, graph.num_nodes),
        )
    if poles is None:
        snd = SND(graph, model, **kwargs)
    else:
        snd = MultipolarSND(graph, poles, model, **kwargs)
    a, b = _states(rng, graph.num_nodes, poles, 2)
    cheap = snd.lower_bound(a, b)
    terms = snd.bound_terms(a, b)
    bound = snd.hop_bound(terms)
    assert len(terms) == 2 * snd.n_poles
    assert cheap <= bound * (1 + 1e-12)
    assert _below(bound, snd.distance(a, b))


_pair_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    directed=st.booleans(),
    poles=st.sampled_from([None, 3]),
    fractional=st.booleans(),
    shares=st.sampled_from(["mass", "size"]),
    bank_metric=st.sampled_from(["nearest", "cluster"]),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(**_pair_cases)
def test_pair_bound_below_distance(seed, directed, poles, fractional, shares, bank_metric):
    """``SND.hop_bound`` over the terms ``SND.lower_bound`` kept is at
    least that bound and at most ``SND.distance``, bipolar and k = 3."""
    _check_pair(seed, directed, poles, fractional, shares, bank_metric)


@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES // 5, deadline=None)
@given(**_pair_cases)
def test_pair_bound_below_distance_large_budget(
    seed, directed, poles, fractional, shares, bank_metric
):
    _check_pair(seed, directed, poles, fractional, shares, bank_metric)


# --------------------------------------------------------------------- #
# The hop search
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("depth", [1, HOP_DEPTH, 40])
@pytest.mark.parametrize("directed", [False, True])
def test_hops_are_capped_bfs_distances(monkeypatch, directed, depth):
    """Hops from the nearest ``src`` user along the rows' direction: exact
    up to ``HOP_DEPTH``, ``HOP_DEPTH + 1`` beyond it, ``inf`` once the
    search runs out of nodes."""
    import repro.snd.fast as fast_module

    monkeypatch.setattr(fast_module, "HOP_DEPTH", depth)
    graph = _graph(5, directed)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = (rng.random(32) < 0.15).astype(float)
        q = (rng.random(32) < 0.15).astype(float)
        term = reduce_term(p, q, allocate_banks(graph, n_clusters=3, seed=0), "mass")
        if term is None or not term.src_ids.size:
            continue
        search = graph if term.forward else graph.reverse()
        want = bfs_distances(search, term.src_ids).astype(float)
        want[want < 0] = np.inf
        got = term_hops(graph, term)
        capped = np.where(want > depth, depth + 1, want)
        # Unreached within the depth reads depth + 1 unless the search
        # ran dry first, and then it is truly unreachable.
        exhausted = np.isinf(got).any()
        assert np.array_equal(got, want if exhausted else capped)


@pytest.mark.parametrize("directed", [False, True])
def test_one_search_per_src_set_and_direction(monkeypatch, directed):
    """Two users flip from positive to negative: all four terms run rows
    from those two users, two forward and two reversed, so two searches
    serve them."""
    import repro.snd.snd as snd_module

    calls = []
    hops = snd_module.term_hops
    monkeypatch.setattr(snd_module, "term_hops", lambda *a: calls.append(1) or hops(*a))
    graph = erdos_renyi_graph(30, 0.2, seed=2, directed=directed)
    snd = SND(graph, n_clusters=3, seed=0)
    a = NetworkState.from_active_sets(30, positive=[0, 1])
    b = NetworkState.from_active_sets(30, negative=[0, 1])
    terms = snd.bound_terms(a, b)
    assert [t.src_ids.tolist() for t, _ in terms] == [[0, 1]] * 4
    assert sorted(t.forward for t, _ in terms) == [False, False, True, True]
    snd.hop_bound(terms)
    assert len(calls) == 2


def test_hops_need_the_bank_metric():
    """A ``"nearest"`` leg priced under ``"cluster"`` can exceed the
    term, so the hop bound will not guess the metric."""
    graph = _graph(5, False)
    banks = allocate_banks(graph, n_clusters=3, seed=0)
    term = reduce_term(np.eye(32)[0], np.eye(32)[9], banks, "mass")
    with pytest.raises(ValueError, match="bank metric"):
        term_bound(
            term, np.ones(graph.num_edges), banks, unreachable=100.0,
            hops=term_hops(graph, term),
        )


# --------------------------------------------------------------------- #
# Corpus.query
# --------------------------------------------------------------------- #

PATH = DiGraph.from_undirected_edges(30, [(i, i + 1) for i in range(29)])


def _query(snd, state, members, k, jobs=None):
    with SNDEngine(snd, jobs=jobs) as engine:
        return Corpus(engine, members).query(state, k), engine.stats()["corpus_query"]


def _brute_force(snd, state, members, k):
    with SNDEngine(snd, jobs=None) as engine:
        distances = np.array([engine.distance(state, m) for m in members])
    order = np.argsort(distances, kind="stable")[:k]
    return [(int(i), float(distances[i])) for i in order]


def test_hop_term_prunes_what_the_cheap_bound_cannot():
    """On a path, a member one hop from the query and one twenty hops away
    have the same cheap bound, ``c_min`` per moved unit; the far one's
    hop bound is about twenty times that, so it is never solved."""
    snd = SND(PATH, n_clusters=2, seed=0, solver="auto")
    q = NetworkState.from_active_sets(30, positive=[0])
    near = NetworkState.from_active_sets(30, positive=[1])
    far = NetworkState.from_active_sets(30, positive=[20])
    near_bound, far_bound = snd.lower_bound(q, near), snd.lower_bound(q, far)
    assert near_bound == far_bound <= snd.distance(q, near)
    got, counts = _query(snd, q, [near, far], 1)
    assert got == _brute_force(snd, q, [near, far], 1)
    assert counts["refined"] == 1 and counts["solved"] == 1

    class CheapOnly(SND):
        def hop_bound(self, terms):
            return 0.0

    cheap = CheapOnly(PATH, banks=snd.banks, solver="auto")
    got, counts = _query(cheap, q, [near, far], 1)
    assert got == _brute_force(snd, q, [near, far], 1)
    assert counts["refined"] == 1 and counts["solved"] == 2


def _assert_same_answer(got, want):
    """Same indices in the same order; values to 1e-12 (a pool's warm
    starts may move a last bit)."""
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, d), (_, e) in zip(got, want):
        assert d == pytest.approx(e, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("directed", [False, True])
def test_refined_query_equals_brute_force(jobs, directed):
    rng = np.random.default_rng(11)
    graph = _graph(3, directed)
    snd = SND(graph, n_clusters=3, seed=0, solver="auto")
    members = _states(rng, graph.num_nodes, None, 8)
    with SNDEngine(snd, jobs=jobs) as engine:
        corpus = Corpus(engine, members)
        for q in _states(rng, graph.num_nodes, None, 3):
            for k in (1, 3):
                _assert_same_answer(corpus.query(q, k), _brute_force(snd, q, members, k))
        counts = engine.stats()["corpus_query"]
    assert counts["queries"] == 6 and counts["bounded"] == 48
    # Only members past each query's first k are refined.
    assert counts["refined"] <= 48 - 3 * (1 + 3)
    assert counts["solved"] <= 48


def test_far_members_are_refined_then_pruned_in_one_query():
    """A corpus of the query's near neighbour and many far members, all
    with the near one's cheap bound: every far member is refined, and
    none is solved."""
    snd = SND(PATH, n_clusters=2, seed=0, solver="auto")
    q = NetworkState.from_active_sets(30, positive=[0])
    members = [NetworkState.from_active_sets(30, positive=[1])] + [
        NetworkState.from_active_sets(30, positive=[t]) for t in range(12, 29, 4)
    ]
    got, counts = _query(snd, q, members, 1)
    _assert_same_answer(got, _brute_force(snd, q, members, 1))
    assert counts == {
        "queries": 1, "bounded": len(members), "refined": len(members) - 1, "solved": 1,
    }
