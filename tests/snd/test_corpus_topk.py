"""Certified top-k ``Corpus.query``: pruning by a row-free lower bound.

The pruned query must return what solving the query against every member
and sorting returns: the same indices in the same order (ties by index),
with values within 1e-12 (warm starts may move a last bit). The bound it
ranks by, ``SND.lower_bound``, must never exceed the exact value, under
every solver, bank metric, share rule and term orientation.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_graph
from repro.multipolar import MultipolarSND
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.models.multipolar_voting import generate_multipolar_series
from repro.opinions.state import POSITIVE, NetworkState
from repro.snd import SND, Corpus, SNDEngine, allocate_banks
from repro.snd.engine import BOUND_RTOL
from repro.snd.fast import SOLVER_CHOICES, emd_star_term_bound, emd_star_term_fast
from repro.snd.ground import DEFAULT_MAX_COST, build_edge_costs

N = 40
GRAPH = erdos_renyi_graph(N, 0.15, seed=7)


def random_states(rng: np.random.Generator, count: int) -> list[NetworkState]:
    """States with about a third of the users active, either polarity."""
    return [
        NetworkState(rng.choice([-1, 0, 0, 1], size=N).astype(np.int8))
        for _ in range(count)
    ]


def brute_force(snd, state, members, k) -> list[tuple[int, float]]:
    """Solve *state* against every member, then sort (ties by index)."""
    with SNDEngine(snd, jobs=None) as engine:
        distances = np.array([engine.distance(state, m) for m in members])
    order = np.argsort(distances, kind="stable")[: min(k, len(members))]
    return [(int(i), float(distances[i])) for i in order]


def assert_same_answer(got, expected):
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, d), (_, e) in zip(got, expected):
        assert d == pytest.approx(e, rel=1e-12, abs=1e-12)


def pruned(snd, state, members, k, jobs=None):
    with SNDEngine(snd, jobs=jobs) as engine:
        return Corpus(engine, members).query(state, k), engine.stats()["corpus_query"]


class TestPrunedEqualsBruteForce:
    @pytest.mark.parametrize("solver", SOLVER_CHOICES)
    def test_every_solver_and_k(self, solver, rng):
        members = random_states(rng, 7)
        snd = SND(GRAPH, n_clusters=3, seed=0, solver=solver)
        with SNDEngine(snd, jobs=None) as engine:
            corpus = Corpus(engine, members)
            for q in random_states(rng, 2):
                for k in (1, 3, len(members), len(members) + 2):
                    before = engine.stats()["corpus_query"]
                    got = corpus.query(q, k)
                    after = engine.stats()["corpus_query"]
                    assert_same_answer(got, brute_force(snd, q, members, k))
                    assert after["queries"] - before["queries"] == 1
                    assert after["bounded"] - before["bounded"] == len(members)
                    solved = after["solved"] - before["solved"]
                    assert min(k, len(members)) <= solved <= len(members)

    def test_process_pool(self, rng):
        members = random_states(rng, 6)
        q = random_states(rng, 1)[0]
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        got, _ = pruned(snd, q, members, 3, jobs=2)
        assert_same_answer(got, brute_force(snd, q, members, 3))

    def test_multipolar(self):
        graph = erdos_renyi_graph(30, 0.2, seed=3)
        states = list(generate_multipolar_series(
            graph, 8, n_poles=3, n_seeds=9, p_nbr=0.4, p_ext=0.1, seed=1
        ))
        members, q = states[:7], states[7]
        msnd = MultipolarSND(graph, 3, n_clusters=3, seed=0, solver="auto")
        got, _ = pruned(msnd, q, members, 3)
        assert_same_answer(got, brute_force(msnd, q, members, 3))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_duplicate_members_tie_by_index(self, k, rng):
        a, b, c = random_states(rng, 3)
        members = [b, a, c, a, b, a]
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        for q in (a, b, c):
            got, _ = pruned(snd, q, members, k)
            assert_same_answer(got, brute_force(snd, q, members, k))
        got, _ = pruned(snd, a, members, 3)
        assert got == [(1, 0.0), (3, 0.0), (5, 0.0)]

    @pytest.mark.parametrize("overshoot", [1.0, 1 + 1e-12])
    def test_tight_bound_on_a_lower_index_tie_is_solved(self, overshoot, rng):
        """Member 0 ties member 1 but ranks after it by bound; a bound at
        (or a last bit above) the k-th value must not prune it."""
        a, q = random_states(rng, 2)
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="ssp")
        exact = snd.distance(q, a)
        bounds = iter([exact * overshoot, 0.0])
        snd.lower_bound = lambda *args: next(bounds)
        got, counts = pruned(snd, q, [a, a], 1)
        assert got == [(0, exact)]
        assert counts["solved"] == 2

    def test_query_equal_to_a_member(self, rng):
        members = random_states(rng, 6)
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        got, _ = pruned(snd, members[4], members, 2)
        assert got[0] == (4, 0.0)
        assert_same_answer(got, brute_force(snd, members[4], members, 2))


class TestCounters:
    def test_separable_corpus_solves_fewer_pairs_than_members(self):
        # Member t has 3t positive adopters: the deficits alone (the bank
        # part of each bound) tell the members apart.
        members = [
            NetworkState.from_active_sets(N, positive=range(3 * t)) for t in range(1, 9)
        ]
        q = NetworkState.from_active_sets(N, positive=[0, 1, 2, 5])
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        got, counts = pruned(snd, q, members, 1)
        assert_same_answer(got, brute_force(snd, q, members, 1))
        assert counts["queries"] == 1
        assert counts["bounded"] == len(members)
        assert counts["solved"] < len(members)

    def test_counters_accumulate_over_queries(self, rng):
        members = random_states(rng, 5)
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        with SNDEngine(snd, jobs=None) as engine:
            corpus = Corpus(engine, members)
            for q in random_states(rng, 3):
                corpus.query(q, 2)
            counts = engine.stats()["corpus_query"]
        assert counts["queries"] == 3
        assert counts["bounded"] == 15
        assert 6 <= counts["solved"] <= 15

    def test_concurrent_queries_lose_no_count(self, rng):
        members = random_states(rng, 4)
        queries = random_states(rng, 3)
        snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SNDEngine(snd, jobs=None) as engine:
                corpus = Corpus(engine, members)
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [
                        pool.submit(corpus.query, q, 1) for q in queries * 4
                    ]
                    answers = [f.result(timeout=60) for f in futures]
                counts = engine.stats()["corpus_query"]
        finally:
            sys.setswitchinterval(interval)
        for got, q in zip(answers, queries * 4):
            assert_same_answer(got, brute_force(snd, q, members, 1))
        assert counts["queries"] == 12
        assert counts["bounded"] == 48


class TestLowerBound:
    @pytest.mark.parametrize("solver", SOLVER_CHOICES)
    def test_pair_bound_below_distance(self, solver, rng):
        snd = SND(GRAPH, n_clusters=3, seed=0, solver=solver)
        states = random_states(rng, 4)
        for a in states:
            for b in states:
                bound, value = snd.lower_bound(a, b), snd.distance(a, b)
                assert 0.0 <= bound <= value * (1 + BOUND_RTOL)
                assert (bound == 0.0) == (value == 0.0)

    def test_cached_ground_costs_give_the_same_bound(self, rng):
        snd = SND(GRAPH, n_clusters=3, seed=0)
        a, b = random_states(rng, 2)
        with SNDEngine(snd, jobs=None) as engine:
            cached = snd.lower_bound(a, b, engine.caches)
            builds = engine.caches.ground.builds
            engine.distance(a, b)
            assert engine.caches.ground.builds == builds  # solve reused them
        assert cached == snd.lower_bound(a, b)

    @pytest.mark.parametrize("bank_metric", ["nearest", "cluster"])
    @pytest.mark.parametrize("bank_shares", ["mass", "size"])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "equal_totals", "empty_p", "empty_q", "same"]),
    )
    def test_term_bound_below_term(self, bank_metric, bank_shares, seed, shape):
        """Every orientation: a deficit on either side, zero deficit with
        either side smaller, an empty side and identical histograms."""
        rng = np.random.default_rng(seed)
        p = rng.integers(1, 5, N) / 4 * (rng.random(N) < 0.3)
        q = rng.integers(1, 5, N) / 4 * (rng.random(N) < 0.3)
        if shape == "equal_totals":
            q = rng.permutation(p)  # dyadic masses: a zero deficit bit for bit
        elif shape == "empty_p":
            p = np.zeros(N)
        elif shape == "empty_q":
            q = np.zeros(N)
        elif shape == "same":
            q = p.copy()
        banks = allocate_banks(GRAPH, n_clusters=3, n_banks=2, seed=0)
        supplier = NetworkState((rng.random(N) < 0.3).astype(np.int8))
        costs = build_edge_costs(GRAPH, supplier, POSITIVE, ModelAgnostic())
        bound = emd_star_term_bound(p, q, costs, banks, max_cost=DEFAULT_MAX_COST, bank_shares=bank_shares)
        value = emd_star_term_fast(
            GRAPH, p, q, costs, banks, max_cost=DEFAULT_MAX_COST, solver="auto",
            bank_metric=bank_metric, bank_shares=bank_shares,
        )
        assert 0.0 <= bound <= value * (1 + BOUND_RTOL)
