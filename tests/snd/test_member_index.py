"""The corpus member index and the one-pass bound ``Corpus.query`` ranks by.

``SND.member_bounds`` prices every member's row-free lower bound at once
from the index ``SND.bound_sides`` holds (int8 opinion rows, holder counts
per pole, holders per cluster, the smallest cost of each member's own Eq. 2
arrays). Each bound must equal, bit for bit, the per-pair arithmetic: half
the sum, in ``_pair_terms`` order, of each term's live bank bins
``Σ cap·γ`` plus the supplier's smallest cost times the ``dst`` mass, with
the bank capacities sized by the lighter histogram. ``reference_bound``
below recomputes that from the two histograms alone.

The index must follow the members through construction, ``extend``,
``append`` and ``Corpus.load``, and a query must read one consistent
member list even when an ``extend`` lands while it runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_graph
from repro.multipolar import MultipolarSND, MultipolarState
from repro.opinions.state import NetworkState
from repro.snd import SND, Corpus, SNDEngine
from repro.snd.ground import unreachable_cost

N = 36
GRAPH = erdos_renyi_graph(N, 0.15, seed=11, directed=True)
EPS = 1e-12
EXAMPLES = 25
SLOW_EXAMPLES = 600


def reference_bound(snd, a, b) -> float:
    """The pair's row-free bound, term by term from the histograms: Lemma 2
    cancels the common mass, the heavier side ships, the lighter one's
    mass per cluster shares the deficit among the bank bins."""
    banks = snd.banks
    gamma = banks.gamma_matrix()
    unreachable = unreachable_cost(snd.graph.num_nodes, snd.ground.max_cost)
    total = 0
    for supplier, consumer, opinion in snd._pair_terms(a, b):
        p, q = supplier.histogram(opinion), consumer.histogram(opinion)
        rest = p - q
        sup, con = rest > EPS, rest < -EPS
        delta = abs(float(p.sum()) - float(q.sum()))
        if not sup.any() and not con.any() and delta <= EPS:
            continue  # no mass moves: the term is 0
        if delta > EPS:
            forward = float(p.sum()) >= float(q.sum())
        else:
            forward = sup.sum() <= con.sum()
        lighter, dst_mass = (q, -rest[con]) if forward else (p, rest[sup])
        caps = np.zeros(gamma.shape)
        if delta > EPS:
            sizes = banks.cluster_sizes
            if snd.bank_shares == "size":
                shares = sizes / sizes.sum()
            else:
                mass = np.bincount(
                    banks.cluster_of(p.shape[0]), weights=lighter, minlength=banks.n_clusters
                ).astype(np.float64)
                shares = mass / mass.sum() if mass.sum() > 0 else sizes / sizes.sum()
            caps = np.repeat((shares[:, None] / banks.n_banks) * delta, banks.n_banks, axis=1)
        active = np.flatnonzero(caps.sum(axis=1) > EPS)
        caps, bins = caps[active], gamma[active]
        live = caps > EPS
        costs = snd.ground.edge_costs(snd.graph, supplier, opinion)
        c_min = min(float(costs.min(initial=np.inf)), unreachable)
        total += float((caps[live] * bins[live]).sum()) + c_min * float(dst_mass.sum())
    return 0.5 * total


def _bipolar(rng, count):
    return [NetworkState(rng.choice([-1, 0, 0, 1], size=N).astype(np.int8))
            for _ in range(count)]


def _multipolar(rng, count):
    return [MultipolarState(rng.choice([0, 0, 1, 2, 3], size=N), n_poles=3)
            for _ in range(count)]


def _neutral(state):
    return type(state).neutral(N) if isinstance(state, NetworkState) else (
        MultipolarState(np.zeros(N, dtype=np.int64), n_poles=state.n_poles)
    )


def _shuffled(state, rng):
    """The same holder counts per pole on other users: every term has a
    zero deficit."""
    values = rng.permutation(np.asarray(state.values))
    if isinstance(state, NetworkState):
        return NetworkState(values.astype(np.int8))
    return MultipolarState(values, n_poles=state.n_poles)


def _one_sided(state):
    """*state* with its first pole dropped: the terms of that pole move
    mass one way only."""
    values = np.asarray(state.values).copy()
    values[values == values.max()] = 0
    if isinstance(state, NetworkState):
        return NetworkState(values.astype(np.int8))
    return MultipolarState(values, n_poles=state.n_poles)


def _check_batch(seed, poles, shares, n_random):
    rng = np.random.default_rng(seed)
    if poles is None:
        snd = SND(GRAPH, n_clusters=3, seed=0, bank_shares=shares)
        draw = _bipolar
    else:
        snd = MultipolarSND(GRAPH, poles, n_clusters=3, seed=0, bank_shares=shares)
        draw = _multipolar
    query = draw(rng, 1)[0]
    others = draw(rng, n_random)
    members = others + [
        query,                      # the query itself: every term is 0
        others[0], others[0],       # identical members
        _shuffled(query, rng),      # zero deficit in every term
        _one_sided(query),          # one pole held on one side only
        _neutral(query),            # an empty side in every term
    ]
    for q in (query, _neutral(query)):
        got = snd.member_bounds(q, snd.bound_sides(members))
        want = [reference_bound(snd, q, m) for m in members]
        assert got.tobytes() == np.array(want).tobytes()
        for m, value in zip(members, want):
            assert snd.lower_bound(q, m) == value


_cases = dict(
    seed=st.integers(0, 10_000),
    poles=st.sampled_from([None, 3]),
    shares=st.sampled_from(["mass", "size"]),
    n_random=st.integers(1, 5),
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(**_cases)
def test_batch_bound_equals_the_pair_arithmetic(seed, poles, shares, n_random):
    _check_batch(seed, poles, shares, n_random)


@pytest.mark.slow
@settings(max_examples=SLOW_EXAMPLES, deadline=None)
@given(**_cases)
def test_batch_bound_equals_the_pair_arithmetic_large_budget(seed, poles, shares, n_random):
    _check_batch(seed, poles, shares, n_random)


# --------------------------------------------------------------------- #
# The index follows the members
# --------------------------------------------------------------------- #


def brute_force(snd, state, members, k):
    with SNDEngine(snd, jobs=None) as engine:
        distances = np.array([engine.distance(state, m) for m in members])
    order = np.argsort(distances, kind="stable")[:k]
    return [(int(i), float(distances[i])) for i in order]


def assert_current(corpus, queries, k=3):
    """The index describes exactly the corpus's members, and a query
    answers as brute force does."""
    snd = corpus.engine.snd
    states, index = corpus._members
    assert len(index) == len(states) == len(corpus)
    fresh = snd.bound_sides(states)
    for held, want in zip(
        (index.rows, index.holders, index.mass, index.c_min),
        (fresh.rows, fresh.holders, fresh.mass, fresh.c_min),
    ):
        assert held.tobytes() == want.tobytes()
    for q in queries:
        got = corpus.query(q, k)
        want = brute_force(snd, q, states, min(k, len(states)))
        assert [i for i, _ in got] == [i for i, _ in want]
        assert np.allclose([d for _, d in got], [d for _, d in want], rtol=1e-12, atol=1e-12)


def _grow(corpus, rng):
    """Build up *corpus* through every entry point, checking after each."""
    from repro.store import ExperimentStore

    states = _bipolar(rng, 7)
    queries = _bipolar(rng, 2)
    corpus.extend(states[:3])
    assert_current(corpus, queries)
    corpus.append(states[3])
    assert_current(corpus, queries)
    corpus.extend(states[4:6])
    assert_current(corpus, queries)
    with ExperimentStore(":memory:") as store:
        store.save_graph("g", GRAPH)
        corpus.save(store, "g", "c")
        loaded = Corpus.load(store, corpus.engine, "g", "c")
    assert_current(loaded, queries)
    loaded.append(states[6])
    assert_current(loaded, queries)


def test_extend_append_and_load_keep_the_index_current(rng):
    with SNDEngine(SND(GRAPH, n_clusters=3, seed=0, solver="auto"), jobs=None) as engine:
        _grow(Corpus(engine), rng)


def test_a_stale_index_fails_the_check(rng, monkeypatch):
    """The check above catches an index that an append left behind."""
    monkeypatch.setattr(Corpus, "_add_members", _stale_add)
    with SNDEngine(SND(GRAPH, n_clusters=3, seed=0, solver="auto"), jobs=None) as engine:
        with pytest.raises(AssertionError):
            _grow(Corpus(engine), rng)


def _stale_add(self, new_states):
    states, index = self._members
    if not len(index):
        index = self.engine.snd.bound_sides(new_states)
    self._members = (states + list(new_states), index)


def test_a_query_reads_one_member_list_while_extend_runs(rng, monkeypatch):
    """An extend that lands between the query's bounds and its solves
    changes neither its members nor its answer."""
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
    members, late = _bipolar(rng, 5), _bipolar(rng, 3)
    q = members[2]  # the late states would not place first
    with SNDEngine(snd, jobs=None) as engine:
        corpus = Corpus(engine, members)
        bounds = snd.member_bounds
        landed = []

        def bounds_then_extend(*args, **kwargs):
            out = bounds(*args, **kwargs)
            if not landed:
                landed.append(corpus.extend(late))
            return out

        monkeypatch.setattr(snd, "member_bounds", bounds_then_extend)
        got = corpus.query(q, len(members) + len(late))
        counts = engine.stats()["corpus_query"]
    assert landed and len(corpus) == len(members) + len(late)
    assert counts["bounded"] == len(members)
    want = brute_force(snd, q, members, len(members))
    assert [i for i, _ in got] == [i for i, _ in want]


def test_pool_engine_answers_as_brute_force(rng):
    snd = SND(GRAPH, n_clusters=3, seed=0, solver="auto")
    with SNDEngine(snd, jobs=2) as engine:
        corpus = Corpus(engine, _bipolar(rng, 4))
        corpus.append(_bipolar(rng, 1)[0])
        assert_current(corpus, _bipolar(rng, 2))
