"""The Eq. 2 ground-cost builder equals its frozen reference bit for bit.

``tests/ground_reference.py`` keeps the builder as first written (full
per-edge arrays everywhere); the library builds the same costs from the
opinionated users' edges alone. Every model the library ships, plus the
user-defined one of ``examples/custom_opinion_model.py``, goes through
both, with and without custom penalties, quantized or not, and with a
bound small enough to force the rescale branch.
"""

import importlib.util
from pathlib import Path

import ground_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.multipolar.state import MultipolarState
from repro.opinions import IndependentCascadeModel, LinearThresholdModel
from repro.opinions.models.base import OpinionModel
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NetworkState
from repro.snd.ground import build_edge_costs

EXAMPLES = 200


def _load_example_model():
    path = Path(__file__).resolve().parents[2] / "examples" / "custom_opinion_model.py"
    spec = importlib.util.spec_from_file_location("custom_opinion_model", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.StubbornCelebrityModel


StubbornCelebrityModel = _load_example_model()

#: Penalty values of one kind each: exact integers (zero included, which
#: the quantizer floors to 1), integers off by far less than ``allclose``
#: tolerates (snapped), and arbitrary reals (rescaled).
PENALTY_KINDS = (
    st.integers(0, 4).map(float),
    st.integers(0, 4).map(lambda k: k + 1e-9),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)


def penalties(size: int, **kwargs):
    """An array of *size* penalties, all of one kind."""
    return st.sampled_from(PENALTY_KINDS).flatmap(
        lambda kind: st.lists(kind, min_size=size, max_size=size, **kwargs)
    ).map(np.array)


@st.composite
def graphs(draw):
    """Small digraphs; nodes without out-edges (and isolated ones) occur."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    return DiGraph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


@st.composite
def states(draw, n: int):
    """All-neutral, all-opinionated, mixed, or a multipolar pole projection."""
    kind = draw(st.sampled_from(["neutral", "opinionated", "mixed", "pole"]))
    if kind == "neutral":
        return NetworkState(np.zeros(n, dtype=np.int8))
    if kind == "opinionated":
        return NetworkState(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    if kind == "mixed":
        return NetworkState(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    k = draw(st.integers(2, 4))
    values = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    return MultipolarState(values, n_poles=k).polar_projection(draw(st.integers(1, k)))


@st.composite
def models(draw, graph: DiGraph):
    kind = draw(st.sampled_from(["agnostic", "cascade", "threshold", "custom"]))
    if kind == "agnostic":
        return ModelAgnostic(*sorted(draw(penalties(3, unique=True))))
    per_edge = st.lists(
        st.floats(0.0, 1.0), min_size=graph.num_edges, max_size=graph.num_edges
    ).map(np.array)
    if kind == "cascade":
        return IndependentCascadeModel(
            activation_prob=draw(st.floats(0.0, 1.0) | per_edge),
            edge_distance=draw(st.floats(0.1, 5.0) | per_edge.map(lambda a: a + 0.1)),
        )
    if kind == "threshold":
        return LinearThresholdModel(
            weights=draw(st.floats(0.1, 2.0) | per_edge.map(lambda a: a + 0.1)),
            thresholds=draw(st.floats(0.0, 2.0)),
        )
    return StubbornCelebrityModel(celebrity_weight=draw(st.floats(0.0, 3.0)))


def _frozen(model: OpinionModel) -> OpinionModel:
    twin = ref.frozen(model)
    if isinstance(model, StubbornCelebrityModel):
        twin._base = ref.frozen(model._base)
    return twin


@st.composite
def cases(draw):
    graph = draw(graphs())
    state = draw(states(graph.num_nodes))
    comm = draw(st.none() | penalties(graph.num_edges))
    adopt = draw(st.none() | penalties(graph.num_nodes))
    options = dict(
        communication_penalties=comm,
        adoption_penalties=adopt,
        # 1-4 force the rescale branch on most cost arrays.
        max_cost=draw(st.sampled_from([1, 2, 4, 64])),
        quantize=draw(st.booleans()),
    )
    return graph, state, draw(st.sampled_from([1, -1])), draw(models(graph)), options


@settings(max_examples=EXAMPLES, deadline=None)
@given(cases())
def test_costs_equal_the_frozen_builder(case):
    graph, state, opinion, model, options = case
    got = build_edge_costs(graph, state, opinion, model, **options)
    want = ref.build_edge_costs(graph, state, opinion, _frozen(model), **options)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


BRANCH_GRAPH = DiGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (0, 4)])
BRANCH_STATE = NetworkState([1, 0, -1, 1, 0])


@pytest.mark.parametrize(
    "model, options",
    [
        # Exact integers with zero-cost edges: floored to 1, not rescaled.
        (ModelAgnostic(0, 1, 2), dict(communication_penalties=np.zeros(6))),
        # Exact integers at the bound itself: kept.
        (ModelAgnostic(1, 2, 7), dict(max_cost=8)),
        # One over the bound: rescaled.
        (ModelAgnostic(1, 2, 8), dict(max_cost=8)),
        # Integers off by 1e-9: snapped by allclose, not rescaled.
        (ModelAgnostic(1 + 1e-9, 2, 8 - 1e-9), {}),
        (ModelAgnostic(1, 2, 8), dict(adoption_penalties=np.full(5, 1e-9))),
        # Reals: rescaled; unquantized: summed only.
        (ModelAgnostic(0.5, 1.7, 8.1), dict(max_cost=32)),
        (ModelAgnostic(0.5, 1.7, 8.1), dict(quantize=False)),
        (IndependentCascadeModel(0.3, 1.0), {}),
        (LinearThresholdModel(1.0, 0.5), dict(communication_penalties=np.arange(6.0))),
    ],
)
@pytest.mark.parametrize("opinion", [1, -1])
def test_quantizer_branches_equal_the_frozen_builder(model, options, opinion):
    got = build_edge_costs(BRANCH_GRAPH, BRANCH_STATE, opinion, model, **options)
    want = ref.build_edge_costs(BRANCH_GRAPH, BRANCH_STATE, opinion, _frozen(model), **options)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.data())
def test_endpoint_opinions_equal_the_frozen_helper(data):
    graph = data.draw(graphs())
    state = data.draw(states(graph.num_nodes))
    got = OpinionModel._edge_endpoint_opinions(graph, state)
    want = ref.edge_endpoint_opinions(graph, state)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


def test_edge_sources_are_cached_and_read_only():
    graph = DiGraph(4, [(0, 1), (0, 2), (2, 3), (3, 0)])
    sources = graph.edge_sources()
    assert sources is graph.edge_sources()
    assert sources.tolist() == [0, 0, 2, 3]
    assert not sources.flags.writeable
