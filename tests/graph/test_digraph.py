"""Unit tests for the CSR DiGraph."""

import bank_reference
import graph_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeError, GraphError, NodeError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_nodes_without_edges(self):
        g = DiGraph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert list(g.out_neighbors(3)) == []

    def test_basic_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_edges == 3
        assert sorted(g.out_neighbors(0).tolist()) == [1, 2]
        assert g.out_neighbors(2).tolist() == []

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(-1)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(NodeError):
            DiGraph(2, [(0, 5)])
        with pytest.raises(NodeError):
            DiGraph(2, [(-1, 0)])

    def test_self_loops_dropped(self):
        g = DiGraph(3, [(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_collapsed_min_weight(self):
        g = DiGraph(2, [(0, 1), (0, 1), (0, 1)], weights=[5.0, 2.0, 9.0])
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 2.0

    def test_default_weights_are_one(self):
        g = DiGraph(2, [(0, 1)])
        assert g.edge_weight(0, 1) == 1.0

    def test_misaligned_weights_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph(2, [(0, 1)], weights=[1.0, 2.0])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph(3, np.array([[0, 1, 2]]))

    def test_csr_indices_sorted_per_row(self):
        g = DiGraph(4, [(0, 3), (0, 1), (0, 2)])
        assert g.out_neighbors(0).tolist() == [1, 2, 3]


class TestAccessors:
    def test_degrees(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degrees().tolist() == [2, 1, 0]
        assert g.in_degrees().tolist() == [0, 1, 2]

    def test_in_neighbors(self):
        g = DiGraph(3, [(0, 2), (1, 2)])
        assert sorted(g.in_neighbors(2).tolist()) == [0, 1]
        assert g.in_neighbors(0).tolist() == []

    def test_in_weights_aligned(self):
        g = DiGraph(3, [(0, 2), (1, 2)], weights=[3.0, 7.0])
        neigh = g.in_neighbors(2)
        weights = g.in_weights(2)
        lookup = dict(zip(neigh.tolist(), weights.tolist()))
        assert lookup == {0: 3.0, 1: 7.0}

    def test_edge_weight_missing_edge(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(EdgeError):
            g.edge_weight(1, 0)

    def test_has_edge_directed(self):
        g = DiGraph(2, [(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_node_bounds_checked(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(NodeError):
            g.out_neighbors(2)

    def test_edges_iteration(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0)]
        g = DiGraph(3, [(u, v) for u, v, _ in edges], weights=[w for *_, w in edges])
        assert list(g.edges()) == edges

    def test_edge_array_roundtrip(self):
        g = DiGraph(4, [(0, 1), (2, 3), (1, 3)])
        arr = g.edge_array()
        g2 = DiGraph(4, arr)
        assert g == g2

    def test_len_is_node_count(self):
        assert len(DiGraph(7)) == 7


class TestDerivedGraphs:
    def test_reverse(self):
        g = DiGraph(3, [(0, 1), (1, 2)], weights=[4.0, 5.0])
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert r.edge_weight(1, 0) == 4.0
        assert not r.has_edge(0, 1)

    def test_reverse_twice_is_identity(self):
        g = DiGraph(4, [(0, 1), (1, 2), (3, 0)], weights=[1.0, 2.0, 3.0])
        assert g.reverse().reverse() == g

    @pytest.mark.parametrize("seed", range(6))
    def test_reverse_csr_matches_counting_loop(self, seed):
        """The reverse CSR equals the per-edge counting pass bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = erdos_renyi_graph(n, float(rng.uniform(0, 0.4)), seed=seed, directed=True)
        g = g.with_weights(rng.random(g.num_edges))
        indptr, indices, weights = g.indptr, g.indices, g.weights
        m = indices.size
        want_indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(want_indptr, indices + 1, 1)
        np.cumsum(want_indptr, out=want_indptr)
        want_indices = np.empty(m, dtype=np.int64)
        want_weights = np.empty(m, dtype=np.float64)
        want_ids = np.empty(m, dtype=np.int64)
        cursor = want_indptr[:-1].copy()
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        for eid in range(m):
            slot = cursor[indices[eid]]
            want_indices[slot] = sources[eid]
            want_weights[slot] = weights[eid]
            want_ids[slot] = eid
            cursor[indices[eid]] += 1
        g._ensure_reverse()
        for got, want in (
            (g._rev_indptr, want_indptr), (g._rev_indices, want_indices),
            (g._rev_weights, want_weights), (g._rev_edge_ids, want_ids),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_to_undirected(self):
        g = DiGraph(3, [(0, 1)])
        u = g.to_undirected()
        assert u.has_edge(0, 1) and u.has_edge(1, 0)
        assert u.num_edges == 2

    def test_to_undirected_keeps_min_weight(self):
        g = DiGraph(2, [(0, 1), (1, 0)], weights=[3.0, 1.0])
        u = g.to_undirected()
        assert u.edge_weight(0, 1) == 1.0
        assert u.edge_weight(1, 0) == 1.0

    def test_with_weights(self):
        g = DiGraph(2, [(0, 1)])
        g2 = g.with_weights(np.array([9.0]))
        assert g2.edge_weight(0, 1) == 9.0
        assert g.edge_weight(0, 1) == 1.0  # original untouched

    def test_with_weights_misaligned(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(EdgeError):
            g.with_weights(np.array([1.0, 2.0]))

    def test_subgraph(self):
        g = DiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, ids = g.subgraph([1, 2, 3])
        assert ids.tolist() == [1, 2, 3]
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1)  # 1 -> 2 relabelled
        assert sub.has_edge(1, 2)  # 2 -> 3 relabelled
        assert not sub.has_edge(0, 2)

    def test_subgraph_matches_reference(self):
        g = erdos_renyi_graph(30, 0.2, seed=5, directed=True)
        g = g.with_weights(np.arange(g.num_edges) + 0.5)
        nodes = [17, 3, 25, 8, 0, 12, 29, 4]
        sub, ids = g.subgraph(nodes)
        want = bank_reference.subgraph(g, nodes)
        assert ids.tolist() == nodes
        assert sub == want
        assert np.array_equal(sub.weights, want.weights)
        # Relabelled in the given order, weights carried along.
        induced = [
            (i, j, g.edge_weight(u, v))
            for i, u in enumerate(nodes)
            for j, v in enumerate(nodes)
            if g.has_edge(u, v)
        ]
        assert induced and sorted(sub.edges()) == sorted(induced)

    def test_from_undirected_edges(self):
        g = DiGraph.from_undirected_edges(3, [(0, 1), (1, 2)])
        assert g.num_edges == 4
        assert g.has_edge(1, 0) and g.has_edge(2, 1)


def _assert_csr_equal(graph, want):
    """*graph*'s CSR is bitwise the frozen ``(indptr, indices, weights)``."""
    for got, ref in zip((graph.indptr, graph.indices, graph.weights), want):
        assert got.dtype == ref.dtype
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


# Weights whose minimum depends on the fold order (signed zeros, NaN).
_WEIGHTS = [3.0, 1.0, 0.0, -0.0, -2.5, np.inf, np.nan]


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=40))
    weights = draw(st.lists(st.sampled_from(_WEIGHTS), min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


class TestCsrOracle:
    """The constructor and ``to_undirected`` are bitwise equal to the
    frozen lexsort path in ``tests/graph_reference.py``."""

    # Nodes 5 and 6 are isolated; 0 <-> 1 and 2 <-> 3 are duplicated in
    # both directions with different weights; 1 and 4 carry self-loops.
    N = 7
    EDGES = [
        (0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2),
        (3, 2), (4, 4), (4, 0), (2, 3), (0, 4), (3, 1),
    ]
    WEIGHTS = [4.0, 2.0, 3.0, 0.5, 9.0, 0.0, -0.0, 1.0, 7.0, 6.0, 8.0, 6.5, 2.0]

    def test_constructor_fixed_case(self):
        g = DiGraph(self.N, self.EDGES, self.WEIGHTS)
        _assert_csr_equal(g, graph_reference.csr_arrays(self.N, self.EDGES, self.WEIGHTS))
        assert g.out_degrees()[5:].tolist() == [0, 0]

    def test_to_undirected_fixed_case(self):
        g = DiGraph(self.N, self.EDGES, self.WEIGHTS)
        _assert_csr_equal(g.to_undirected(), graph_reference.to_undirected(g))

    def test_to_undirected_random_weights(self):
        g = erdos_renyi_graph(300, 0.02, seed=9, directed=True)
        g = g.with_weights(np.random.default_rng(9).choice(_WEIGHTS, g.num_edges))
        _assert_csr_equal(g.to_undirected(), graph_reference.to_undirected(g))

    @settings(max_examples=200, deadline=None)
    @given(_edge_lists())
    def test_random_edge_lists(self, case):
        n, edges, weights = case
        g = DiGraph(n, edges, weights)
        _assert_csr_equal(g, graph_reference.csr_arrays(n, edges, weights))
        _assert_csr_equal(g.to_undirected(), graph_reference.to_undirected(g))
        _assert_csr_equal(DiGraph(n, edges), graph_reference.csr_arrays(n, edges))


class TestInterop:
    def test_scipy_roundtrip(self):
        g = DiGraph(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        mat = g.to_scipy_csr()
        assert mat.shape == (3, 3)
        assert mat[0, 1] == 2.0
        assert mat[1, 2] == 3.0

    def test_scipy_with_override_weights(self):
        g = DiGraph(2, [(0, 1)])
        mat = g.to_scipy_csr(np.array([7.0]))
        assert mat[0, 1] == 7.0

    def test_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        g = DiGraph(4, [(0, 1), (1, 2), (3, 1)], weights=[1.0, 2.5, 4.0])
        nxg = g.to_networkx()
        assert isinstance(nxg, nx.DiGraph)
        back = DiGraph.from_networkx(nxg)
        assert back == g

    def test_from_csr(self):
        g = DiGraph(3, [(0, 1), (0, 2)])
        g2 = DiGraph.from_csr(g.indptr, g.indices, g.weights)
        assert g == g2

    def test_equality_ignores_identity(self):
        a = DiGraph(2, [(0, 1)])
        b = DiGraph(2, [(0, 1)])
        assert a == b
        assert a != DiGraph(2, [(1, 0)])
