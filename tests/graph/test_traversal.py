"""Tests for BFS and connectivity."""

import bank_reference
import graph_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NodeError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.traversal import (
    bfs_distances,
    bfs_tree,
    estimate_diameter,
    is_weakly_connected,
    strongly_connected_components,
    weakly_connected_components,
)


class TestBfs:
    def test_line_distances(self, line_graph):
        assert bfs_distances(line_graph, 0).tolist() == [0, 1, 2, 3]

    def test_unreachable_marked(self, line_graph):
        # Directed path: nothing reaches node 0 from node 3.
        assert bfs_distances(line_graph, 3).tolist() == [-1, -1, -1, 0]

    def test_multi_source(self, line_graph):
        dist = bfs_distances(line_graph, [0, 3])
        assert dist.tolist() == [0, 1, 2, 0]

    def test_tree_predecessors(self, line_graph):
        pred = bfs_tree(line_graph, 0)
        assert pred.tolist() == [-1, 0, 1, 2]

    @pytest.mark.parametrize(
        "sources", [0, [4, 11, 27], [9, 9, 2, 9], np.array([33, 0]), []]
    )
    def test_matches_reference_on_directed_graph(self, sources):
        g = erdos_renyi_graph(40, 0.04, seed=3, directed=True)
        want = bank_reference.bfs_distances(g, sources)
        got = bfs_distances(g, sources)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert (want < 0).any()  # some nodes are unreachable (all of them for [])

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        g = erdos_renyi_graph(40, 0.1, seed=11, directed=True)
        nxg = g.to_networkx()
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(nxg, 0)
        for v in range(40):
            expected = theirs.get(v, -1)
            assert ours[v] == expected


@st.composite
def _directed_graphs(draw):
    """A directed graph with few edges (usually disconnected) and a source
    list: one node, several with repeats, or none."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    sources = draw(
        st.one_of(
            node,
            st.lists(node, min_size=1, max_size=6).map(lambda s: s + s[:1]),
            st.just([]),
        )
    )
    return DiGraph(n, edges), sources


class TestAgainstInterpretedLoops:
    """The compiled searches equal the queue loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_directed_graphs())
    def test_bfs_distances(self, case):
        g, sources = case
        want = bank_reference.bfs_distances(g, sources)
        got = bfs_distances(g, sources)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(_directed_graphs())
    def test_tree_and_weak_components(self, case):
        g, _ = case
        for graph in (g, g.to_undirected()):
            want = graph_reference.weakly_connected_components(graph)
            got = weakly_connected_components(graph)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            for source in range(min(graph.num_nodes, 4)):
                want = graph_reference.bfs_tree(graph, source)
                got = bfs_tree(graph, source)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_zero_weight_edges_are_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2)]).with_weights(np.zeros(2))
        assert bfs_distances(g, 0).tolist() == [0, 1, 2]
        assert bfs_tree(g, 0).tolist() == [-1, 0, 1]
        assert weakly_connected_components(g).tolist() == [0, 0, 0]

    def test_out_of_range_source_rejected(self):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(NodeError):
            bfs_distances(g, [0, 3])
        with pytest.raises(NodeError):
            bfs_distances(g, -1)


class TestComponents:
    def test_weak_components(self):
        g = DiGraph(5, [(0, 1), (2, 3)])
        labels = weakly_connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2] != labels[4]

    def test_weak_ignores_direction(self):
        g = DiGraph(3, [(0, 1), (2, 1)])
        labels = weakly_connected_components(g)
        assert len(np.unique(labels)) == 1

    def test_strong_components_cycle(self):
        g = DiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        labels = strongly_connected_components(g)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] != labels[0]

    def test_strong_components_dag(self, line_graph):
        labels = strongly_connected_components(line_graph)
        assert len(np.unique(labels)) == 4

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 25),
        p=st.floats(0.01, 0.3),
        seed=st.integers(0, 10_000),
    )
    def test_strong_components_by_definition(self, n, p, seed):
        """u and v share a label iff each reaches the other."""
        g = erdos_renyi_graph(n, p, seed=seed, directed=True)
        labels = strongly_connected_components(g)
        assert labels.dtype == np.int64
        reach = np.array([bfs_distances(g, v) >= 0 for v in range(n)])
        mutual = reach & reach.T
        assert np.array_equal(labels[:, None] == labels[None, :], mutual)

    def test_strong_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        g = erdos_renyi_graph(40, 0.06, seed=3, directed=True)
        ours = strongly_connected_components(g)
        theirs = list(nx.strongly_connected_components(g.to_networkx()))
        assert len(np.unique(ours)) == len(theirs)
        for comp in theirs:
            comp = sorted(comp)
            assert len({ours[v] for v in comp}) == 1

    def test_is_weakly_connected(self):
        assert is_weakly_connected(DiGraph(3, [(0, 1), (1, 2)]))
        assert not is_weakly_connected(DiGraph(3, [(0, 1)]))
        assert is_weakly_connected(DiGraph(0))


class TestDiameter:
    def test_line_diameter(self):
        g = DiGraph.from_undirected_edges(5, [(i, i + 1) for i in range(4)])
        assert estimate_diameter(g, seed=0) == 4

    def test_lower_bound_property(self):
        g = erdos_renyi_graph(30, 0.2, seed=4)
        est = estimate_diameter(g, seed=0)
        assert est >= 1
