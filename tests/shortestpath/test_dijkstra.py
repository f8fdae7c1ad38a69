"""Dijkstra correctness: the reference Dijkstra (``tests/dijkstra_reference.py``)
on hand cases, against networkx and across its heaps, and the scipy bulk
rows against it."""

import numpy as np
import pytest
from dijkstra_reference import HEAP_KINDS, dijkstra, dijkstra_multi

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.shortestpath.dijkstra import multi_source_distances


class TestHandCases:
    def test_line(self, line_graph):
        assert dijkstra(line_graph, 0).tolist() == [0, 1, 2, 3]

    def test_unreachable_is_inf(self, line_graph):
        dist = dijkstra(line_graph, 2)
        assert dist[0] == np.inf and dist[1] == np.inf
        assert dist[3] == 1

    def test_weighted_diamond(self, diamond_graph):
        # 0->1 (1), 0->2 (2), 1->3 (5), 2->3 (1): best path to 3 costs 3.
        dist = dijkstra(diamond_graph, 0)
        assert dist.tolist() == [0, 1, 2, 3]

    def test_weight_override(self, diamond_graph):
        w = np.array([1.0, 10.0, 1.0, 1.0])  # make the 0->2 route expensive
        dist = dijkstra(diamond_graph, 0, weights=w)
        assert dist[3] == 2  # via 1 now

    def test_source_out_of_range(self, line_graph):
        with pytest.raises(ValidationError):
            dijkstra(line_graph, 9)

    def test_negative_weights_rejected(self):
        g = DiGraph(2, [(0, 1)], weights=[-1.0])
        with pytest.raises(ValidationError):
            dijkstra(g, 0)

    def test_targets_early_exit_correct(self, diamond_graph):
        dist = dijkstra(diamond_graph, 0, targets=np.array([1]))
        assert dist[1] == 1.0


class TestMultiSource:
    def test_min_over_sources(self, line_graph):
        dist = dijkstra_multi(line_graph, [0, 3])
        assert dist.tolist() == [0, 1, 2, 0]

    def test_empty_sources(self, line_graph):
        dist = dijkstra_multi(line_graph, [])
        assert np.all(np.isinf(dist))


@pytest.mark.parametrize("heap", HEAP_KINDS)
class TestHeapVariants:
    def test_all_heaps_agree(self, heap, rng):
        g = erdos_renyi_graph(40, 0.15, seed=2, directed=True)
        w = np.maximum(1, np.round(rng.uniform(1, 9, g.num_edges)))
        base = dijkstra(g, 0, weights=w, heap="binary")
        assert np.allclose(dijkstra(g, 0, weights=w, heap=heap), base)

    def test_radix_requires_integers(self, heap):
        if heap != "radix":
            pytest.skip("radix-specific")
        g = DiGraph(2, [(0, 1)], weights=[1.5])
        with pytest.raises(ValidationError):
            dijkstra(g, 0, heap="radix")


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_weighted_digraphs(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(35, 0.12, seed=seed, directed=True)
        w = rng.integers(1, 20, g.num_edges).astype(np.float64)
        g = g.with_weights(w)
        ours = dijkstra(g, 0)
        theirs = nx.single_source_dijkstra_path_length(g.to_networkx(), 0)
        for v in range(g.num_nodes):
            expected = theirs.get(v, np.inf)
            assert ours[v] == pytest.approx(expected)


class TestEngines:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_scipy_and_python_agree(self, rng, reverse):
        """The scipy rows equal the reference Dijkstra run per source
        (along reversed edges, with re-aligned weights, when *reverse*)."""
        g = erdos_renyi_graph(30, 0.15, seed=5, directed=True)
        w = rng.integers(1, 9, g.num_edges).astype(np.float64)
        sources = np.array([0, 3, 7])
        rows = multi_source_distances(g, sources, weights=w, reverse=reverse)
        if reverse:
            # dist(v -> s) for every v, from one forward run per v.
            expected = np.vstack(
                [dijkstra(g, v, weights=w) for v in range(g.num_nodes)]
            )[:, sources].T
        else:
            expected = np.vstack([dijkstra(g, int(s), weights=w) for s in sources])
        assert rows.shape == (3, 30)
        assert np.allclose(rows, expected)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_rows_bitwise_equal_without_graph_copy(self, rng, monkeypatch, reverse):
        """Rows are searched on a matrix built from the graph's (reverse)
        CSR arrays: bit for bit the rows of a search over a copied
        (reversed) graph, and no copy is made."""
        from scipy.sparse.csgraph import dijkstra as sp_dijkstra

        from repro.snd.fast import _min_distance_from_set

        g = erdos_renyi_graph(40, 0.1, seed=2, directed=True)
        w = rng.integers(1, 9, g.num_edges).astype(np.float64)
        sources = np.array([1, 4, 9, 30])
        work = g.reverse() if reverse else g
        work_w = w[g._rev_edge_ids] if reverse else w
        expected = sp_dijkstra(work.to_scipy_csr(work_w), directed=True, indices=sources)

        def no_copy(self):
            raise AssertionError("searches must not copy the graph")

        monkeypatch.setattr(DiGraph, "reverse", no_copy)
        for limit in (np.inf, 6.0):
            rows = multi_source_distances(
                g, sources, weights=w, reverse=reverse, limit=limit
            )
            want = np.where(expected <= limit, expected, np.inf)
            assert rows.tobytes() == want.tobytes()
        # Integer weights: the super-source's +1 offset cancels exactly.
        near = _min_distance_from_set(g, sources, w, reverse=reverse)
        assert near.tobytes() == expected.min(axis=0).tobytes()

    def test_reverse_semantics(self, line_graph):
        rows = multi_source_distances(line_graph, [3], reverse=True)
        assert rows[0].tolist() == [3, 2, 1, 0]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_source(self, line_graph, bad):
        with pytest.raises(ValidationError, match="out of range"):
            multi_source_distances(line_graph, [0, bad])

    def test_empty_sources_matrix(self, line_graph):
        rows = multi_source_distances(line_graph, np.array([], dtype=np.int64))
        assert rows.shape == (0, 4)
