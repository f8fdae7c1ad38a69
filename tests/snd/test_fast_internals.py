"""Focused tests for the Theorem 4 pipeline internals."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NetworkState
from repro.shortestpath.dijkstra import dijkstra_multi
from repro.snd import SND, allocate_banks
from repro.snd.fast import FastTermStats, _min_distance_from_set, emd_star_term_fast
from repro.snd.ground import build_edge_costs


@pytest.fixture
def setting():
    graph = erdos_renyi_graph(25, 0.2, seed=3, directed=True)
    state = NetworkState.neutral(25)
    costs = build_edge_costs(graph, state, 1, ModelAgnostic())
    banks = allocate_banks(graph, n_clusters=3, seed=0)
    return graph, costs, banks


class TestMinDistanceFromSet:
    def test_engines_agree_forward(self, setting):
        graph, costs, _ = setting
        members = np.array([0, 5, 9])
        a = _min_distance_from_set(graph, members, costs, reverse=False)
        b = dijkstra_multi(graph, members, weights=costs)
        assert np.allclose(a, b)

    def test_engines_agree_reverse(self, setting):
        graph, costs, _ = setting
        members = np.array([2, 7])
        a = _min_distance_from_set(graph, members, costs, reverse=True)
        flipped = DiGraph(graph.num_nodes, graph.edge_array()[:, ::-1], weights=costs)
        b = dijkstra_multi(flipped, members)
        assert np.allclose(a, b)

    def test_members_at_zero(self, setting):
        graph, costs, _ = setting
        members = np.array([4])
        dist = _min_distance_from_set(graph, members, costs, reverse=False)
        assert dist[4] == 0.0

    def test_reverse_means_into_set(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        costs = np.array([2.0, 3.0])
        into = _min_distance_from_set(g, np.array([2]), costs, reverse=True)
        assert into[0] == 5.0  # 0 -> 1 -> 2
        out = _min_distance_from_set(g, np.array([2]), costs, reverse=False)
        assert not np.isfinite(out[0])  # 2 cannot reach 0


class TestTermEdgeCases:
    def test_identical_histograms_zero(self, setting):
        graph, costs, banks = setting
        h = np.zeros(25)
        h[[1, 2]] = 1.0
        assert emd_star_term_fast(graph, h, h, costs, banks, max_cost=64) == 0.0

    def test_bad_histogram_shape(self, setting):
        graph, costs, banks = setting
        with pytest.raises(ValidationError):
            emd_star_term_fast(graph, np.ones(3), np.ones(25), costs, banks, max_cost=64)

    def test_unknown_solver(self, setting):
        graph, costs, banks = setting
        p = np.zeros(25); p[0] = 1.0
        q = np.zeros(25); q[1] = 1.0
        with pytest.raises(ValidationError):
            emd_star_term_fast(
                graph, p, q, costs, banks, max_cost=64, solver="quantum"
            )

    def test_unknown_bank_metric(self, setting):
        graph, costs, banks = setting
        p = np.zeros(25); p[0] = 1.0
        with pytest.raises(ValidationError):
            emd_star_term_fast(
                graph, p, p, costs, banks, max_cost=64, bank_metric="median"
            )

    def test_empty_supplier_side(self, setting):
        """P empty, Q non-empty: everything comes from P's banks."""
        graph, costs, banks = setting
        p = np.zeros(25)
        q = np.zeros(25); q[[3, 4]] = 1.0
        value = emd_star_term_fast(graph, p, q, costs, banks, max_cost=64)
        assert value > 0

    def test_fractional_masses(self, rng, setting):
        """Real-valued histograms work (the API is not 0/1-only)."""
        graph, costs, banks = setting
        p = rng.uniform(0, 1, 25)
        q = rng.uniform(0, 1, 25)
        value = emd_star_term_fast(graph, p, q, costs, banks, max_cost=64)
        lp = emd_star_term_fast(graph, p, q, costs, banks, max_cost=64, solver="lp")
        assert value == pytest.approx(lp, rel=1e-6)

    def test_stats_populated(self, setting):
        graph, costs, banks = setting
        p = np.zeros(25); p[[0, 1, 2]] = 1.0
        q = np.zeros(25); q[[0, 5]] = 1.0
        stats = FastTermStats()
        emd_star_term_fast(graph, p, q, costs, banks, max_cost=64, stats=stats)
        assert stats.n_suppliers == 2  # users 1, 2 after cancellation
        assert stats.n_consumers == 1  # user 5
        assert stats.cost > 0


class TestSolverConsistencyAtScale:
    @pytest.mark.parametrize("solver", ["ssp", "lp", "network-simplex"])
    def test_solvers_match_direct(self, solver):
        from repro.snd import snd_direct

        g = erdos_renyi_graph(20, 0.25, seed=6)
        banks = allocate_banks(g, n_clusters=2, seed=1)
        a = NetworkState.from_active_sets(20, positive=[0, 1], negative=[9])
        b = NetworkState.from_active_sets(20, positive=[2], negative=[9, 10])
        fast = SND(g, banks=banks, solver=solver).distance(a, b)
        direct = snd_direct(g, a, b, banks=banks)
        assert fast == pytest.approx(direct, rel=1e-6)


class TestTermDiagnostics:
    def test_hybrid_term_does_not_report_earlier_simplex_pivots(self):
        """Pivots and the warm flag describe the solve behind the term's
        own cost: a sinkhorn-hybrid term handed a basis cache but no basis
        key runs the hybrid's LP backend, so it reports no simplex work
        even right after a network-simplex term on the same thread."""
        from repro.opinions.state import POSITIVE
        from repro.snd.cache import BasisCache

        g = erdos_renyi_graph(60, 0.1, seed=4)
        banks = allocate_banks(g, n_clusters=3, seed=0)
        a = NetworkState.from_active_sets(60, positive=list(range(0, 24, 2)))
        b = NetworkState.from_active_sets(60, positive=list(range(30, 50, 2)))

        simplex_stats = FastTermStats()
        SND(g, banks=banks, solver="network-simplex").term(
            a, b, POSITIVE, stats=simplex_stats
        )
        assert simplex_stats.pivots > 0

        hybrid_stats = FastTermStats()
        SND(g, banks=banks, solver="sinkhorn-hybrid").term(
            b, a, POSITIVE, basis_cache=BasisCache(), stats=hybrid_stats
        )
        assert hybrid_stats.solver == "sinkhorn-hybrid"
        assert hybrid_stats.pivots == 0
        assert hybrid_stats.warm_start is False
