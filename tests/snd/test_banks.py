"""Tests for bank allocation strategies."""

import functools

import bank_reference
import numpy as np
import pytest

from repro.datasets.synthetic import giant_component_powerlaw
from repro.exceptions import ValidationError
from repro.graph.generators import erdos_renyi_graph, two_cluster_graph
from repro.graph.traversal import weakly_connected_components
from repro.snd.banks import BankAllocation, allocate_banks


class TestBankAllocation:
    def test_global_strategy(self):
        g = erdos_renyi_graph(20, 0.2, seed=0)
        banks = allocate_banks(g, strategy="global")
        assert banks.n_clusters == 1
        assert len(banks.clusters[0]) == 20

    def test_per_bin_strategy(self):
        g = erdos_renyi_graph(10, 0.2, seed=0)
        banks = allocate_banks(g, strategy="per-bin")
        assert banks.n_clusters == 10
        assert all(len(c) == 1 for c in banks.clusters)

    def test_cluster_strategy_partition(self):
        g, *_ = two_cluster_graph(15, seed=1)
        banks = allocate_banks(g, strategy="cluster", n_clusters=4, seed=0)
        banks.validate(g.num_nodes)
        assert banks.n_clusters == 4

    def test_default_cluster_count(self):
        g = erdos_renyi_graph(100, 0.05, seed=0)
        banks = allocate_banks(g, seed=0)
        assert banks.n_clusters >= 2

    def test_unknown_strategy(self):
        g = erdos_renyi_graph(5, 0.5, seed=0)
        with pytest.raises(ValidationError):
            allocate_banks(g, strategy="quantum")

    def test_gamma_override(self):
        g = erdos_renyi_graph(10, 0.3, seed=0)
        banks = allocate_banks(g, strategy="global", gamma=7.0)
        assert banks.gammas[0][0] == 7.0

    def test_multiple_banks_geometric_ladder(self):
        g = erdos_renyi_graph(10, 0.3, seed=0)
        banks = allocate_banks(g, strategy="global", n_banks=3, gamma=2.0)
        assert banks.gammas[0].tolist() == [2.0, 4.0, 8.0]

    def test_safe_gamma_respects_threshold(self):
        """γ must be >= half the intra-cluster ground diameter (Thm. 3)."""
        from repro.snd.direct import dense_ground_distance
        from repro.snd.ground import GroundDistanceConfig
        from repro.opinions.models.model_agnostic import ModelAgnostic
        from repro.opinions.state import NetworkState

        g, *_ = two_cluster_graph(8, seed=2)
        max_cost = 16
        banks = allocate_banks(g, strategy="cluster", n_clusters=2, max_cost=max_cost, seed=0)
        config = GroundDistanceConfig(model=ModelAgnostic(), max_cost=max_cost)
        dense = dense_ground_distance(
            g, NetworkState.neutral(g.num_nodes), 1, config=config
        )
        for members, gammas in zip(banks.clusters, banks.gammas):
            members = np.asarray(members)
            diameter = dense[np.ix_(members, members)].max()
            assert gammas[0] >= 0.5 * diameter

    def test_cluster_of_lookup(self):
        g = erdos_renyi_graph(12, 0.3, seed=0)
        banks = allocate_banks(g, strategy="cluster", n_clusters=3, seed=0)
        lookup = banks.cluster_of(12)
        for ci, members in enumerate(banks.clusters):
            assert np.all(lookup[np.asarray(members)] == ci)

    def test_gamma_matrix_shape(self):
        g = erdos_renyi_graph(12, 0.3, seed=0)
        banks = allocate_banks(g, strategy="cluster", n_clusters=3, n_banks=2, seed=0)
        assert banks.gamma_matrix().shape == (3, 2)

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            BankAllocation(clusters=(np.array([0]),), gammas=(), n_banks=1)
        with pytest.raises(ValidationError):
            BankAllocation(
                clusters=(np.array([0]),), gammas=(np.array([1.0, 2.0]),), n_banks=1
            )
        with pytest.raises(ValidationError):
            BankAllocation(
                clusters=(np.array([0]),), gammas=(np.array([-1.0]),), n_banks=1
            )

    def test_empty_graph_rejected(self):
        from repro.graph.digraph import DiGraph

        with pytest.raises(ValidationError):
            allocate_banks(DiGraph(0))


class TestPerAllocationConstants:
    """Constants the term pipeline reads on every term are computed once
    per allocation, read-only, and invisible to ``==`` and pickling."""

    @staticmethod
    def _layout():
        return BankAllocation(
            clusters=((0, 3), (1, 2, 5), (4,)),
            gammas=((1.0, 2.0), (3.0, 6.0), (0.5, 1.0)),
            n_banks=2,
        )

    @staticmethod
    def _fill(banks):
        banks.cluster_of(6)
        banks.gamma_matrix()
        banks.cluster_order
        banks.cluster_sizes

    def test_values(self):
        banks = self._layout()
        order, starts = banks.cluster_order
        assert order.tolist() == [0, 3, 1, 2, 5, 4]
        assert starts.tolist() == [0, 2, 5]
        assert banks.cluster_sizes.tolist() == [2.0, 3.0, 1.0]
        assert banks.cluster_of(6).tolist() == [0, 1, 1, 0, 2, 1]
        assert banks.gamma_matrix().tolist() == [[1.0, 2.0], [3.0, 6.0], [0.5, 1.0]]
        assert [m.tolist() for m in banks.member_arrays] == [[0, 3], [1, 2, 5], [4]]

    def test_cached_once_and_read_only(self):
        banks = self._layout()
        self._fill(banks)
        assert banks.gamma_matrix() is banks.gamma_matrix()
        assert banks.cluster_of(6) is banks.cluster_of(6)
        for array in (
            banks.gamma_matrix(), banks.cluster_of(6), banks.cluster_sizes,
            *banks.cluster_order, *banks.member_arrays,
        ):
            assert not array.flags.writeable

    def test_cluster_of_other_size_still_checked(self):
        from repro.exceptions import ClusteringError

        banks = self._layout()
        banks.cluster_of(6)
        with pytest.raises(ClusteringError):
            banks.cluster_of(7)
        assert banks.cluster_of(6).shape == (6,)

    def test_caches_do_not_touch_eq_or_pickle(self):
        import pickle

        filled, fresh = self._layout(), self._layout()
        before = pickle.dumps(filled)
        self._fill(filled)
        assert filled == fresh
        assert pickle.dumps(filled) == before == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(filled))
        assert "cluster_order" not in vars(clone)
        assert clone.cluster_order[1].tolist() == [0, 2, 5]

    def test_process_pool_matches_serial(self):
        """Workers unpickle an allocation whose caches were filled in the
        parent and reproduce the serial values bit for bit. (SSP: a pool
        warm-starts network-simplex solves from other bases than a serial
        loop does, which may move a last bit.)"""
        from repro.opinions.state import NetworkState
        from repro.snd import SND

        graph = erdos_renyi_graph(40, 0.12, seed=3)
        banks = allocate_banks(graph, n_clusters=4, n_banks=2, seed=0)
        rng = np.random.default_rng(11)
        states = [
            NetworkState(rng.choice([-1, 0, 0, 1], size=40).astype(np.int8))
            for _ in range(5)
        ]
        serial = SND(graph, banks=banks, solver="ssp")
        expected = [serial.distance(a, b) for a, b in zip(states, states[1:])]
        assert "cluster_order" in vars(banks)  # filled by the serial solves
        pooled = SND(graph, banks=banks, solver="ssp").pairwise_matrix(states, jobs=2)
        got = [float(pooled[i, i + 1]) for i in range(len(states) - 1)]
        assert [repr(v) for v in got] == [repr(v) for v in expected]


@functools.lru_cache(maxsize=None)
def _powerlaw(n: int):
    """The benchmark's deployment graph family (power-law giant component)."""
    return giant_component_powerlaw(n, -2.3, k_min=2, seed=1)


def _assert_matches_reference(graph, **kwargs):
    banks = allocate_banks(graph, **kwargs)
    clusters, gammas = bank_reference.allocate_banks(graph, **kwargs)
    assert banks.n_clusters == len(clusters)
    for got, want in zip(banks.clusters, clusters):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for got, want in zip(banks.gammas, gammas):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestBankLayoutOracle:
    """``allocate_banks`` is bitwise equal to the pure-Python reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_powerlaw_2k(self, seed):
        _assert_matches_reference(_powerlaw(2000), n_clusters=24, seed=seed)

    def test_leftovers_dumped_into_smallest_cluster(self):
        g = erdos_renyi_graph(40, 0.03, seed=0)
        assert np.unique(weakly_connected_components(g)).size > 3
        _assert_matches_reference(g, n_clusters=3, seed=0)

    def test_directed_asymmetric_graph(self):
        g = erdos_renyi_graph(60, 0.05, seed=2, directed=True)
        assert g.num_edges < g.to_undirected().num_edges
        _assert_matches_reference(g, n_clusters=4, seed=1)

    def test_bank_ladder_and_hop_cost(self):
        _assert_matches_reference(
            _powerlaw(2000), n_clusters=24, n_banks=3, hop_cost=2.5, seed=0
        )

    def test_global_strategy(self):
        g = erdos_renyi_graph(50, 0.08, seed=4, directed=True)
        _assert_matches_reference(g, strategy="global", n_banks=2, gamma_scale=0.5)

    @pytest.mark.slow
    def test_powerlaw_20k(self):
        _assert_matches_reference(_powerlaw(20_000), n_clusters=24, seed=0)

    @pytest.mark.xfail(
        strict=True,
        reason="γ = U·ecc(v) assumes a connected cluster; the leftover cluster "
        "of a graph with more weak components than clusters is not",
    )
    def test_leftover_cluster_gamma_meets_threshold(self):
        from repro.opinions.models.model_agnostic import ModelAgnostic
        from repro.opinions.state import NetworkState
        from repro.snd.direct import dense_ground_distance
        from repro.snd.ground import GroundDistanceConfig

        g = erdos_renyi_graph(40, 0.03, seed=0)
        banks = allocate_banks(g, n_clusters=3, max_cost=16, seed=0)
        config = GroundDistanceConfig(model=ModelAgnostic(), max_cost=16)
        dense = dense_ground_distance(
            g, NetworkState.neutral(g.num_nodes), 1, config=config
        )
        for members, gammas in zip(banks.clusters, banks.gammas):
            assert gammas[0] >= 0.5 * dense[np.ix_(members, members)].max()
