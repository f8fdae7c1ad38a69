"""Focused tests for the Theorem 4 pipeline internals."""

import numpy as np
import pytest
from dijkstra_reference import dijkstra_multi

from repro.exceptions import ValidationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NetworkState
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

    def test_unknown_bank_shares_without_deficit(self, setting):
        """Equal totals need no banks, identical histograms no solve; a
        bad share rule still fails."""
        graph, costs, banks = setting
        p = np.zeros(25); p[0] = 1.0
        q = np.zeros(25); q[1] = 1.0
        for a, b in ((p, q), (p, p)):
            with pytest.raises(ValidationError):
                emd_star_term_fast(
                    graph, a, b, costs, banks, max_cost=64, bank_shares="typo"
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
    def test_cold_term_does_not_report_earlier_simplex_pivots(self):
        """Pivots and the warm flag describe the solve behind the term's
        own cost: an ssp term handed a basis cache solves cold, so right
        after a network-simplex term on the same thread it reports exactly
        the pivots of an ssp term run alone, and never a warm start."""
        from repro.opinions.state import POSITIVE
        from repro.snd.cache import BasisCache

        g = erdos_renyi_graph(60, 0.1, seed=4)
        banks = allocate_banks(g, n_clusters=3, seed=0)
        a = NetworkState.from_active_sets(60, positive=list(range(0, 24, 2)))
        b = NetworkState.from_active_sets(60, positive=list(range(30, 50, 2)))
        ssp = SND(g, banks=banks, solver="ssp")

        alone = FastTermStats()
        ssp.term(b, a, POSITIVE, stats=alone)

        simplex_stats = FastTermStats()
        SND(g, banks=banks, solver="network-simplex").term(
            a, b, POSITIVE, stats=simplex_stats
        )
        assert simplex_stats.pivots > 0

        ssp_stats = FastTermStats()
        cache = BasisCache()
        ssp.term(
            b, a, POSITIVE, basis_cache=cache, basis_key=("b", "a", POSITIVE),
            stats=ssp_stats,
        )
        assert ssp_stats.solver == "ssp"
        assert ssp_stats.pivots == alone.pivots
        assert ssp_stats.warm_start is False
        assert len(cache) == 0


class TestWarmStartRule:
    """One rule in the solve stage: a term reads and stores a
    basis if and only if its resolved method is the network simplex."""

    @pytest.mark.parametrize(
        "solver", ["auto", "network-simplex", "ssp", "lp"]
    )
    def test_only_network_simplex_touches_the_basis_store(self, solver):
        from repro.opinions.state import POSITIVE
        from repro.snd.cache import BasisCache

        g = erdos_renyi_graph(60, 0.1, seed=4)
        banks = allocate_banks(g, n_clusters=3, seed=0)
        a = NetworkState.from_active_sets(60, positive=list(range(0, 24, 2)))
        b = NetworkState.from_active_sets(60, positive=list(range(30, 50, 2)))
        snd = SND(g, banks=banks, solver=solver)
        cache = BasisCache()
        stats = FastTermStats()
        for _ in range(2):  # the second solve finds the first one's basis
            snd.term(
                a, b, POSITIVE, basis_cache=cache, basis_key=("a", "b", POSITIVE),
                stats=stats,
            )
        warm = solver in ("auto", "network-simplex")
        assert (len(cache) > 0) == warm
        assert (cache.stats()["hits"] > 0) == warm
        assert stats.warm_start == warm


# --------------------------------------------------------------------- #
# Vectorised bank legs, folding and basis-label mapping vs their loops
# --------------------------------------------------------------------- #


def _legs_loop(values, banks, active):
    """Per-cluster minima of each row, one cluster at a time."""
    legs = {}
    for c in active:
        members = np.asarray(banks.clusters[c], dtype=np.int64)
        legs[int(c)] = values[:, members].min(axis=1) if values.size else np.empty(0)
    return legs


def _fold_loop(sup_amounts, con_amounts, d_sc, legs, caps, gamma, active, on_demand):
    """The per-(cluster, bin) folding loop: (supplies, demands, costs, labels)."""
    cols, amounts, labels = [], [], []
    nb = caps.shape[1]
    for c in active:
        for j in range(nb):
            cap = float(caps[c, j])
            if cap <= 1e-12:
                continue
            cols.append(legs[int(c)] + float(gamma[c, j]))
            amounts.append(cap)
            labels.append(-(1 + int(c) * nb + j))
    if on_demand:
        supplies = sup_amounts
        demands = np.concatenate([con_amounts, np.asarray(amounts)])
        costs = np.hstack([d_sc, np.column_stack(cols)]) if cols else d_sc
    else:
        supplies = np.concatenate([sup_amounts, np.asarray(amounts)])
        demands = con_amounts
        costs = np.vstack([d_sc, np.vstack(cols)]) if cols else d_sc
    return supplies, demands, costs, np.asarray(labels, dtype=np.int64)


def _map_loop(basis, row_labels, col_labels):
    ridx = {int(label): i for i, label in enumerate(row_labels)}
    cidx = {int(label): j for j, label in enumerate(col_labels)}
    cells = [
        (ridx[int(r)], cidx[int(c)])
        for r, c in zip(basis.rows, basis.cols)
        if int(r) in ridx and int(c) in cidx
    ]
    return cells or None


def _reduced_term(forward, src, dst, d, legs, caps, active):
    """A priced :class:`ReducedTerm` from ``(ids, amounts)`` sides."""
    from repro.snd.fast import ReducedTerm

    return ReducedTerm(
        forward=forward, src_ids=src[0], src_amounts=src[1], dst_ids=dst[0],
        dst_amounts=dst[1], bank_caps=caps, active=active,
        n_suppliers=0, n_consumers=0, d=d, legs=legs,
    )


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(params=[1, 3], ids=["nb1", "nb3"])
def folding_setting(request, rng):
    graph = erdos_renyi_graph(40, 0.15, seed=5, directed=True)
    banks = allocate_banks(graph, n_clusters=5, n_banks=request.param, seed=2)
    return graph, banks, rng


class TestVectorisedFolding:
    def test_cluster_minima_match_member_loop(self, folding_setting):
        from repro.snd.fast import _cluster_minima

        graph, banks, rng = folding_setting
        active = np.arange(banks.n_clusters)
        for n_rows in (0, 1, 4):
            rows = rng.integers(0, 9, size=(n_rows, 40)).astype(np.float64)
            rows[rng.random(rows.shape) < 0.2] = np.inf
            got = _cluster_minima(rows, banks)
            want = _legs_loop(rows, banks, active)
            assert got.shape == (n_rows, banks.n_clusters)
            for c in active:
                assert _bitwise(got[:, c], want[int(c)].reshape(n_rows))
        dist = rows[0]
        per_cluster = np.array(
            [float(np.min(dist[np.asarray(c)])) for c in banks.clusters]
        )
        assert _bitwise(_cluster_minima(dist, banks), per_cluster)

    @pytest.mark.parametrize("on_demand", [True, False], ids=["demand", "supply"])
    def test_fold_matches_bin_loop(self, folding_setting, monkeypatch, on_demand):
        import repro.flow
        from repro.snd.fast import _bank_labels, _fold, _fold_banks, _solve

        graph, banks, rng = folding_setting
        nb, nc = banks.n_banks, banks.n_clusters
        n_sup, n_con = 4, 6
        n_side = n_sup if on_demand else n_con
        caps = rng.random((nc, nb)) * (rng.random((nc, nb)) < 0.7)
        caps[1] = 1e-13  # every bin at or below the skip threshold...
        caps[2, 0] = 2e-12  # ...and a cluster that is active on one bin only
        caps[2, 1:] = 0.0
        active = np.flatnonzero(caps.sum(axis=1) > 1e-12)
        gamma = banks.gamma_matrix()
        legs_full = rng.integers(0, 20, size=(n_side, nc)).astype(np.float64)
        legs = legs_full[:, active]
        sup = rng.random(n_sup) + 0.1
        con = rng.random(n_con) + 0.1
        d_sc = rng.integers(0, 20, size=(n_con, n_sup)).astype(np.float64).T

        captured = []
        monkeypatch.setattr(
            repro.flow, "solve_transportation",
            lambda problem, method: captured.append(problem),
        )
        sup_side = (np.arange(n_sup), sup)
        con_side = (np.arange(n_con), con)
        src, dst = (sup_side, con_side) if on_demand else (con_side, sup_side)
        term = _reduced_term(
            on_demand, src, dst, d_sc if on_demand else d_sc.T, legs, caps, active
        )
        _solve(*_fold(term, gamma), "lp")
        (problem,) = captured
        loop_legs = {int(c): legs_full[:, c] for c in active}
        want = _fold_loop(sup, con, d_sc, loop_legs, caps, gamma, active, on_demand)
        assert _bitwise(problem.supplies, want[0])
        assert _bitwise(problem.demands, want[1])
        assert _bitwise(problem.costs, want[2])
        assert problem.costs.strides == want[2].strides

        _, amounts, live = _fold_banks(legs, caps, gamma, active)
        assert _bitwise(_bank_labels(active, live), want[3])
        assert _bitwise(amounts, np.asarray(want[1 if on_demand else 0][-amounts.size:]))

    def test_fold_without_sources(self, folding_setting):
        """A term with no user on the bank-free side folds to an empty
        block, and the instance with an empty side is not solved."""
        from repro.snd.fast import _fold, _fold_banks, _solve

        _, banks, _ = folding_setting
        caps = np.full((banks.n_clusters, banks.n_banks), 0.5)
        active = np.arange(banks.n_clusters)
        legs = np.empty((0, active.size))
        block, amounts, _ = _fold_banks(legs, caps, banks.gamma_matrix(), active)
        assert block.shape == (0, active.size * banks.n_banks)
        assert amounts.size == active.size * banks.n_banks
        term = _reduced_term(
            True, (np.empty(0, dtype=np.int64), np.empty(0)),
            (np.array([3]), np.array([1.0])), np.empty((0, 1)), legs, caps, active,
        )
        plan = _solve(*_fold(term, banks.gamma_matrix()), "network-simplex")
        assert plan is None

    def test_label_mapping_matches_dict_loop(self, rng):
        from repro.flow.basis import TransportBasis
        from repro.snd.fast import _map_labeled_basis

        for _ in range(50):
            row_labels = rng.permutation(np.concatenate(
                [rng.choice(30, 5, replace=False), -1 - rng.choice(9, 3, replace=False)]
            ))
            col_labels = rng.permutation(np.arange(30, 42))
            k = int(rng.integers(1, 25))
            basis = TransportBasis(
                rows=rng.integers(-10, 35, size=k), cols=rng.integers(25, 45, size=k)
            )
            got = _map_labeled_basis(basis, row_labels, col_labels)
            want = _map_loop(basis, row_labels, col_labels)
            if want is None:
                assert got is None
            else:
                assert got.cells() == want  # same cells, in hint order

    def test_label_mapping_without_overlap(self):
        from repro.flow.basis import TransportBasis
        from repro.snd.fast import _map_labeled_basis

        basis = TransportBasis(rows=[1, 2], cols=[7, 8])
        assert _map_labeled_basis(basis, np.array([3, 4]), np.array([7, 8])) is None
        assert _map_labeled_basis(basis, np.array([1, 2]), np.array([-1])) is None
        assert _map_labeled_basis(
            basis, np.empty(0, dtype=np.int64), np.array([7])
        ) is None
