"""EMD* tests: extension construction, Fig. 5 behaviour, Theorem 3
metricity, reduction lemmas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emd.emd_star import (
    build_extension,
    cluster_distance_matrix,
    emd_star,
    metric_gammas,
)
from repro.emd.reduction import cancel_common_mass, reduce_histograms, remove_empty_bins
from repro.exceptions import HistogramError, ValidationError


def line_metric(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


class TestExtensionConstruction:
    def test_masses_equalised(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        ext = build_extension([3.0, 0, 0, 0], [1.0, 1, 0, 0], d, clusters)
        assert ext.p_ext.sum() == pytest.approx(ext.q_ext.sum())
        assert ext.total_mass == pytest.approx(3.0)

    def test_bank_mass_proportional_to_cluster_mass(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        # Q lighter by 2; Q's mass is 3 in cluster 0, 1 in cluster 1.
        ext = build_extension([3.0, 3, 0, 0], [2.0, 1, 1, 0], d, clusters)
        q_banks = ext.q_ext[4:]
        assert q_banks[0] == pytest.approx(2 * 3 / 4)
        assert q_banks[1] == pytest.approx(2 * 1 / 4)

    def test_empty_lighter_histogram_uses_sizes(self):
        d = line_metric(4)
        clusters = [np.array([0]), np.array([1, 2, 3])]
        ext = build_extension([2.0, 2, 0, 0], [0.0, 0, 0, 0], d, clusters)
        q_banks = ext.q_ext[4:]
        assert q_banks[0] == pytest.approx(4 * 1 / 4)
        assert q_banks[1] == pytest.approx(4 * 3 / 4)

    def test_equal_masses_zero_banks(self):
        d = line_metric(3)
        ext = build_extension([1.0, 0, 1], [0.0, 1, 1], d)
        assert np.all(ext.p_ext[3:] == 0)
        assert np.all(ext.q_ext[3:] == 0)

    def test_multiple_banks_split_capacity(self):
        d = line_metric(2)
        ext = build_extension([2.0, 0], [0.0, 0], d, n_banks=2, gammas=1.0)
        assert ext.q_ext[2:].tolist() == [1.0, 1.0]

    def test_extended_distance_bank_diagonal_zero(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        ext = build_extension([1.0, 0, 0, 0], [0.0, 0, 1, 0], d, clusters)
        banks = slice(4, None)
        assert np.allclose(np.diag(ext.d_ext[banks, banks]), 0.0)

    def test_cluster_metric_matches_eq4(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        gammas = [np.array([2.0]), np.array([3.0])]
        ext = build_extension(
            [1.0, 0, 0, 0], [0.0, 0, 1, 0], d, clusters, gammas,
            bank_metric="cluster",
        )
        inter = cluster_distance_matrix(d, clusters)
        # bin 0 (cluster 0) -> bank of cluster 1: gamma_1 + d[0, 1].
        assert ext.d_ext[0, 5] == pytest.approx(3.0 + inter[0, 1])
        # bin 0 -> own cluster's bank: just gamma_0.
        assert ext.d_ext[0, 4] == pytest.approx(2.0)

    def test_nearest_metric_uses_member_distances(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        gammas = [np.array([2.0]), np.array([3.0])]
        ext = build_extension(
            [1.0, 0, 0, 0], [0.0, 0, 1, 0], d, clusters, gammas,
            bank_metric="nearest",
        )
        # bin 0 -> bank of cluster 1: gamma_1 + min(d[0,2], d[0,3]) = 3 + 2.
        assert ext.d_ext[0, 5] == pytest.approx(5.0)
        # bin 1 -> bank of cluster 1: gamma_1 + d[1,2] = 3 + 1.
        assert ext.d_ext[1, 5] == pytest.approx(4.0)

    def test_invalid_bank_metric(self):
        with pytest.raises(ValidationError):
            build_extension([1.0], [1.0], np.zeros((1, 1)), bank_metric="bogus")

    def test_bad_partition_rejected(self):
        d = line_metric(3)
        with pytest.raises(Exception):
            build_extension([1.0, 0, 0], [0.0, 1, 0], d, [np.array([0, 1])])

    def test_gamma_count_mismatch_rejected(self):
        d = line_metric(2)
        with pytest.raises(ValidationError):
            build_extension(
                [1.0, 0], [0.0, 1], d,
                [np.array([0]), np.array([1])],
                gammas=[np.array([1.0])],
            )


class TestClusterDistances:
    def test_min_over_blocks(self):
        d = line_metric(4)
        clusters = [np.array([0, 1]), np.array([2, 3])]
        inter = cluster_distance_matrix(d, clusters)
        assert inter[0, 1] == 1.0  # |1 - 2|
        assert inter[0, 0] == 0.0

    def test_metric_gammas_threshold(self):
        d = line_metric(4)
        clusters = [np.array([0, 3]), np.array([1, 2])]
        gammas = metric_gammas(d, clusters)
        assert gammas[0][0] == pytest.approx(1.5)  # half of |0-3|
        assert gammas[1][0] == pytest.approx(0.5)


class TestEmdStarValues:
    def test_identical_zero(self):
        d = line_metric(3)
        assert emd_star([1.0, 2, 0], [1.0, 2, 0], d) == pytest.approx(0.0)

    def test_equal_mass_reduces_to_transport(self):
        d = line_metric(2)
        # Equal masses: banks are empty, EMD* = raw EMD cost.
        assert emd_star([1.0, 0], [0.0, 1], d) == pytest.approx(1.0)

    def test_mismatch_charges_bank_cost(self):
        d = line_metric(2)
        value = emd_star([1.0, 0], [0.0, 0], d, gammas=2.5)
        assert value == pytest.approx(2.5)  # one unit into the bank

    def test_zero_histograms(self):
        d = line_metric(2)
        assert emd_star([0.0, 0], [0.0, 0], d) == 0.0

    def test_solver_methods_agree(self, rng):
        d = line_metric(5)
        clusters = [np.array([0, 1, 2]), np.array([3, 4])]
        p = rng.integers(0, 5, 5).astype(float)
        q = rng.integers(0, 5, 5).astype(float)
        vals = [
            emd_star(p, q, d, clusters, method=m) for m in ("ssp", "network-simplex", "lp")
        ]
        assert vals[0] == pytest.approx(vals[1], abs=1e-7)
        assert vals[0] == pytest.approx(vals[2], abs=1e-7)


class TestFig5Intuition:
    """The paper's Fig. 5: EMD* prefers propagated over random extra mass;
    EMDα / EMD̂ cannot tell them apart; plain EMD sees no difference at all."""

    def build(self):
        # Two clusters of 4 bins on a line, joined by one "bridge" gap.
        # Bins 0-3 are cluster C1, bins 4-7 cluster C2; the bridge sits
        # between bins 3 and 4.
        n = 8
        d = line_metric(n)
        clusters = [np.arange(0, 4), np.arange(4, 8)]
        g1 = np.array([1.0, 1, 1, 1, 0, 0, 0, 0])
        g2 = g1.copy()
        g2[4] = 2.0  # extra mass right behind the bridge (propagated)
        g3 = g1.copy()
        g3[7] = 2.0  # same extra mass, far corner (random placement)
        return d, clusters, g1, g2, g3

    def test_emd_star_orders_by_plausibility(self):
        d, clusters, g1, g2, g3 = self.build()
        near = emd_star(g1, g2, d, clusters)
        far = emd_star(g1, g3, d, clusters)
        assert near < far

    def test_emd_alpha_and_hat_equidistant(self):
        from repro.emd.emd_alpha import emd_alpha
        from repro.emd.emd_hat import emd_hat

        d, _, g1, g2, g3 = self.build()
        assert emd_alpha(g1, g2, d) == pytest.approx(emd_alpha(g1, g3, d), abs=1e-7)
        assert emd_hat(g1, g2, d) == pytest.approx(emd_hat(g1, g3, d), abs=1e-7)

    def test_plain_emd_blind(self):
        from repro.emd.base import emd

        d, _, g1, g2, g3 = self.build()
        assert emd(g1, g2, d) == pytest.approx(0.0, abs=1e-9)
        assert emd(g1, g3, d) == pytest.approx(0.0, abs=1e-9)


class TestTheorem3Metricity:
    """Metric properties of EMD*.

    The *size-share* variant (partner-independent bank capacities) is
    provably metric with nearest-member bank distances and threshold
    gammas; we property-test it. The paper's *mass-share* variant is NOT
    (its extension depends on the comparison pair, a gap in the Theorem 3
    proof) — we pin a concrete counterexample.
    """

    @pytest.fixture
    def instance(self, rng):
        n = 6
        d = line_metric(n)
        clusters = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        gammas = metric_gammas(d, clusters)  # exactly at the threshold

        def hist():
            return rng.integers(0, 4, n).astype(float)

        return d, clusters, gammas, hist

    def test_symmetry(self, instance):
        d, clusters, gammas, hist = instance
        for _ in range(8):
            p, q = hist(), hist()
            for shares in ("mass", "size"):
                ab = emd_star(p, q, d, clusters, gammas, bank_shares=shares)
                ba = emd_star(q, p, d, clusters, gammas, bank_shares=shares)
                assert ab == pytest.approx(ba, abs=1e-7)

    def test_identity(self, instance):
        d, clusters, gammas, hist = instance
        p = hist()
        assert emd_star(p, p, d, clusters, gammas) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_triangle_inequality_size_shares(self, seed):
        d = line_metric(6)
        clusters = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        gammas = metric_gammas(d, clusters)
        rng = np.random.default_rng(seed)
        p = rng.integers(0, 4, 6).astype(float)
        q = rng.integers(0, 4, 6).astype(float)
        r = rng.integers(0, 4, 6).astype(float)
        kwargs = dict(bank_shares="size")
        pq = emd_star(p, q, d, clusters, gammas, **kwargs)
        qr = emd_star(q, r, d, clusters, gammas, **kwargs)
        pr = emd_star(p, r, d, clusters, gammas, **kwargs)
        assert pr <= pq + qr + 1e-6

    def test_mass_shares_triangle_counterexample(self):
        """The pair-dependent mass-share capacities break the triangle
        inequality (found by the property test; pinned here as documented
        evidence of the Theorem 3 proof gap)."""
        # Literal seed on purpose: this pins one concrete violating
        # instance, so it must NOT follow the per-nodeid `rng` fixture.
        rng = np.random.default_rng(1995)
        d = line_metric(6)
        clusters = [np.array([0, 1, 2]), np.array([3, 4, 5])]
        gammas = metric_gammas(d, clusters)
        p = rng.integers(0, 4, 6).astype(float)
        q = rng.integers(0, 4, 6).astype(float)
        r = rng.integers(0, 4, 6).astype(float)
        kwargs = dict(bank_shares="mass")
        pq = emd_star(p, q, d, clusters, gammas, **kwargs)
        qr = emd_star(q, r, d, clusters, gammas, **kwargs)
        pr = emd_star(p, r, d, clusters, gammas, **kwargs)
        assert pr > pq + qr + 1e-6  # the violation is real


class TestReductionLemmas:
    def test_cancel_common_mass(self):
        p, q = cancel_common_mass([3.0, 1, 0], [1.0, 1, 2])
        assert p.tolist() == [2.0, 0, 0]
        assert q.tolist() == [0.0, 0, 2]

    def test_cancel_requires_same_bins(self):
        with pytest.raises(HistogramError):
            cancel_common_mass([1.0], [1.0, 2.0])

    def test_remove_empty_bins(self):
        p = np.array([2.0, 0, 1])
        q = np.array([0.0, 3, 0])
        d = line_metric(3)
        p_r, q_r, d_r, sup, con = remove_empty_bins(p, q, d)
        assert p_r.tolist() == [2.0, 1.0]
        assert q_r.tolist() == [3.0]
        assert sup.tolist() == [0, 2]
        assert con.tolist() == [1]
        assert d_r.shape == (2, 1)
        assert d_r[0, 0] == d[0, 1]

    def test_lemma2_equal_mass_exact(self, rng):
        """With equal total masses (no banks in play), cancelling common
        mass leaves EMD* unchanged — the pure Lemma 2 statement over a
        semimetric ground distance."""
        d = line_metric(5)
        clusters = [np.array([0, 1]), np.array([2, 3, 4])]
        for _ in range(10):
            p = rng.integers(0, 5, 5).astype(float)
            q = rng.permutation(p)  # same multiset -> equal total mass
            p_c, q_c = cancel_common_mass(p, q)
            full = emd_star(p, q, d, clusters)
            reduced = emd_star(p_c, q_c, d, clusters)
            assert reduced == pytest.approx(full, abs=1e-7)

    def test_reduce_histograms_composition(self):
        p = np.array([2.0, 1, 0, 4])
        q = np.array([2.0, 3, 1, 0])
        d = line_metric(4)
        p_r, q_r, d_r, sup, con = reduce_histograms(p, q, d)
        assert sup.tolist() == [3]
        assert sorted(con.tolist()) == [1, 2]
        assert np.all(p_r > 0) and np.all(q_r > 0)
