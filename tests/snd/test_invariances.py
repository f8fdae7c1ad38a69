"""Semantic invariances of SND beyond fast==direct.

These pin down properties a user of the measure relies on implicitly:
polarity symmetry (relabelling "+" <-> "-" globally cannot change the
distance), locality (distant unchanged users do not affect the value),
and monotone response to the γ sensitivity knob.
"""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.opinions.state import NetworkState
from repro.snd import SND, allocate_banks
from repro.snd.banks import BankAllocation


def flip(state: NetworkState) -> NetworkState:
    """Global polarity relabelling."""
    return NetworkState((-state.values).astype(np.int8))


class TestPolaritySymmetry:
    @pytest.mark.parametrize("seed", range(4))
    def test_global_flip_invariance(self, seed):
        """SND(a, b) == SND(flip(a), flip(b)): the two polarities are
        treated identically by construction (Eq. 3 sums both)."""
        rng = np.random.default_rng(seed)
        n = 25
        g = erdos_renyi_graph(n, 0.2, seed=seed)
        banks = allocate_banks(g, n_clusters=3, seed=0)
        snd = SND(g, banks=banks)
        a = NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n))
        b = NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n))
        assert snd.distance(a, b) == pytest.approx(
            snd.distance(flip(a), flip(b)), abs=1e-9
        )

    def test_single_polarity_equals_mirror(self):
        g = erdos_renyi_graph(20, 0.25, seed=1)
        banks = allocate_banks(g, n_clusters=2, seed=0)
        snd = SND(g, banks=banks)
        a_pos = NetworkState.from_active_sets(20, positive=[0, 1])
        b_pos = NetworkState.from_active_sets(20, positive=[2, 3])
        a_neg = NetworkState.from_active_sets(20, negative=[0, 1])
        b_neg = NetworkState.from_active_sets(20, negative=[2, 3])
        assert snd.distance(a_pos, b_pos) == pytest.approx(
            snd.distance(a_neg, b_neg), abs=1e-9
        )


class TestLocality:
    def test_far_unchanged_users_do_not_matter(self):
        """Adding identical opinion mass to both states in a disconnected
        region leaves the distance unchanged (Lemmas 1-2 in action)."""
        # Component A: nodes 0-9 (ring); component B: nodes 10-19 (ring).
        edges = [(i, (i + 1) % 10) for i in range(10)]
        edges += [(10 + i, 10 + (i + 1) % 10) for i in range(10)]
        g = DiGraph.from_undirected_edges(20, edges)
        banks = allocate_banks(g, strategy="per-bin", seed=0)
        snd = SND(g, banks=banks)
        a = NetworkState.from_active_sets(20, positive=[0])
        b = NetworkState.from_active_sets(20, positive=[1])
        base = snd.distance(a, b)
        # Same comparison with identical extra '-' mass parked far away.
        a2 = a.with_opinions([15, 16], -1)
        b2 = b.with_opinions([15, 16], -1)
        assert snd.distance(a2, b2) == pytest.approx(base, abs=1e-9)

    def test_value_independent_of_inactive_relabeling(self):
        """Changed-user identities matter, unchanged neutral ones don't:
        evaluating on a graph with extra isolated neutral nodes shifts
        nothing but the bank normalisation (checked with per-bin banks,
        whose capacities don't depend on cluster sizes)."""
        g_small = DiGraph.from_undirected_edges(6, [(i, i + 1) for i in range(5)])
        g_big = DiGraph.from_undirected_edges(9, [(i, i + 1) for i in range(5)])
        banks_small = allocate_banks(g_small, strategy="per-bin", gamma=2.0)
        banks_big = allocate_banks(g_big, strategy="per-bin", gamma=2.0)
        a_small = NetworkState.from_active_sets(6, positive=[0, 2])
        b_small = NetworkState.from_active_sets(6, positive=[1, 2])
        a_big = NetworkState.from_active_sets(9, positive=[0, 2])
        b_big = NetworkState.from_active_sets(9, positive=[1, 2])
        d_small = SND(g_small, banks=banks_small).distance(a_small, b_small)
        d_big = SND(g_big, banks=banks_big).distance(a_big, b_big)
        assert d_small == pytest.approx(d_big, abs=1e-9)


class TestGammaResponse:
    def test_mismatch_cost_monotone_in_gamma(self):
        """Pure activations route through banks, so scaling γ up scales the
        distance up (monotonicity of the sensitivity knob)."""
        g = erdos_renyi_graph(20, 0.25, seed=2)
        base_banks = allocate_banks(g, n_clusters=2, hop_cost=1.0, seed=0)
        a = NetworkState.from_active_sets(20, positive=[0])
        b = NetworkState.from_active_sets(20, positive=[0, 5, 7])
        values = []
        for scale in (0.5, 1.0, 2.0):
            banks = BankAllocation(
                clusters=base_banks.clusters,
                gammas=tuple(np.asarray(gam) * scale for gam in base_banks.gammas),
                n_banks=1,
            )
            values.append(SND(g, banks=banks).distance(a, b))
        assert values[0] < values[1] < values[2]

    def test_equal_mass_insensitive_to_gamma(self):
        """With equal totals no bank is used; γ must not matter."""
        g = erdos_renyi_graph(20, 0.25, seed=3)
        base_banks = allocate_banks(g, n_clusters=2, hop_cost=1.0, seed=0)
        a = NetworkState.from_active_sets(20, positive=[0, 1])
        b = NetworkState.from_active_sets(20, positive=[2, 3])
        values = []
        for scale in (0.5, 2.0):
            banks = BankAllocation(
                clusters=base_banks.clusters,
                gammas=tuple(np.asarray(gam) * scale for gam in base_banks.gammas),
                n_banks=1,
            )
            values.append(SND(g, banks=banks).distance(a, b))
        assert values[0] == pytest.approx(values[1], abs=1e-9)


class TestSeriesBehaviour:
    def test_triangle_inequality_with_size_shares(self, rng):
        """SND with size-proportional bank shares inherits EMD*'s metric
        triangle inequality (random triples)."""
        n = 20
        g = erdos_renyi_graph(n, 0.25, seed=4)
        banks = allocate_banks(g, n_clusters=2, seed=0)
        snd = SND(g, banks=banks, bank_shares="size")
        for _ in range(6):
            states = [
                NetworkState(rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n))
                for _ in range(3)
            ]
            ab = snd.distance(states[0], states[1])
            bc = snd.distance(states[1], states[2])
            ac = snd.distance(states[0], states[2])
            # NOTE: Eq. 3 rebuilds the ground distance from each pair's own
            # states, so even the size-share variant is only approximately
            # triangle-consistent across pairs; allow a 5% slack.
            assert ac <= (ab + bc) * 1.05 + 1e-9

    def test_default_mass_shares_triangle_counterexample(self):
        """Under the defaults (``bank_shares="mass"``) SND is not a metric:
        this triple breaks the triangle inequality by 6% (found by a random
        probe; pinned as the evidence behind the metric-space docstring).
        The same triple under ``"size"`` shares keeps it."""
        # Literal states on purpose: this pins one concrete violating
        # instance, so it must NOT follow the per-nodeid `rng` fixture.
        g = erdos_renyi_graph(30, 0.15, seed=2)
        a, b, c = (
            NetworkState(np.array(values, dtype=np.int8))
            for values in (
                [0, 0, 1, 0, -1, -1, -1, -1, 0, -1, 0, 1, 0, 0, -1,
                 1, -1, 1, 0, 0, 1, 1, 1, 0, -1, 1, 1, 0, 0, -1],
                [1, -1, 0, -1, 1, 0, -1, -1, -1, -1, 1, 1, 0, -1, -1,
                 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, -1, 0, 1, 0],
                [-1, 0, 0, 1, 0, -1, -1, 1, 1, 0, -1, -1, 1, -1, 0,
                 1, -1, 1, -1, -1, -1, -1, 0, -1, 0, 1, 0, -1, 1, -1],
            )
        )
        snd = SND(g, n_clusters=3, seed=0)
        assert snd.bank_shares == "mass"
        ab, bc, ac = snd.distance(a, b), snd.distance(b, c), snd.distance(a, c)
        assert ac > 1.05 * (ab + bc)  # the violation is real
        sized = SND(g, banks=snd.banks, bank_shares="size")
        assert sized.distance(a, c) <= sized.distance(a, b) + sized.distance(b, c)
