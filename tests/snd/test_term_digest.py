"""Bitwise digest of fast EMD* terms over every solver, bank option and
orientation.

Each case (solver x bank metric x share rule x banks per cluster) runs a
fixed list of terms twice: cold, and with a Dijkstra row cache and a basis
cache threaded through, so warm starts from the exact, reverse and
same-supplier channels are exercised. The terms cover every orientation
of the reduced instance:

- 0/1 states through :meth:`SND.term`: deficit on the supplier side, on
  the consumer side, and equal totals;
- fractional histograms through :func:`emd_star_term_fast`: zero deficit
  with either side smaller (0/1 states with equal totals always have
  equal sides), a deficit on either side, an empty side and identical
  histograms.

Per term the record is ``float.hex`` of the value and of ``stats.cost``,
the supplier / consumer / Dijkstra / cluster-run counters, the pivots,
the warm flag and the resolved solver; one sha256 over a case's records
is pinned below. A change to the term pipeline that moves any value bit,
counter or pivot changes a digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.opinions.models.model_agnostic import ModelAgnostic
from repro.opinions.state import NEGATIVE, POSITIVE, NetworkState
from repro.snd import SND, allocate_banks
from repro.snd.cache import BasisCache, DijkstraRowCache, GroundCostCache
from repro.snd.fast import SOLVER_CHOICES, FastTermStats, emd_star_term_fast
from repro.snd.ground import build_edge_costs

N = 24

STATES = {
    "s0": NetworkState.from_active_sets(N, positive=range(0, 6), negative=range(10, 14)),
    # more positive, fewer negative adopters than s0
    "s1": NetworkState.from_active_sets(N, positive=range(2, 10), negative=[12, 13]),
    "s2": NetworkState.from_active_sets(
        N, positive=[0, 3, 4, 5, 6], negative=range(10, 14)
    ),
    # same totals as s0 on both opinions
    "s3": NetworkState.from_active_sets(
        N, positive=range(1, 7), negative=[10, 11, 14, 15]
    ),
}

#: (supplier, consumer) state pairs; each runs at both opinions. Repeats
#: and reversals hit the basis cache's exact and reverse channels, and a
#: shared supplier its same-supplier channel.
STATE_TERMS = [
    ("s0", "s1"), ("s1", "s0"), ("s0", "s3"), ("s3", "s0"),
    ("s0", "s2"), ("s1", "s2"), ("s0", "s1"),
]


def _hist(pairs) -> np.ndarray:
    h = np.zeros(N)
    for node, mass in pairs:
        h[node] = mass
    return h


def _fractional_hists() -> dict[str, np.ndarray]:
    # Dyadic masses keep every total exact, so equal totals mean a zero
    # deficit bit for bit.
    hists = {
        "f_wide": _hist([(0, 0.5), (1, 0.5), (2, 1.0)]),
        "f_narrow": _hist([(2, 1.0), (3, 1.0)]),
        "f_heavy": _hist([(0, 0.75), (4, 0.5), (7, 0.25)]),
        "f_light": _hist([(5, 0.25), (7, 0.25)]),
        "f_empty": np.zeros(N),
    }
    rng = np.random.default_rng(7)
    for i in range(3):
        p = rng.integers(1, 4, N) / 4 * (rng.random(N) < 0.35)
        hists[f"f_r{i}"] = p
        hists[f"f_r{i}_perm"] = rng.permutation(p)  # same total
    return hists


FRACTIONAL = _fractional_hists()

#: (supplier histogram, consumer histogram) for the fractional terms.
FRACTIONAL_TERMS = [
    ("f_wide", "f_narrow"),  # zero deficit, more suppliers
    ("f_narrow", "f_wide"),  # zero deficit, more consumers
    ("f_heavy", "f_light"),  # banks on the consumer side
    ("f_light", "f_heavy"),  # banks on the supplier side
    ("f_empty", "f_light"),  # no suppliers at all
    ("f_heavy", "f_empty"),  # no consumers at all
    ("f_light", "f_light"),  # identical
    ("f_r0", "f_r0_perm"), ("f_r0_perm", "f_r0"),
    ("f_r1", "f_r1_perm"), ("f_r2", "f_r2_perm"),
    ("f_r1", "f_r2"), ("f_r2", "f_r1"),
    ("f_wide", "f_narrow"),  # exact-channel repeat
]

GRAPH = erdos_renyi_graph(N, 0.18, seed=11, directed=True)


def _record(value: float, stats: FastTermStats) -> tuple:
    return (
        float(value).hex(), float(stats.cost).hex(), stats.n_suppliers,
        stats.n_consumers, stats.n_sssp_runs, stats.n_cluster_runs,
        stats.pivots, stats.warm_start, stats.solver,
    )


def case_records(solver, bank_metric, bank_shares, n_banks) -> list[tuple]:
    """Every term record of one case, cold run first, then cached."""
    banks = allocate_banks(GRAPH, n_clusters=3, n_banks=n_banks, seed=0)
    snd = SND(
        GRAPH, banks=banks, solver=solver,
        bank_metric=bank_metric, bank_shares=bank_shares,
    )
    frac_costs = build_edge_costs(GRAPH, STATES["s0"], POSITIVE, ModelAgnostic())
    records = []
    for cached in (False, True):
        rows = DijkstraRowCache() if cached else None
        bases = BasisCache() if cached else None
        for sup, con in STATE_TERMS:
            a, b = STATES[sup], STATES[con]
            fp_a, fp_b = GroundCostCache.fingerprint(a), GroundCostCache.fingerprint(b)
            for opinion in (POSITIVE, NEGATIVE):
                stats = FastTermStats()
                kwargs = {}
                if cached:
                    kwargs = dict(
                        row_cache=rows, cost_key=(fp_a, opinion),
                        basis_cache=bases, basis_key=(fp_a, fp_b, opinion),
                    )
                value = snd.term(a, b, opinion, stats=stats, **kwargs)
                records.append(_record(value, stats))
        for sup, con in FRACTIONAL_TERMS:
            stats = FastTermStats()
            kwargs = {}
            if cached:
                kwargs = dict(
                    row_cache=rows, cost_key=("frac", POSITIVE),
                    basis_cache=bases, basis_key=(sup, con, POSITIVE),
                )
            value = emd_star_term_fast(
                GRAPH, FRACTIONAL[sup], FRACTIONAL[con], frac_costs, banks,
                max_cost=snd.ground.max_cost, solver=solver,
                bank_metric=bank_metric, bank_shares=bank_shares,
                stats=stats, **kwargs,
            )
            records.append(_record(value, stats))
    return records


def case_digest(*case) -> str:
    return hashlib.sha256(repr(case_records(*case)).encode()).hexdigest()[:16]


CASES = [
    (solver, metric, shares, nb)
    for solver in SOLVER_CHOICES
    for metric in ("nearest", "cluster")
    for shares in ("mass", "size")
    for nb in (1, 3)
]

#: sha256 prefix of each case's records.
EXPECTED = {
    "auto-nearest-mass-1": "fbdd6d1bd9849122",
    "auto-nearest-mass-3": "49bfd748388b6430",
    "auto-nearest-size-1": "5bc502b4165b842f",
    "auto-nearest-size-3": "88552c1beebb1e3a",
    "auto-cluster-mass-1": "a5455ece7e45a3dd",
    "auto-cluster-mass-3": "2fd2581de5352c4b",
    "auto-cluster-size-1": "ba47882427bc0585",
    "auto-cluster-size-3": "d911a5bf8cb84973",
    "ssp-nearest-mass-1": "82706dcdb01dc471",
    "ssp-nearest-mass-3": "09278dbab0050caa",
    "ssp-nearest-size-1": "95b557e2812730ef",
    "ssp-nearest-size-3": "474150414180565d",
    "ssp-cluster-mass-1": "ebef1921d83c679c",
    "ssp-cluster-mass-3": "0cee5a9cd4b3b53d",
    "ssp-cluster-size-1": "e4ff05b7ecb6b59f",
    "ssp-cluster-size-3": "102b7c112a96ed0d",
    "lp-nearest-mass-1": "a1a83bbccd754b98",
    "lp-nearest-mass-3": "ded758c870a1708f",
    "lp-nearest-size-1": "79412f4739ba88bb",
    "lp-nearest-size-3": "2f7ce5cd550c6707",
    "lp-cluster-mass-1": "eac5b0d191c90465",
    "lp-cluster-mass-3": "75e15b48f1a241c3",
    "lp-cluster-size-1": "a2a700ed98bfe2ac",
    "lp-cluster-size-3": "0c80c86eb40e51e6",
    "network-simplex-nearest-mass-1": "fbdd6d1bd9849122",
    "network-simplex-nearest-mass-3": "49bfd748388b6430",
    "network-simplex-nearest-size-1": "5bc502b4165b842f",
    "network-simplex-nearest-size-3": "88552c1beebb1e3a",
    "network-simplex-cluster-mass-1": "a5455ece7e45a3dd",
    "network-simplex-cluster-mass-3": "2fd2581de5352c4b",
    "network-simplex-cluster-size-1": "ba47882427bc0585",
    "network-simplex-cluster-size-3": "d911a5bf8cb84973",
}


def _case_id(case) -> str:
    return "-".join(str(part) for part in case)


def test_grid_covers_every_orientation():
    """The term lists reach all four orientations of a reduced instance
    (the fingerprint over them would not notice if they stopped)."""
    seen = set()
    for sup, con in FRACTIONAL_TERMS:
        p, q = FRACTIONAL[sup], FRACTIONAL[con]
        common = np.minimum(p, q)
        n_sup = np.count_nonzero(p - common > 1e-12)
        n_con = np.count_nonzero(q - common > 1e-12)
        if p.sum() == q.sum():
            seen.add("even-fewer-suppliers" if n_sup < n_con else
                     "even-more-suppliers" if n_sup > n_con else "even")
        else:
            seen.add("banks-on-consumers" if p.sum() > q.sum() else "banks-on-suppliers")
    assert {
        "even-fewer-suppliers", "even-more-suppliers",
        "banks-on-consumers", "banks-on-suppliers",
    } <= seen


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_term_digest(case):
    assert case_digest(*case) == EXPECTED[_case_id(case)]
