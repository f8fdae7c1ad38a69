"""Persistent-engine benchmark — pool persistence + incremental extension.

Measures the two levers PR 3 adds over the PR-2 batch layer, writing
``benchmarks/BENCH_engine.json``:

1. **Persistent vs per-call pool.** ``R`` repeated sweeps of the same
   series through (a) the batch wrapper with ``jobs=J`` — the PR-2 path,
   which launches a fresh process pool (and re-pickles the SND instance)
   on every call — and (b) one long-lived :class:`~repro.snd.SNDEngine`
   whose workers attach once to the shared-memory state matrix
   (``pool_starts == 1`` is asserted). Also records ``jobs="auto"``
   (which resolves to serial on single-CPU hosts, so the engine is never
   slower than serial there) against the serial sweep.
2. **Incremental vs from-scratch corpus extension.** Appending ``k``
   states to an ``N``-state :class:`~repro.snd.Corpus` must solve exactly
   ``k·N + k·(k-1)/2`` fresh pairs (counter-asserted through the
   :class:`~repro.snd.TransitionCache`) and produce a matrix bit-identical
   to the from-scratch ``(N+k)``-state sweep.
3. **Warm-started network simplex.** A flare-return series (baseline
   state, recurring flare perturbations around it — the paper's
   stationary-background regime) swept with ``solver="network-simplex"``
   twice: cold (``use_basis_cache=False``) and warm (the engine threads
   its :class:`~repro.snd.cache.BasisCache` into every term). Pivots per
   solve come from ``engine.stats()["network_simplex"]`` deltas around
   each timed region; the warm sweep must cut them by >= 2x on both the
   windowed sweep and a corpus append, with values identical to 1e-9,
   and must not slow either below 0.8x the cold wall clock. Each cold and
   warm region is timed as the fastest of ``REPEATS`` fresh-engine runs,
   cold and warm runs alternating.

The engine's unified cache-hierarchy counters
(:meth:`~repro.snd.CacheManager.stats`) are embedded in the JSON.
``--quick`` shrinks the workload for CI (same assertions, smaller graph).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from common import print_table, record
from repro.graph.generators import powerlaw_configuration_graph
from repro.opinions.dynamics import generate_series
from repro.opinions.state import NetworkState, StateSeries
from repro.snd import SND, Corpus, SNDEngine

JSON_PATH = Path(__file__).parent / "BENCH_engine.json"

#: Full scale mirrors the CLI ``generate`` defaults (the acceptance
#: workload of BENCH_batch_series); quick scale keeps CI under a minute.
FULL = {
    "n_nodes": 2000, "n_states": 12, "n_seeds": 100, "corpus_base": 8, "k": 2,
    "sweeps": 3,
    "flare": {"n_base": 100, "n_dropped": 20, "n_core": 15, "n_drift": 2,
              "n_flares": 10, "corpus_base": 6, "corpus_ext": 3},
}
QUICK = {
    "n_nodes": 400, "n_states": 8, "n_seeds": 30, "corpus_base": 6, "k": 2,
    "sweeps": 3,
    "flare": {"n_base": 30, "n_dropped": 5, "n_core": 6, "n_drift": 1,
              "n_flares": 8, "corpus_base": 5, "corpus_ext": 2},
}


def _dataset(cfg):
    graph = powerlaw_configuration_graph(cfg["n_nodes"], -2.3, k_min=2, seed=0)
    series = generate_series(
        graph,
        cfg["n_states"],
        n_seeds=cfg["n_seeds"],
        p_nbr=0.10,
        p_ext=0.01,
        candidate_fraction=0.05,
        seed=0,
    )
    return graph, series


def _snd(graph) -> SND:
    return SND(graph, n_clusters=24, seed=0)


def _distinct_states(series, count):
    """The first *count* series states, nudged until pairwise-distinct.

    The transition cache is content-keyed, so duplicate states would let
    the incremental extension answer some "new" pairs from the cache —
    legitimate reuse, but it would blur the exact ``k·N + k·(k-1)/2``
    counter assertion this benchmark exists to make.
    """
    states, seen = [], set()
    for s in list(series)[:count]:
        user = 0
        while s.values.tobytes() in seen:
            s = s.with_opinions([user], 1 if s[user] != 1 else -1)
            user += 1
        seen.add(s.values.tobytes())
        states.append(s)
    return states


def _flare_states(graph, fc, seed=1):
    """Baseline state plus recurring flare perturbations around it.

    Each flare silences a fixed slice of baseline adopters, ignites a
    fixed core, and adds a per-flare drifting fringe — so consecutive
    reduced instances (Lemma 2 cancels the common mass) share most of
    their surplus labels. That is the temporal-locality regime the basis
    cache exists for: exact hits on recurring transitions, reverse hits
    on the opposite term order, supplier hits across the drifting fringe.
    """
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    nb, nc, nd = fc["n_base"], fc["n_core"], fc["n_drift"]
    base_pos = sorted(nodes[:nb].tolist())
    base_neg = sorted(nodes[nb:2 * nb].tolist())
    dropped = set(base_pos[:fc["n_dropped"]])
    core_pos = sorted(nodes[2 * nb:2 * nb + nc].tolist())
    core_neg = sorted(nodes[2 * nb + nc:2 * nb + 2 * nc].tolist())
    drift = nodes[2 * nb + 2 * nc:].tolist()

    baseline = NetworkState.from_active_sets(
        n, positive=base_pos, negative=base_neg
    )

    def flare(t):
        lo = 2 * nd * t
        return NetworkState.from_active_sets(
            n,
            positive=[u for u in base_pos if u not in dropped]
            + core_pos + drift[lo:lo + nd],
            negative=base_neg + core_neg + drift[lo + nd:lo + 2 * nd],
        )

    return baseline, [flare(t) for t in range(fc["n_flares"])]


#: Fresh-engine repetitions of each timed cold and warm region; a region
#: reports its fastest run, so one slow run of a ~20 ms region on a busy
#: host cannot decide the wall-clock gate.
REPEATS = 3


def _fastest_cold_warm(run):
    """``(cold, warm)``: the fastest of ``REPEATS`` results of
    ``run(False)`` and of ``run(True)``, each result ``(values, seconds,
    ...)``. Every call builds a fresh engine, so the counters of each
    repetition are the same; cold and warm runs alternate, so a burst of
    host load slows both sides alike."""
    runs = [(run(False), run(True)) for _ in range(REPEATS)]
    return tuple(min(side, key=lambda result: result[1]) for side in zip(*runs))


def _pivot_stats(engine, before=None):
    """The engine's network-simplex counts since *before* (an earlier
    ``engine.stats()["network_simplex"]``; ``None``: since it started)."""
    after = engine.stats()["network_simplex"]
    before = before or dict.fromkeys(after, 0)
    d = {
        k: after[k] - before[k]
        for k in ("solves", "cold_solves", "warm_solves", "cold_pivots",
                  "warm_pivots")
    }
    d["pivots_per_solve"] = round(
        (d["cold_pivots"] + d["warm_pivots"]) / max(d["solves"], 1), 3
    )
    return d


def _network_simplex_section(graph, cfg, verbose):
    """Cold vs warm network-simplex sweeps; returns (results, table rows)."""
    fc = cfg["flare"]
    baseline, flares = _flare_states(graph, fc)
    series = StateSeries(
        [baseline] + [s for f in flares for s in (f, baseline)]
    )
    nb_corpus = fc["corpus_base"] + fc["corpus_ext"]
    corpus_states = ([baseline] + flares)[:nb_corpus]
    base_states = corpus_states[:fc["corpus_base"]]
    ext_states = corpus_states[fc["corpus_base"]:]

    def ns_engine(use_basis):
        snd = SND(graph, n_clusters=24, seed=0, solver="network-simplex")
        # Serial: a worker's basis store warms only the solves sent to it,
        # so a pool would measure a different warm-start rate.
        return SNDEngine(snd, jobs=None, use_basis_cache=use_basis)

    def sweep(use_basis):
        with ns_engine(use_basis) as engine:
            t0 = time.perf_counter()
            values = engine.evaluate_series(series)
            dt = time.perf_counter() - t0
            stats = _pivot_stats(engine)
            bases = engine.stats()["caches"]["bases"]
        return values, dt, stats, bases

    def append(use_basis):
        with ns_engine(use_basis) as engine:
            corpus = Corpus(engine, base_states)  # untimed priming
            before = engine.stats()["network_simplex"]
            t0 = time.perf_counter()
            matrix = corpus.extend(ext_states)
            dt = time.perf_counter() - t0
            stats = _pivot_stats(engine, before)
            bases = engine.stats()["caches"]["bases"]
        return matrix, dt, stats, bases

    (v_cold, t_cold, sweep_cold, _), (v_warm, t_warm, sweep_warm, sweep_bases) = (
        _fastest_cold_warm(sweep)
    )
    assert np.allclose(v_cold, v_warm, atol=1e-9), (
        "warm-started sweep deviates from the cold network-simplex sweep"
    )
    (m_cold, ta_cold, app_cold, _), (m_warm, ta_warm, app_warm, app_bases) = (
        _fastest_cold_warm(append)
    )
    assert np.allclose(m_cold, m_warm, atol=1e-9), (
        "warm-started corpus append deviates from the cold sweep"
    )

    def reduction(cold, warm):
        return round(cold["pivots_per_solve"] / max(warm["pivots_per_solve"], 1e-12), 3)

    results = {
        "solver": "network-simplex",
        "windowed_sweep": {
            "n_transitions": len(series) - 1,
            "cold": sweep_cold, "warm": sweep_warm,
            "cold_ms": round(t_cold * 1e3, 2),
            "warm_ms": round(t_warm * 1e3, 2),
            "pivot_reduction": reduction(sweep_cold, sweep_warm),
            "wall_speedup": round(t_cold / t_warm, 3),
            "basis_cache": sweep_bases,
        },
        "corpus_append": {
            "n_base": fc["corpus_base"], "k_appended": fc["corpus_ext"],
            "cold": app_cold, "warm": app_warm,
            "cold_ms": round(ta_cold * 1e3, 2),
            "warm_ms": round(ta_warm * 1e3, 2),
            "pivot_reduction": reduction(app_cold, app_warm),
            "wall_speedup": round(ta_cold / ta_warm, 3),
            "basis_cache": app_bases,
        },
    }
    for name in ("windowed_sweep", "corpus_append"):
        section = results[name]
        assert section["pivot_reduction"] >= 2.0, (
            f"warm start cut {name} pivots/solve only "
            f"{section['pivot_reduction']}x (need >= 2x)"
        )
        assert section["wall_speedup"] >= 0.8, (
            f"warm start slowed the {name} wall clock down "
            f"({section['wall_speedup']}x)"
        )
    rows = [
        [
            f"NS windowed sweep cold ({sweep_cold['pivots_per_solve']} pivots/solve)",
            results["windowed_sweep"]["cold_ms"], "-",
        ],
        [
            f"NS windowed sweep warm ({sweep_warm['pivots_per_solve']} pivots/solve)",
            results["windowed_sweep"]["warm_ms"],
            results["windowed_sweep"]["wall_speedup"],
        ],
        [
            f"NS corpus append cold ({app_cold['pivots_per_solve']} pivots/solve)",
            results["corpus_append"]["cold_ms"], "-",
        ],
        [
            f"NS corpus append warm ({app_warm['pivots_per_solve']} pivots/solve)",
            results["corpus_append"]["warm_ms"],
            results["corpus_append"]["wall_speedup"],
        ],
    ]
    return results, rows


def run_experiment(verbose: bool = True, quick: bool = False) -> dict:
    cfg = QUICK if quick else FULL
    graph, series = _dataset(cfg)
    jobs = max(2, min(4, os.cpu_count() or 1))
    sweeps = cfg["sweeps"]

    snd = _snd(graph)
    snd.distance(series[0], series[1])  # warm imports / module caches

    # --- serial baseline (one sweep) --------------------------------- #
    t0 = time.perf_counter()
    v_serial = snd.evaluate_series(series)
    t_serial = time.perf_counter() - t0

    # --- PR-2 per-call pool: R sweeps, one pool launch per sweep ----- #
    snd_percall = _snd(graph)
    snd_percall.distance(series[0], series[1])
    t0 = time.perf_counter()
    for _ in range(sweeps):
        v_percall = snd_percall.evaluate_series(series, jobs=jobs)
    t_percall = time.perf_counter() - t0

    # --- persistent engine: R sweeps, one pool launch total ---------- #
    with SNDEngine(_snd(graph), jobs=jobs) as engine:
        engine.snd.distance(series[0], series[1])
        t0 = time.perf_counter()
        for _ in range(sweeps):
            v_persistent = engine.evaluate_series(series)
        t_persistent = time.perf_counter() - t0
        pool_starts = engine.pool_starts
        engine_cache_stats = engine.stats()["caches"]
    assert pool_starts == 1, f"persistent pool launched {pool_starts} times"

    # --- jobs="auto": serial on 1-CPU hosts, pooled otherwise -------- #
    with SNDEngine(_snd(graph), jobs="auto") as engine_auto:
        engine_auto.snd.distance(series[0], series[1])
        t0 = time.perf_counter()
        v_auto = engine_auto.evaluate_series(series)
        t_auto = time.perf_counter() - t0
        auto_jobs = engine_auto.jobs

    for name, v in (("percall", v_percall), ("persistent", v_persistent), ("auto", v_auto)):
        diff = float(np.max(np.abs(v - v_serial)))
        assert diff <= 1e-9, f"{name} sweep deviates from serial ({diff})"

    # --- corpus: incremental extension vs from scratch --------------- #
    base_n, k = cfg["corpus_base"], cfg["k"]
    states = _distinct_states(series, base_n + k)
    snd_scratch = _snd(graph)
    t0 = time.perf_counter()
    m_scratch = snd_scratch.pairwise_matrix(states)
    t_scratch = time.perf_counter() - t0

    with SNDEngine(_snd(graph), jobs=None) as corpus_engine:
        corpus = Corpus(corpus_engine, states[:base_n])  # untimed priming
        before = corpus_engine.caches.transitions.fresh
        t0 = time.perf_counter()
        m_incremental = corpus.extend(states[base_n:])
        t_incremental = time.perf_counter() - t0
        pairs_solved = corpus_engine.caches.transitions.fresh - before
        corpus_cache_stats = corpus_engine.stats()["caches"]
    pairs_expected = k * base_n + k * (k - 1) // 2
    assert pairs_solved == pairs_expected, (
        f"extension solved {pairs_solved} pairs, expected {pairs_expected}"
    )
    assert np.array_equal(m_incremental, m_scratch), (
        "incremental corpus matrix deviates from the from-scratch sweep"
    )

    # --- warm-started network simplex: cold vs warm pivots ----------- #
    ns_results, ns_rows = _network_simplex_section(graph, cfg, verbose)

    results = {
        "quick": quick,
        "workload": {
            "n_nodes": graph.num_nodes,
            "n_edges": graph.num_edges,
            "n_states": len(series),
            "generator": "powerlaw -2.3 configuration model",
        },
        "host": {"cpu_count": os.cpu_count(), "jobs": jobs, "auto_jobs": auto_jobs},
        "series": {
            "sweeps": sweeps,
            "timings_ms": {
                "serial_one_sweep": round(t_serial * 1e3, 2),
                "percall_pool_total": round(t_percall * 1e3, 2),
                "persistent_pool_total": round(t_persistent * 1e3, 2),
                "engine_auto_one_sweep": round(t_auto * 1e3, 2),
            },
            "pool_starts": {"percall": sweeps, "persistent": 1},
            "persistent_speedup_vs_percall": round(t_percall / t_persistent, 3),
            "engine_auto_vs_serial": round(t_serial / t_auto, 3),
        },
        "corpus": {
            "n_base": base_n,
            "k_appended": k,
            "from_scratch_ms": round(t_scratch * 1e3, 2),
            "incremental_ms": round(t_incremental * 1e3, 2),
            "incremental_speedup": round(t_scratch / t_incremental, 3),
            "pairs_solved_incremental": int(pairs_solved),
            "pairs_expected": int(pairs_expected),
            "pairs_from_scratch": (base_n + k) * (base_n + k - 1) // 2,
            "bit_identical": True,
        },
        "network_simplex": ns_results,
        # Two vantage points on the unified hierarchy: the parallel engine
        # (parent-side caches idle — workers keep private hierarchies) and
        # the serial corpus engine (every counter live).
        "cache_stats": {
            "persistent_engine": engine_cache_stats,
            "corpus_engine": corpus_cache_stats,
        },
    }
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = [
        ["serial (1 sweep)", results["series"]["timings_ms"]["serial_one_sweep"], "-"],
        [
            f"per-call pool, jobs={jobs} ({sweeps} sweeps, {sweeps} launches)",
            results["series"]["timings_ms"]["percall_pool_total"],
            1.0,
        ],
        [
            f"persistent engine, jobs={jobs} ({sweeps} sweeps, 1 launch)",
            results["series"]["timings_ms"]["persistent_pool_total"],
            results["series"]["persistent_speedup_vs_percall"],
        ],
        [
            f"engine jobs=auto (-> {auto_jobs})",
            results["series"]["timings_ms"]["engine_auto_one_sweep"],
            "-",
        ],
        [
            f"corpus from scratch (N+k = {base_n + k})",
            results["corpus"]["from_scratch_ms"],
            "-",
        ],
        [
            f"corpus incremental extend (k = {k})",
            results["corpus"]["incremental_ms"],
            results["corpus"]["incremental_speedup"],
        ],
        *ns_rows,
    ]
    print_table(
        f"Persistent engine on n={graph.num_nodes}, T={len(series)}"
        + (" (quick)" if quick else ""),
        ["path", "ms", "speedup"],
        rows,
        verbose=verbose,
    )
    if verbose and (os.cpu_count() or 1) < 2:
        print(
            "note: single-CPU host — pooled rows cannot beat serial here; "
            "jobs='auto' resolves to serial by design"
        )

    record(
        "engine",
        "persistent_speedup_vs_percall",
        results["series"]["persistent_speedup_vs_percall"],
        jobs=jobs,
    )
    record(
        "engine",
        "incremental_speedup",
        results["corpus"]["incremental_speedup"],
        n_base=base_n,
        k=k,
    )
    record(
        "engine",
        "ns_warm_pivot_reduction",
        results["network_simplex"]["windowed_sweep"]["pivot_reduction"],
        n_transitions=results["network_simplex"]["windowed_sweep"]["n_transitions"],
    )
    return results


def test_engine_bench(benchmark):
    results = benchmark.pedantic(
        run_experiment, kwargs={"verbose": False, "quick": True}, rounds=1
    )
    corpus = results["corpus"]
    assert corpus["pairs_solved_incremental"] == corpus["pairs_expected"]
    assert corpus["bit_identical"]
    # Solving only the new pairs must beat re-solving all of them.
    assert corpus["incremental_speedup"] > 1.0
    # The persistent pool skips R-1 pool launches; allow generous noise
    # margin but it must not be meaningfully slower than per-call pools.
    assert results["series"]["persistent_speedup_vs_percall"] >= 0.8
    # Warm-started network simplex: the basis cache must cut pivots per
    # solve by >= 2x on both temporal-locality workloads (the run itself
    # also asserts this plus the no-wall-clock-regression bound).
    ns = results["network_simplex"]
    assert ns["windowed_sweep"]["pivot_reduction"] >= 2.0
    assert ns["corpus_append"]["pivot_reduction"] >= 2.0
    assert ns["windowed_sweep"]["warm"]["warm_solves"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-scale workload (same assertions)"
    )
    args = parser.parse_args()
    run_experiment(verbose=True, quick=args.quick)
