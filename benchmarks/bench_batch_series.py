"""Batch-series engine benchmark — seed loop vs cached vs vectorised/auto.

Times the same 20-state series sweep (the CLI ``generate`` defaults:
n = 2000 power-law graph, 100 seed users) through six evaluators:

* ``seed_loop`` — the pre-batch-engine path: one ``SND.distance`` call per
  adjacent pair, rebuilding ``4·(T-1)`` ground-cost arrays;
* ``cached_heap`` — ``SND.evaluate_series`` serial with the SSP solves
  swapped for the original heap-Dijkstra loop (kept as the test oracle
  ``tests/ssp_reference.py``): the **heap baseline** the library's
  scipy-backed SSP solver is measured against;
* ``cached`` — ``SND.evaluate_series`` serial with the library's SSP
  solver (scipy csgraph Dijkstra over the CSR residual adjacency);
* ``cached_auto`` — the cached engine with ``solver="auto"``: every
  reduced instance goes to the network simplex (see
  :func:`repro.flow.select_transport_method`);
* ``parallel`` — ``evaluate_series(jobs=N)``: process fan-out over
  contiguous transition chunks (wall-clock gains require > 1 CPU; the
  JSON records the host's core count so numbers are interpretable);
* ``window_resweep`` — a second windowed sweep over the same series
  through the instance :class:`~repro.snd.cache.TransitionCache`: every
  transition is answered from the cache, the sliding-window reuse lever.

The ``cached*`` and ``parallel`` rows start every repeat from empty
instance caches (``snd.caches.clear()``), so each timed sweep builds its
ground costs and Dijkstra rows itself.

Every row's values are checked against the seed loop before timings are
reported (the engine's bit-identity contract; the max deviation per row is
recorded). Results go to ``benchmarks/BENCH_batch_series.json`` (see
``benchmarks/README.md``) and, best-effort, to ``results.sqlite``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from common import print_table, record
from repro.graph.generators import powerlaw_configuration_graph
from repro.opinions.dynamics import generate_series
from repro.snd import SND

JSON_PATH = Path(__file__).parent / "BENCH_batch_series.json"

#: The heap-Dijkstra SSP reference lives with the tests it serves as oracle.
TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"

#: The CLI ``generate`` defaults (see repro.cli) — the acceptance workload.
N_NODES = 2000
N_STATES = 20
N_SEEDS = 100

#: The acceptance bar: the scipy-ssp / auto cached sweep must beat the
#: heap-Dijkstra cached sweep by at least this factor.
TARGET_SPEEDUP = 1.5


def _dataset():
    graph = powerlaw_configuration_graph(N_NODES, -2.3, k_min=2, seed=0)
    series = generate_series(
        graph,
        N_STATES,
        n_seeds=N_SEEDS,
        p_nbr=0.10,
        p_ext=0.01,
        candidate_fraction=0.05,
        seed=0,
    )
    return graph, series


def _snd(graph, **kwargs) -> SND:
    return SND(graph, n_clusters=24, seed=0, **kwargs)


def _cold_sweep(snd, series, **kwargs):
    """``evaluate_series`` from empty instance caches."""
    snd.caches.clear()
    return snd.evaluate_series(series, **kwargs)


def _time(fn, *, repeats: int = 3):
    """Best-of-*repeats* wall time and the last return value."""
    best, value = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, np.asarray(value, dtype=np.float64)


@contextmanager
def _heap_kernel():
    """Swap the reduced-problem SSP solves for the heap-Dijkstra reference.

    ``solver="ssp"`` reaches :func:`repro.flow.ssp.solve_mcf_ssp` through
    ``solve_transportation_ssp``, which looks the name up in its own
    module, so that is the name patched here.
    """
    import repro.flow.ssp as ssp_mod

    if str(TESTS_DIR) not in sys.path:
        sys.path.insert(0, str(TESTS_DIR))
    import ssp_reference

    orig = ssp_mod.solve_mcf_ssp
    ssp_mod.solve_mcf_ssp = ssp_reference.solve_mcf_ssp_heap
    try:
        yield
    finally:
        ssp_mod.solve_mcf_ssp = orig


def run_experiment(verbose: bool = True) -> dict:
    graph, series = _dataset()
    snd = _snd(graph)
    jobs = max(2, min(4, os.cpu_count() or 1))

    snd.distance(series[0], series[1])  # warm module caches / imports

    t_seed, v_seed = _time(
        lambda: [snd.distance(a, b) for a, b in series.transitions()]
    )

    with _heap_kernel():
        t_heap, v_heap = _time(lambda: _cold_sweep(snd, series))

    def cached_run():
        before = snd.ground_cache.builds
        out = _cold_sweep(snd, series)
        cached_run.builds = snd.ground_cache.builds - before
        return out

    t_cached, v_cached = _time(cached_run)

    t_parallel, v_parallel = _time(lambda: _cold_sweep(snd, series, jobs=jobs))

    snd_auto = _snd(graph, solver="auto")
    snd_auto.distance(series[0], series[1])
    t_auto, v_auto = _time(lambda: _cold_sweep(snd_auto, series))

    # Sliding-window reuse: one priming sweep fills the transition cache,
    # the timed re-sweep answers every transition from it.
    snd_win = _snd(graph)
    snd_win.evaluate_series(series, window=10)
    fresh_after_priming = snd_win.transition_cache.fresh
    t_window, v_window = _time(lambda: snd_win.evaluate_series(series, window=10))

    def diff(v):
        return float(np.max(np.abs(v - v_seed))) if v_seed.size else 0.0

    diffs = {
        "cached_heap": diff(v_heap),
        "cached": diff(v_cached),
        "parallel": diff(v_parallel),
        "cached_auto": diff(v_auto),
        "window_resweep": diff(v_window),
    }
    for name, d in diffs.items():
        assert d <= 1e-9, f"{name} path deviates from the seed loop ({d})"
    assert fresh_after_priming == len(series) - 1, "window mode re-solved transitions"
    assert snd_win.transition_cache.fresh == fresh_after_priming, (
        "the timed window re-sweep should answer every transition from cache"
    )

    naive_builds = 4 * (len(series) - 1)
    results = {
        "workload": {
            "n_nodes": graph.num_nodes,
            "n_edges": graph.num_edges,
            "n_states": len(series),
            "generator": "CLI generate defaults (powerlaw -2.3, 100 seeds)",
        },
        "host": {"cpu_count": os.cpu_count(), "jobs": jobs},
        "ground_cost_builds": {
            "seed_loop": naive_builds,
            "cached": int(cached_run.builds),
            "bound": 2 * (len(series) - 1) + 2,
        },
        "timings_ms": {
            "seed_loop": round(t_seed * 1e3, 2),
            "cached_heap": round(t_heap * 1e3, 2),
            "cached": round(t_cached * 1e3, 2),
            "parallel": round(t_parallel * 1e3, 2),
            "cached_auto": round(t_auto * 1e3, 2),
            "window_resweep": round(t_window * 1e3, 2),
        },
        "speedup_vs_pr1_heap_baseline": {
            "cached": round(t_heap / t_cached, 3),
            "cached_auto": round(t_heap / t_auto, 3),
            "window_resweep": round(t_heap / t_window, 3),
        },
        "speedup_vs_seed": {
            "cached": round(t_seed / t_cached, 3),
            "parallel": round(t_seed / t_parallel, 3),
            "cached_auto": round(t_seed / t_auto, 3),
        },
        "max_abs_diff_vs_seed": diffs,
        "window": {
            "window_states": 10,
            "fresh_transitions_first_sweep": int(fresh_after_priming),
            "fresh_transitions_resweep": 0,
        },
    }
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = [
        ["seed loop (scipy ssp)", results["timings_ms"]["seed_loop"], "-", naive_builds],
        [
            "cached + heap kernel (PR-1)",
            results["timings_ms"]["cached_heap"],
            1.0,
            int(cached_run.builds),
        ],
        [
            "cached (scipy ssp)",
            results["timings_ms"]["cached"],
            results["speedup_vs_pr1_heap_baseline"]["cached"],
            int(cached_run.builds),
        ],
        [
            "cached + solver=auto",
            results["timings_ms"]["cached_auto"],
            results["speedup_vs_pr1_heap_baseline"]["cached_auto"],
            int(cached_run.builds),
        ],
        [
            f"parallel (jobs={jobs})",
            results["timings_ms"]["parallel"],
            round(t_heap / t_parallel, 3),
            "-",
        ],
        [
            "windowed re-sweep (cached transitions)",
            results["timings_ms"]["window_resweep"],
            results["speedup_vs_pr1_heap_baseline"]["window_resweep"],
            "-",
        ],
    ]
    print_table(
        f"Batch series engine on n={graph.num_nodes}, T={len(series)}",
        ["path", "ms", "speedup vs PR-1", "cost builds"],
        rows,
        verbose=verbose,
    )
    if verbose and (os.cpu_count() or 1) < 2:
        print("note: single-CPU host — the parallel row cannot beat serial here")

    for path, speed in results["speedup_vs_pr1_heap_baseline"].items():
        record("batch_series", "speedup_vs_pr1", speed, path=path)
    for path, speed in results["speedup_vs_seed"].items():
        record("batch_series", "speedup", speed, path=path)
    return results


def test_batch_engine_exact(benchmark):
    results = benchmark.pedantic(run_experiment, kwargs={"verbose": False}, rounds=1)
    assert max(results["max_abs_diff_vs_seed"].values()) <= 1e-9
    bound = results["ground_cost_builds"]["bound"]
    assert results["ground_cost_builds"]["cached"] <= bound
    best = max(
        results["speedup_vs_pr1_heap_baseline"]["cached"],
        results["speedup_vs_pr1_heap_baseline"]["cached_auto"],
    )
    assert best >= TARGET_SPEEDUP, (
        f"vectorised/auto sweep only {best}x vs the PR-1 heap baseline"
    )


def test_cached_series_sweep(benchmark):
    """Micro-benchmark: the cached serial sweep on the acceptance workload."""
    graph, series = _dataset()
    snd = _snd(graph)
    snd.distance(series[0], series[1])
    benchmark(lambda: _cold_sweep(snd, series))
