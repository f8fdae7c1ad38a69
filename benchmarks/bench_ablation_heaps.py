"""Ablation — Dijkstra heap choice and shortest-path engine.

Theorem 4's complexity bound uses a radix/Fibonacci-heap Dijkstra; the
paper's released implementation used a binary heap (§6.5) and noted it
"scales slightly worse than guaranteed but still very well". We time all
three heaps (binary, radix, pairing), looping the reference Dijkstra
once per source, against the vectorised scipy rows the SND pipeline uses,
on the same workload, and assert identical distances. The heaps and the
reference Dijkstra live with the tests they serve as oracle
(``tests/dijkstra_reference.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from common import print_table, record
from repro.datasets.synthetic import giant_component_powerlaw
from repro.shortestpath.dijkstra import multi_source_distances
from repro.utils.rng import as_rng

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))
from dijkstra_reference import HEAP_KINDS, dijkstra  # noqa: E402

HEAPS = list(HEAP_KINDS)


def _python_rows(graph, sources, weights, heap: str) -> np.ndarray:
    """One reference Dijkstra per source, stacked like the scipy rows."""
    return np.vstack(
        [dijkstra(graph, int(s), weights=weights, heap=heap) for s in sources]
    )


def run_experiment(verbose: bool = True) -> dict:
    graph = giant_component_powerlaw(3_000, -2.3, k_min=2, seed=2)
    rng = as_rng(5)
    weights = rng.integers(1, 10, graph.num_edges).astype(np.float64)
    sources = rng.choice(graph.num_nodes, size=24, replace=False)

    rows = []
    out = {}
    reference = None
    for heap in HEAPS:
        start = time.perf_counter()
        dist = _python_rows(graph, sources, weights, heap)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = dist
        agree = np.allclose(dist, reference)
        rows.append([f"python/{heap}", round(elapsed, 3), "yes" if agree else "NO"])
        out[heap] = {"seconds": elapsed, "agree": agree}
        record("ablation_heaps", "seconds", elapsed, engine=f"python/{heap}")

    start = time.perf_counter()
    dist = multi_source_distances(graph, sources, weights=weights)
    elapsed = time.perf_counter() - start
    agree = np.allclose(dist, reference)
    rows.append(["scipy", round(elapsed, 3), "yes" if agree else "NO"])
    out["scipy"] = {"seconds": elapsed, "agree": agree}
    record("ablation_heaps", "seconds", elapsed, engine="scipy")

    print_table(
        f"Dijkstra heap/engine ablation "
        f"(n={graph.num_nodes}, m={graph.num_edges}, {len(sources)} sources)",
        ["engine/heap", "seconds", "distances agree"],
        rows,
        verbose=verbose,
    )
    assert all(entry["agree"] for entry in out.values()), (
        "the heaps and scipy disagree on the Dijkstra distances"
    )
    return out


def test_heaps_agree_and_scipy_fastest(benchmark):
    out = benchmark.pedantic(run_experiment, kwargs={"verbose": False}, rounds=1)
    assert all(entry["agree"] for entry in out.values())
    slowest_python = max(out[h]["seconds"] for h in HEAPS)
    assert out["scipy"]["seconds"] < slowest_python


def test_binary_heap_dijkstra_micro(benchmark):
    graph = giant_component_powerlaw(1_500, -2.3, k_min=2, seed=3)
    rng = as_rng(1)
    weights = rng.integers(1, 10, graph.num_edges).astype(np.float64)
    benchmark(lambda: dijkstra(graph, 0, weights=weights, heap="binary"))


if __name__ == "__main__":
    run_experiment()
