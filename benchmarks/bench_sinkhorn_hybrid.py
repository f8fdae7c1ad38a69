"""Sinkhorn-hybrid accuracy/speed frontier — the approximation tier's
acceptance benchmark, writing ``benchmarks/BENCH_sinkhorn_hybrid.json``.

Instances are SND-style reduced transportation problems (Theorem 4):
supplier/consumer bins are changed-user sets sampled from a powerlaw
configuration graph, costs are shortest-path distances between them, at
side lengths 10x-100x beyond the reduced instances the exact tiers see in
the tier-1 suites (their ``auto`` territory tops out at 2 048 cells; the
largest instance here is 640 000).

Two measurements per scale:

1. **Scaling table.** Exact LP and SSP against the hybrid tier at its
   defaults. Records wall time, relative error vs the exact optimum,
   screened support density, and the certified ``screen_error_bound``.
   The acceptance gate — >= 5x speedup over the *best* of LP and SSP at
   <= 1% relative error on the largest instance — is asserted in full
   mode (``--quick`` keeps the same shape with looser thresholds so CI
   stays under a minute). The cold network simplex is timed next to them
   for information only (it is not part of the gate): it is what
   ``solver="auto"`` runs at every size, because it keeps pace with the
   hybrid while staying exact.
2. **Frontier sweep.** epsilon/support_k settings spanning the tolerance
   tiers of ``tests/flow/test_solver_equivalence.py``, showing how the
   certified bound and the realised error tighten as the screen spends
   more time (the data behind the tuning guidance in README.md).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from common import print_table, record
from repro.flow import TransportationProblem, solve_transportation
from repro.flow.sinkhorn_hybrid import solve_transportation_sinkhorn_hybrid
from repro.graph.generators import powerlaw_configuration_graph
from repro.shortestpath.dijkstra import multi_source_distances

JSON_PATH = Path(__file__).parent / "BENCH_sinkhorn_hybrid.json"

#: Side lengths of the square reduced instances (cells = side**2); the
#: graph has 4x as many nodes as the instance has bins per side.
FULL = {"sides": (200, 400, 800), "frontier_side": 400, "min_speedup": 5.0, "max_rel_error": 0.01}
QUICK = {"sides": (100, 200), "frontier_side": 200, "min_speedup": 2.0, "max_rel_error": 0.01}

#: (epsilon, support_k) settings for the frontier sweep — the same
#: operating points the tolerance-tier property suite certifies.
FRONTIER = ((0.1, 4), (0.05, "auto"), (0.02, 8), (0.005, 16))


def snd_style_instance(side: int, seed: int) -> TransportationProblem:
    """A Theorem-4-shaped reduced instance from a powerlaw graph.

    Costs are multi-source shortest-path distances from *side* supplier
    nodes to *side* consumer nodes (disconnected pairs get twice the
    finite diameter), shifted by +1 so the exact optimum is strictly
    positive and relative error is well defined.
    """
    graph = powerlaw_configuration_graph(4 * side, -2.3, k_min=2, seed=seed)
    rng = np.random.default_rng(seed)
    suppliers = rng.choice(graph.num_nodes, side, replace=False)
    consumers = rng.choice(graph.num_nodes, side, replace=False)
    costs = multi_source_distances(graph, suppliers)[:, consumers]
    finite = np.isfinite(costs)
    if not finite.all():
        costs[~finite] = (costs[finite].max() if finite.any() else 1.0) * 2.0
    costs = costs + 1.0
    supplies = rng.integers(1, 10, side).astype(float)
    demands = rng.integers(1, 10, side).astype(float)
    demands *= supplies.sum() / demands.sum()
    return TransportationProblem(supplies, demands, costs)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_experiment(verbose: bool = True, quick: bool = False) -> dict:
    cfg = QUICK if quick else FULL

    # --- scaling table: exact tiers vs hybrid defaults ---------------- #
    scaling = []
    for side in cfg["sides"]:
        problem = snd_style_instance(side, seed=0)
        lp_plan, t_lp = _timed(solve_transportation, problem, method="lp")
        ssp_plan, t_ssp = _timed(solve_transportation, problem, method="ssp")
        ns_plan, t_ns = _timed(solve_transportation, problem, method="network-simplex")
        assert abs(lp_plan.cost - ssp_plan.cost) <= 1e-6 * max(1.0, lp_plan.cost)
        assert abs(lp_plan.cost - ns_plan.cost) <= 1e-6 * max(1.0, lp_plan.cost)
        exact_cost = lp_plan.cost
        best_exact = "lp" if t_lp <= t_ssp else "ssp"
        t_best = min(t_lp, t_ssp)

        hybrid_plan, t_hybrid = _timed(
            solve_transportation, problem, method="sinkhorn-hybrid"
        )
        hybrid_plan.validate(problem)
        info = hybrid_plan.info
        rel_error = (hybrid_plan.cost - exact_cost) / exact_cost
        assert rel_error >= -1e-9, "hybrid cost fell below the exact optimum"
        scaling.append(
            {
                "side": side,
                "cells": side * side,
                "exact": {
                    "lp_ms": round(t_lp * 1e3, 1),
                    "ssp_ms": round(t_ssp * 1e3, 1),
                    "network_simplex_ms": round(t_ns * 1e3, 1),
                    "best": best_exact,
                    "best_ms": round(t_best * 1e3, 1),
                    "cost": exact_cost,
                },
                "hybrid": {
                    "ms": round(t_hybrid * 1e3, 1),
                    "cost": hybrid_plan.cost,
                    "rel_error": max(0.0, rel_error),
                    "speedup_vs_best_exact": round(t_best / t_hybrid, 2),
                    "support_density": round(info.support_density, 5),
                    "screen_error_bound": info.screen_error_bound,
                    "epsilon": info.epsilon,
                    "support_k": info.support_k,
                },
            }
        )

    largest = scaling[-1]
    acceptance = {
        "largest_side": largest["side"],
        "speedup": largest["hybrid"]["speedup_vs_best_exact"],
        "rel_error": largest["hybrid"]["rel_error"],
        "min_speedup": cfg["min_speedup"],
        "max_rel_error": cfg["max_rel_error"],
    }
    acceptance["pass"] = (
        acceptance["speedup"] >= cfg["min_speedup"]
        and acceptance["rel_error"] <= cfg["max_rel_error"]
    )
    assert acceptance["pass"], (
        f"acceptance gate failed on side={largest['side']}: "
        f"{acceptance['speedup']}x at rel_error={acceptance['rel_error']:.2e} "
        f"(need >= {cfg['min_speedup']}x at <= {cfg['max_rel_error']:.0%})"
    )

    # --- frontier sweep at a mid scale -------------------------------- #
    problem = snd_style_instance(cfg["frontier_side"], seed=0)
    row = next(r for r in scaling if r["side"] == cfg["frontier_side"])
    exact_cost, t_best = row["exact"]["cost"], row["exact"]["best_ms"] / 1e3
    frontier = []
    for epsilon, support_k in FRONTIER:
        plan, t = _timed(
            solve_transportation_sinkhorn_hybrid,
            problem,
            epsilon=epsilon,
            support_k=support_k,
        )
        plan.validate(problem)
        info = plan.info
        rel = max(0.0, (plan.cost - exact_cost) / exact_cost)
        if np.isfinite(info.screen_error_bound):
            assert rel <= info.screen_error_bound + 1e-9, (
                "certified bound violated on the frontier sweep"
            )
        frontier.append(
            {
                "epsilon": epsilon,
                "support_k": info.support_k,
                "ms": round(t * 1e3, 1),
                "rel_error": rel,
                "screen_error_bound": info.screen_error_bound,
                "support_density": round(info.support_density, 5),
                "speedup_vs_best_exact": round(t_best / t, 2),
            }
        )

    results = {
        "quick": quick,
        "workload": {
            "generator": "powerlaw -2.3 configuration model, SPD costs (Theorem 4 shape)",
            "sides": list(cfg["sides"]),
            "largest_cells": largest["cells"],
        },
        "scaling": scaling,
        "frontier": {"side": cfg["frontier_side"], "settings": frontier},
        "acceptance": acceptance,
    }
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")

    rows = [
        [
            f"{r['side']}x{r['side']}",
            r["exact"]["best"],
            r["exact"]["best_ms"],
            r["exact"]["network_simplex_ms"],
            r["hybrid"]["ms"],
            r["hybrid"]["speedup_vs_best_exact"],
            f"{r['hybrid']['rel_error']:.1e}",
            f"{r['hybrid']['support_density']:.3f}",
        ]
        for r in scaling
    ]
    print_table(
        "Sinkhorn-hybrid vs best exact tier" + (" (quick)" if quick else ""),
        [
            "instance", "best exact", "exact ms", "cold NS ms", "hybrid ms",
            "speedup", "rel err", "density",
        ],
        rows,
        verbose=verbose,
    )
    frontier_rows = [
        [
            f"eps={f['epsilon']}, k={f['support_k']}",
            f["ms"],
            f"{f['rel_error']:.1e}",
            f"{f['screen_error_bound']:.1e}",
            f"{f['support_density']:.3f}",
        ]
        for f in frontier
    ]
    print_table(
        f"Frontier sweep at {cfg['frontier_side']}x{cfg['frontier_side']}",
        ["setting", "ms", "rel err", "cert bound", "density"],
        frontier_rows,
        verbose=verbose,
    )

    record(
        "sinkhorn_hybrid",
        "speedup_vs_best_exact",
        acceptance["speedup"],
        side=largest["side"],
        quick=quick,
    )
    record(
        "sinkhorn_hybrid",
        "rel_error",
        acceptance["rel_error"],
        side=largest["side"],
        quick=quick,
    )
    return results


def test_sinkhorn_hybrid_bench(benchmark):
    results = benchmark.pedantic(
        run_experiment, kwargs={"verbose": False, "quick": True}, rounds=1
    )
    assert results["acceptance"]["pass"]
    # The certified bound held on every frontier setting (asserted inside),
    # and the screen really is sparse at scale.
    largest = results["scaling"][-1]
    assert largest["hybrid"]["support_density"] < 0.25


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI-scale workload (same assertions)"
    )
    args = parser.parse_args()
    run_experiment(verbose=True, quick=args.quick)
