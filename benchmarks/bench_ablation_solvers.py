"""Ablation — exact solvers for the reduced transportation problem.

The Theorem 4 pipeline folds the bank bins into one dense reduced
transportation instance and hands it to an exact solver: successive
shortest paths (the ``SND`` default), the network simplex (what
``solver="auto"`` runs), or a dense LP (HiGHS, the paper's CPLEX role).
All must agree on the value; the interesting output is how each solver's
time grows with n∆.
"""

from __future__ import annotations

import time


from common import experiment_snd, print_table, record
from repro.datasets.synthetic import giant_component_powerlaw
from repro.opinions.dynamics import random_transition, seed_state

SOLVERS = ["ssp", "network-simplex", "lp"]


def run_experiment(verbose: bool = True) -> dict:
    graph = giant_component_powerlaw(3_000, -2.3, k_min=2, seed=1)
    rows = []
    out = {}
    for n_delta in (30, 120, 300):
        base = seed_state(graph, max(60, n_delta), seed=2)
        changed = random_transition(graph, base, n_delta, seed=3)
        values = {}
        times = {}
        for solver in SOLVERS:
            snd = experiment_snd(graph, n_clusters=12, solver=solver)
            start = time.perf_counter()
            values[solver] = snd.distance(base, changed)
            times[solver] = time.perf_counter() - start
            record("ablation_solvers", "seconds", times[solver],
                   solver=solver, n_delta=n_delta)
        agree = max(values.values()) - min(values.values()) <= 1e-5 * max(
            1.0, max(values.values())
        )
        rows.append(
            [n_delta]
            + [round(times[s], 3) for s in SOLVERS]
            + ["yes" if agree else "NO"]
        )
        out[n_delta] = {"times": times, "agree": agree}
    print_table(
        f"Reduced-problem solver ablation (n={graph.num_nodes})",
        ["n∆"] + [f"{s} (s)" for s in SOLVERS] + ["values agree"],
        rows,
        verbose=verbose,
    )
    return out


def test_solvers_agree(benchmark):
    out = benchmark.pedantic(run_experiment, kwargs={"verbose": False}, rounds=1)
    assert all(entry["agree"] for entry in out.values())


if __name__ == "__main__":
    run_experiment()
