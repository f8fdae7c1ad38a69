"""Command-line interface: ``repro-snd`` / ``python -m repro.cli``.

Subcommands
-----------
``generate``
    Generate a synthetic graph + opinion series and save them (npz / store).
``distance``
    Compute SND (and optionally baselines) between two states of a saved
    series.
``distance-matrix``
    Compute the symmetric all-pairs distance matrix over a saved series
    (upper triangle evaluated once; ``--jobs`` sizes the engine's pool).
``watch``
    Stream a saved series state-by-state through the persistent
    :class:`~repro.snd.engine.SNDEngine`, scoring each transition with the
    online anomaly detector as it arrives (§6.2 as an online workload).
``corpus``
    Build, incrementally extend, and query a persisted state corpus with
    its pairwise SND matrix (§9 metric-space workloads): ``corpus build``,
    ``corpus extend`` (solves only the new pairs), ``corpus query``.
``serve``
    Run the long-lived HTTP distance service
    (:mod:`repro.serve.http`) over the store — the same
    :class:`~repro.serve.service.SNDService` the commands above use.
``bakeoff``
    Head-to-head of SND vs the scalar polarization baselines (anomaly
    ROC + prediction accuracy over k-pole synthetic regimes and the
    simulated Twitter pipeline — :mod:`repro.analysis.bakeoff`).
``experiment``
    Run one of the paper's experiments end-to-end and print its table.

``distance`` / ``distance-matrix`` accept ``--save`` to persist results
into the experiment store instead of stdout-only output, and every SND
command accepts ``--cache-stats`` to print the unified cache hierarchy's
counters (:meth:`repro.snd.cache.CacheManager.stats`).

``--measure`` choices are derived from the live distance registry
(:func:`repro.distances.default_registry`), so newly registered measures
are reachable without touching this module.

All distance subcommands are thin clients of
:class:`~repro.serve.service.SNDService` — the exact code path the HTTP
server runs — so every evaluation routes through the engine's
:class:`~repro.snd.scheduler.PairScheduler` while the printed output
stays bit-identical to the historical per-subcommand plumbing.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__

__all__ = ["main", "build_parser"]


def _add_jobs(parser: argparse.ArgumentParser, default: int | None = None) -> None:
    # The one place a worker count enters: _config_jobs turns it into
    # EngineConfig.jobs, and no operation takes one per call.
    parser.add_argument(
        "--jobs",
        type=int,
        default=default,
        help="SND engine worker count; 0 means serial (default: "
        f"{'auto, serial on 1-CPU hosts' if default is None else default})",
    )


def _config_jobs(jobs: int | None):
    """``--jobs`` as ``EngineConfig.jobs``: unset is ``auto``, 0 serial."""
    return "auto" if jobs is None else (jobs or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-snd",
        description="Social Network Distance (SND) — ICDE 2017 reproduction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph + series")
    gen.add_argument("--nodes", type=int, default=2000)
    gen.add_argument("--exponent", type=float, default=-2.3)
    gen.add_argument("--states", type=int, default=20)
    gen.add_argument("--seeds", type=int, default=100)
    gen.add_argument("--p-nbr", type=float, default=0.10)
    gen.add_argument("--p-ext", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--store", default="experiments.sqlite")
    gen.add_argument("--name", default="synthetic")

    from repro.distances import default_registry
    from repro.snd.fast import SOLVER_CHOICES

    measures = default_registry().names()

    dist = sub.add_parser("distance", help="compute distances over a saved series")
    dist.add_argument("--store", default="experiments.sqlite")
    dist.add_argument("--name", default="synthetic")
    dist.add_argument("--measure", default="snd", choices=measures)
    dist.add_argument("--clusters", type=int, default=None)
    _add_jobs(dist, default=1)
    dist.add_argument(
        "--solver",
        default="auto",
        choices=SOLVER_CHOICES,
        help="SND reduced-problem solver ('auto' is the network simplex at every size, which warm-starts repeat solves from cached bases)",
    )
    dist.add_argument(
        "--window",
        type=int,
        default=None,
        help="incremental sliding-window evaluation: process the series in "
        "overlapping windows of this many states, reusing previously "
        "solved transitions (identical values; SND only)",
    )
    dist.add_argument(
        "--save",
        action="store_true",
        help="persist the computed distance series into the store's "
        "distance_runs table (keyed to the saved series) instead of "
        "stdout-only output",
    )
    dist.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the SND cache hierarchy's hit/miss/eviction counters",
    )

    dmat = sub.add_parser(
        "distance-matrix",
        help="compute the all-pairs distance matrix over a saved series",
    )
    dmat.add_argument("--store", default="experiments.sqlite")
    dmat.add_argument("--name", default="synthetic")
    dmat.add_argument("--measure", default="snd", choices=measures)
    dmat.add_argument("--clusters", type=int, default=None)
    _add_jobs(dmat, default=1)
    dmat.add_argument(
        "--solver",
        default="auto",
        choices=SOLVER_CHOICES,
        help="SND reduced-problem solver ('auto' is the network simplex at every size, which warm-starts repeat solves from cached bases)",
    )
    dmat.add_argument(
        "--output",
        default=None,
        help="save the matrix to this .npy file instead of printing it",
    )
    dmat.add_argument(
        "--save",
        default=None,
        metavar="CORPUS",
        help="persist the states + matrix into the store as a named corpus "
        "(extendable later with 'corpus extend')",
    )
    dmat.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the SND cache hierarchy's hit/miss/eviction counters",
    )

    watch = sub.add_parser(
        "watch",
        help="stream a saved series through the persistent engine with "
        "online anomaly detection",
    )
    watch.add_argument("--store", default="experiments.sqlite")
    watch.add_argument("--name", default="synthetic")
    watch.add_argument("--clusters", type=int, default=None)
    watch.add_argument("--solver", default="auto", choices=SOLVER_CHOICES)
    _add_jobs(watch)
    watch.add_argument(
        "--window",
        type=int,
        default=10,
        help="sliding window of recent distances maintained by the stream",
    )
    watch.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fixed anomaly threshold (default: causal mean + 2*std)",
    )
    watch.add_argument("--cache-stats", action="store_true")

    corpus = sub.add_parser(
        "corpus",
        help="build / extend / query a persisted state corpus (pairwise "
        "SND matrix maintained incrementally)",
    )
    csub = corpus.add_subparsers(dest="corpus_command", required=True)

    def _corpus_common(p):
        p.add_argument("--store", default="experiments.sqlite")
        p.add_argument("--name", default="synthetic")
        p.add_argument("--corpus", default="corpus", help="corpus name in the store")
        p.add_argument("--clusters", type=int, default=None)
        p.add_argument("--solver", default="auto", choices=SOLVER_CHOICES)
        _add_jobs(p)
        p.add_argument("--cache-stats", action="store_true")

    cbuild = csub.add_parser(
        "build", help="build a corpus from the saved series' states"
    )
    _corpus_common(cbuild)
    cbuild.add_argument(
        "--first",
        type=int,
        default=None,
        help="use only the first K series states (default: all)",
    )

    cextend = csub.add_parser(
        "extend",
        help="append further series states, solving only the new pairs",
    )
    _corpus_common(cextend)
    cextend.add_argument(
        "--take",
        type=int,
        default=1,
        help="number of next series states to append (default: 1)",
    )

    cquery = csub.add_parser(
        "query", help="nearest corpus members to one series state"
    )
    _corpus_common(cquery)
    cquery.add_argument(
        "--state", type=int, required=True, help="series state index to query"
    )
    cquery.add_argument("-k", type=int, default=3, help="neighbours to report")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived HTTP distance service over the store",
    )
    serve.add_argument("--store", default="experiments.sqlite")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port to bind (0 picks a free port and prints it)",
    )
    serve.add_argument("--clusters", type=int, default=None)
    serve.add_argument("--solver", default="auto", choices=SOLVER_CHOICES)
    _add_jobs(serve)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="scheduler backpressure bound: max unique pairs queued or "
        "solving at once (default: %(default)s -> library default)",
    )
    serve.add_argument(
        "--client-max-pending",
        type=int,
        default=None,
        help="per-client fairness quota: max pending pairs one X-Client "
        "identity may hold (scaled by its priority class); over-quota "
        "requests get HTTP 429 (default: no per-client cap)",
    )
    serve.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="cache hierarchy memory budget in bytes, per process "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--no-persist",
        action="store_true",
        help="disable spilling the transition cache to the store "
        "(warm restarts will re-solve)",
    )
    serve.add_argument(
        "--flush-interval",
        type=float,
        default=None,
        help="seconds between periodic transition-cache flushes to the "
        "store (default: 30)",
    )
    serve.add_argument(
        "--client",
        default=None,
        help="default client identity for requests without an X-Client "
        "header (default: anonymous — exempt from per-client quotas)",
    )
    serve.add_argument(
        "--priority",
        default=None,
        choices=["low", "normal", "high"],
        help="default priority class for requests without an X-Priority "
        "header (default: normal)",
    )

    bake = sub.add_parser(
        "bakeoff",
        help="SND vs scalar polarization measures: anomaly ROC + "
        "prediction over k-pole regimes and the Twitter pipeline",
    )
    bake.add_argument(
        "--measures",
        nargs="+",
        default=None,
        metavar="MEASURE",
        help="measures to compare (default: snd esp disagreement "
        "bimodality hamming)",
    )
    bake.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="synthetic regime size before giant-component extraction "
        "(default: stock regimes)",
    )
    bake.add_argument(
        "--states",
        type=int,
        default=None,
        help="states per synthetic regime (default: stock regimes)",
    )
    bake.add_argument(
        "--no-twitter",
        action="store_true",
        help="skip the simulated-Twitter leg (synthetic regimes only)",
    )
    bake.add_argument(
        "--twitter-users",
        type=int,
        default=None,
        help="user count for the Twitter leg (default: paper scale)",
    )
    bake.add_argument("--targets", type=int, default=10)
    bake.add_argument("--window", type=int, default=3)
    bake.add_argument("--repeats", type=int, default=3)
    bake.add_argument("--assignments", type=int, default=40)
    bake.add_argument("--seed", type=int, default=7)
    bake.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full result tree to this JSON file",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument(
        "name",
        choices=["fig5", "fig7", "fig8", "fig10", "table1"],
        help="paper figure or table to reproduce",
    )
    exp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.generators import powerlaw_configuration_graph
    from repro.opinions.dynamics import generate_series
    from repro.store import ExperimentStore

    graph = powerlaw_configuration_graph(
        args.nodes, args.exponent, k_min=2, seed=args.seed
    )
    series = generate_series(
        graph,
        args.states,
        n_seeds=args.seeds,
        p_nbr=args.p_nbr,
        p_ext=args.p_ext,
        candidate_fraction=0.05,
        seed=args.seed,
    )
    with ExperimentStore(args.store) as store:
        store.save_graph(args.name, graph)
        store.save_series(args.name, "series", series)
    print(
        f"saved graph ({graph.num_nodes} nodes, {graph.num_edges} edges) and "
        f"{len(series)}-state series as {args.name!r} in {args.store}"
    )
    return 0


def _make_service(args: argparse.Namespace):
    """The one-shot :class:`~repro.serve.service.SNDService` a CLI
    invocation runs against — the same class `repro-snd serve` keeps
    alive, so both fronts share one scheduler-routed code path."""
    from repro.serve import EngineConfig, SNDService

    config = EngineConfig(
        clusters=getattr(args, "clusters", None),
        solver=getattr(args, "solver", "auto"),
        jobs=_config_jobs(getattr(args, "jobs", None)),
        # One-shot CLI runs never outlive the process; spilling the
        # transition cache on every invocation would thrash the store.
        persist_transitions=False,
    )
    return SNDService(args.store, config=config)


def _print_cache_stats(
    stats: dict | None, measures: dict[str, int] | None = None
) -> None:
    """Print each cache's ``stats()`` dict as ``key=value`` pairs: the
    keys are the stats keys and the ``snd_cache_*`` metric suffixes."""
    if measures:
        joined = "  ".join(
            f"{name}={count}" for name, count in sorted(measures.items())
        )
        print(f"# measure requests: {joined}")
    if stats is None:
        print("# cache stats: no SND instance was used")
        return
    print("# cache stats (unified hierarchy)")
    totals = {}
    for name, value in stats.items():
        if isinstance(value, dict):
            print(f"#   {name:11s} " + " ".join(f"{k}={v}" for k, v in value.items()))
        else:
            totals[name] = value
    print("#   " + " ".join(f"{k}={v}" for k, v in totals.items()))


def _cmd_distance(args: argparse.Namespace) -> int:
    with _make_service(args) as service:
        context = service.shard(args.name).context
        values = service.series_distances(
            args.name, measure=args.measure, window=args.window
        )
        cache_stats = service.cache_stats(args.name)
    print(f"# {args.measure} distances between adjacent states")
    for t, v in enumerate(values):
        print(f"{t:4d} -> {t + 1:4d}: {v:.6g}")
    if args.window is not None and context.snd is not None:
        tc = context.snd.transition_cache
        print(
            f"# sliding window of {args.window} states: "
            f"{tc.fresh} transitions solved, {tc.reused} reused from cache"
        )
    if args.save:
        from repro.store import ExperimentStore

        with ExperimentStore(args.store) as store:
            sid = store.series_id(args.name, "series")
            for t, v in enumerate(values):
                store.record_distance(sid, args.measure, t, t + 1, float(v))
        print(
            f"# saved {len(values)} {args.measure} rows to distance_runs "
            f"(series_id={sid}) in {args.store}"
        )
    if args.cache_stats:
        _print_cache_stats(cache_stats, service.measure_requests())
    return 0


def _cmd_distance_matrix(args: argparse.Namespace) -> int:
    with _make_service(args) as service:
        shard = service.shard(args.name)
        matrix = service.matrix(args.name, measure=args.measure)
        cache_stats = service.cache_stats(args.name)
    series = shard.series
    if args.output:
        np.save(args.output, matrix)
        print(
            f"saved {matrix.shape[0]}x{matrix.shape[1]} {args.measure} "
            f"matrix to {args.output}"
        )
    else:
        print(f"# {args.measure} all-pairs distance matrix")
        for row in matrix:
            print("  ".join(f"{v:10.6g}" for v in row))
    if args.save:
        from repro.store import ExperimentStore

        with ExperimentStore(args.store) as store:
            store.save_corpus(args.name, args.save, series, matrix)
        print(
            f"# saved {matrix.shape[0]}-state corpus {args.save!r} "
            f"({args.measure} matrix) to {args.store}"
        )
    if args.cache_stats:
        _print_cache_stats(cache_stats, service.measure_requests())
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    service = _make_service(args)
    shard = service.shard(args.name)
    flagged: list[int] = []
    print(
        f"# watching {len(shard.series)} states (window={args.window}); "
        "scores lag one state (the spike score needs the right neighbour)"
    )
    with service:
        updates = service.watch(
            args.name, window=args.window, threshold=args.threshold
        )
        for update in updates:
            parts = [f"t={update.index:4d}"]
            if update.distance is not None:
                parts.append(f"d={update.distance:.6g}")
            if update.scored is not None:
                s = update.scored
                parts.append(
                    f"| transition {s.index}: score={s.score:+.4f} "
                    f"thr={s.threshold:.4f}"
                )
                if s.flagged:
                    flagged.append(s.index)
                    parts.append("*** ANOMALY")
            print("  ".join(parts))
        engine = shard.engine()
        transitions = engine.caches.transitions
        print(
            f"# {transitions.fresh} transitions solved, "
            f"{transitions.reused} reused from cache; "
            f"flagged: {flagged if flagged else 'none'}"
        )
        if args.cache_stats:
            _print_cache_stats(engine.caches.stats(), service.measure_requests())
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    service = _make_service(args)
    shard = service.shard(args.name)
    with service:
        if args.corpus_command == "build":
            result = service.corpus_build(args.name, args.corpus, first=args.first)
            print(
                f"built corpus {args.corpus!r}: {result['n_states']} states, "
                f"{result['pairs_solved']} pairs solved, "
                f"saved to {args.store}"
            )
        elif args.corpus_command == "extend":
            result = service.corpus_extend(args.name, args.corpus, take=args.take)
            if result["added"] == 0:
                print(
                    f"corpus {args.corpus!r} already covers all "
                    f"{result['series_states']} series states; nothing to extend"
                )
                return 0
            k, old_n = result["added"], result["old_n"]
            print(
                f"extended corpus {args.corpus!r} by {k} states "
                f"({old_n} -> {result['n_states']}): solved {result['solved']} "
                f"new pairs (k*N + k*(k-1)/2 = {k * old_n + k * (k - 1) // 2}), "
                f"reused {old_n * (old_n - 1) // 2} existing"
            )
        else:  # query
            if not 0 <= args.state < len(shard.series):
                print(
                    f"error: --state must be in [0, {len(shard.series) - 1}]",
                    file=sys.stderr,
                )
                return 1
            neighbours = service.corpus_query(
                args.name, args.corpus, args.state, k=args.k
            )
            print(
                f"# {len(neighbours)} nearest corpus members to series "
                f"state {args.state}"
            )
            for rank, (idx, dist) in enumerate(neighbours):
                print(f"{rank + 1:3d}. corpus[{idx}]  d={dist:.6g}")
        if args.cache_stats:
            _print_cache_stats(
                shard.engine().caches.stats(), service.measure_requests()
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import EngineConfig, SNDService
    from repro.serve.http import serve_forever

    config = EngineConfig(
        clusters=args.clusters,
        solver=args.solver,
        jobs=_config_jobs(args.jobs),
        max_pending=args.max_pending,
        client_max_pending=args.client_max_pending,
        memory_budget=args.memory_budget,
        persist_transitions=not args.no_persist,
        client=args.client,
        priority="normal" if args.priority is None else args.priority,
    )
    if args.flush_interval is not None:
        config = config.replace(flush_interval=args.flush_interval)
    service = SNDService(args.store, config=config)
    return serve_forever(service, host=args.host, port=args.port)


def _cmd_bakeoff(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.bakeoff import (
        DEFAULT_MEASURES,
        default_regimes,
        run_bakeoff,
    )

    measures = args.measures if args.measures else list(DEFAULT_MEASURES)
    regimes = default_regimes(n_nodes=args.nodes, n_states=args.states)
    results = run_bakeoff(
        measures=measures,
        regimes=regimes,
        include_twitter=not args.no_twitter,
        twitter_users=args.twitter_users,
        n_targets=args.targets,
        window=args.window,
        n_repeats=args.repeats,
        n_assignments=args.assignments,
        seed=args.seed,
        progress=lambda line: print(f"# {line}", file=sys.stderr),
    )
    header = (
        f"{'regime':16s} {'measure':14s} {'auc':>6s} "
        f"{'tpr@0.3':>8s} {'acc%':>6s} {'±':>5s}"
    )
    print(header)
    print("-" * len(header))
    for regime_name, entry in results["regimes"].items():
        for measure in results["measures"]:
            anomaly = entry["anomaly"][measure]
            prediction = entry["prediction"][measure]
            print(
                f"{regime_name:16s} {measure:14s} {anomaly['auc']:6.3f} "
                f"{anomaly['tpr_at_fpr_0.3']:8.3f} "
                f"{prediction['accuracy_mean']:6.1f} "
                f"{prediction['accuracy_std']:5.1f}"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"# wrote full results to {args.json}", file=sys.stderr)
    return 0


_EXPERIMENT_MODULES = {
    "fig5": "bench_fig05_cluster_intuition",
    "fig7": "bench_fig07_anomaly_series",
    "fig8": "bench_fig08_roc",
    "fig10": "bench_fig10_model_sensitivity",
    "table1": "bench_table1_prediction",
}


def _find_benchmarks_dir():
    """Locate the benchmarks/ directory (cwd first, then the repo layout
    relative to this file for editable installs)."""
    from pathlib import Path

    candidates = [
        Path.cwd() / "benchmarks",
        Path(__file__).resolve().parents[2] / "benchmarks",
    ]
    for candidate in candidates:
        if (candidate / "common.py").exists():
            return candidate
    return None


def _cmd_experiment(args: argparse.Namespace) -> int:
    # The benchmark modules double as runnable experiment harnesses.
    bench_dir = _find_benchmarks_dir()
    if bench_dir is None:
        print(
            "error: cannot locate the benchmarks/ directory; run from the "
            "repository root",
            file=sys.stderr,
        )
        return 1
    sys.path.insert(0, str(bench_dir))
    import importlib

    module = importlib.import_module(_EXPERIMENT_MODULES[args.name])
    module.run_experiment(verbose=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "distance":
        return _cmd_distance(args)
    if args.command == "distance-matrix":
        return _cmd_distance_matrix(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bakeoff":
        return _cmd_bakeoff(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
