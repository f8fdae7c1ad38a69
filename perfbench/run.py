"""Run one workload of the SND benchmark and print its result.

    python3 perfbench/run.py --slo-ms sweep-20k=500,corpus-2k=400,serve-2k=100 \\
        --workload corpus-2k --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The line before it records the
environment, the input digest and the exact-counter block. Scratch files
live under ``.perfbench_work/`` in the checkout; the exact-counter block
of every (workload, seed, trace, seconds) is kept there and a later run
of identical code and inputs must reproduce it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-20k", "corpus-2k", "serve-2k")


def _slo(text: str) -> dict[str, float]:
    """``name=ms,...`` -> per-workload latency limit (all three required)."""
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        limits[name.strip()] = float(value)
    missing = set(WORKLOADS) - set(limits)
    if missing:
        raise argparse.ArgumentTypeError(f"no latency limit for {sorted(missing)}")
    return limits


def _check_counters(work: Path, args, env: dict, result: dict) -> list[str]:
    """Compare the exact-counter block with the first run of the same
    code, inputs and settings (recorded on first sight)."""
    record = work / "counters" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-s{args.seconds}.json"
    )
    mine = {
        "source_digest": env["source_digest"],
        "inputs_digest": result["digest"],
        "counters": result["counters"],
    }
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier["source_digest"] == mine["source_digest"]:
            return [
                f"{key}: not the same as in an earlier run of this seed"
                for key in ("inputs_digest", "counters")
                if earlier[key] != mine[key]
            ]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(mine, indent=1, sort_keys=True))
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", type=_slo, required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One core for everything, the served process and its load generator
    # included: engines are serial, and on a small VM a request handed
    # between idle cores pays wake-up latency that would swamp the
    # cache-hit path being measured.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import engine_workloads
    import serve_workload
    from measure import environment

    work = ROOT / ".perfbench_work"
    run_dir = work / f"run-{os.getpid()}"
    env = environment()
    if args.workload == "serve-2k":
        if args.trace:
            result = serve_workload.run_traced(args.seed, args.seconds, run_dir)
        else:
            result = serve_workload.run_timed(
                args.seed, args.seconds, args.slo_ms[args.workload], run_dir
            )
        shutil.rmtree(run_dir)
    elif args.trace:
        result = engine_workloads.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = engine_workloads.run_timed(
            args.workload, args.seed, args.seconds, args.slo_ms[args.workload]
        )

    problems = result.get("problems", []) + _check_counters(work, args, env, result)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "env": env,
        "inputs_digest": result["digest"],
        "host": result.get("host"),
        "counters": result["counters"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
