"""Metric helpers shared by the three workloads: latency summaries,
peak RSS, the exact-counter block, counter-derived layer metrics and the
run environment record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Bank clusters for every workload (the ROADMAP baseline measurement).
N_CLUSTERS = 24

#: Set-up is timed at least SETUPS_MIN times and until SETUP_BUDGET_S
#: have gone into it; ``setup_s`` is the median. A short set-up (corpus-2k
#: takes ~0.7 s) then gets enough repeats for a steady median.
SETUPS_MIN = 3
SETUP_BUDGET_S = 6.0


def setups_done(times: list[float]) -> bool:
    return len(times) >= SETUPS_MIN and sum(times) >= SETUP_BUDGET_S


#: Relative tolerance for oracle comparisons (values reach ~1e4 at n=20k,
#: so an absolute 1e-9 would test HiGHS's last bits, not correctness).
ORACLE_TOL = 1e-9


def close_to(value: float, reference: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= ORACLE_TOL * max(
        1.0, abs(reference)
    )


def latency_metrics(
    latencies_s, ops_per_s: float, slo_ok: int, ok: int, attempted: int, scale: float
) -> dict:
    """The end-to-end metrics every workload reports (bar set-up and RSS),
    with every latency multiplied by the host-speed *scale* (``hostspeed``).

    ``latency_p99_ms`` is the p99 when at least ten samples lie beyond it
    (>= 1 000 ops); with fewer ops it is the highest percentile that still
    has ten samples beyond it (p90 at >= 100 ops), never an extrapolation.
    """
    lat = np.asarray(latencies_s, dtype=np.float64) * (1e3 * scale)
    n = lat.size
    tail = 99.0 if n >= 1000 else 90.0
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "latency_p99_ms": (float(np.percentile(lat, tail)), "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "slo_frac": (slo_ok / attempted, "ratio"),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# --------------------------------------------------------------------- #
# Exact counters
# --------------------------------------------------------------------- #


def exact_counters(stats: dict) -> dict[str, int]:
    """Host-independent counts from an engine (or shard) stats tree."""
    caches, sched, ns = stats["caches"], stats["scheduler"], stats["network_simplex"]
    out = {f"scheduler.{k}": sched[k] for k in ("requested", "cache_answered", "coalesced", "solved")}
    for cache in ("ground", "rows", "transitions", "bases"):
        out[f"{cache}.hits"] = caches[cache]["hits"]
        out[f"{cache}.misses"] = caches[cache]["misses"]
    for channel in ("exact", "reverse", "supplier"):
        out[f"bases.{channel}_hits"] = caches["bases"][f"{channel}_hits"]
    for key in ("solves", "warm_solves", "cold_pivots", "warm_pivots"):
        out[f"network_simplex.{key}"] = ns[key]
    return out


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(d: dict, terms: int) -> dict:
    """Per-layer ratios derived from an exact-counter delta *d*."""
    lookups = d["bases.hits"] + d["bases.misses"]
    out = {
        "scheduler.cache_answered_frac": (
            _frac(d["scheduler.cache_answered"], d["scheduler.requested"]), "ratio"),
        "scheduler.coalesced": (float(d["scheduler.coalesced"]), "count"),
        "scheduler.solved": (float(d["scheduler.solved"]), "count"),
        "ground.builds": (float(d["ground.misses"]), "count"),
        "ground.hit_frac": (_frac(d["ground.hits"], d["ground.hits"] + d["ground.misses"]), "ratio"),
        "rows.sources_per_term": (_frac(d["rows.hits"] + d["rows.misses"], terms), "count"),
        "rows.hit_frac": (_frac(d["rows.hits"], d["rows.hits"] + d["rows.misses"]), "ratio"),
        "solve.pivots_per_solve": (
            _frac(d["network_simplex.cold_pivots"] + d["network_simplex.warm_pivots"],
                  d["network_simplex.solves"]), "count"),
        "solve.warm_frac": (
            _frac(d["network_simplex.warm_solves"], d["network_simplex.solves"]), "ratio"),
        "transitions.hit_frac": (
            _frac(d["transitions.hits"], d["transitions.hits"] + d["transitions.misses"]), "ratio"),
    }
    for channel in ("exact", "reverse", "supplier"):
        out[f"basis.hit_frac.{channel}"] = (_frac(d[f"bases.{channel}_hits"], lookups), "ratio")
    return out


# --------------------------------------------------------------------- #
# Environment and input digests
# --------------------------------------------------------------------- #


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program and benchmark sources (the counter record is
    only compared between runs of identical code)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import scipy

    sha = None  # a plain checkout has no .git; source_digest identifies the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_digest": source_digest(),
    }
