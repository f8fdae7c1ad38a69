"""Social Network Distance (SND) — the paper's core contribution (§3-§5).

:class:`SND` is the user-facing facade::

    from repro import SND, ModelAgnostic
    snd = SND(graph, model=ModelAgnostic(), n_clusters=8)
    value = snd.distance(state_a, state_b)

Internally each call evaluates the four EMD* terms of Eq. 3 with ground
distances built from Eq. 2, using the linear-time reduced pipeline of
Theorem 4 (:mod:`repro.snd.fast`); :mod:`repro.snd.direct` computes the
same quantity without the reduction, for validation and the Fig. 11
baseline.

Batch workloads — whole-series sweeps and all-pairs matrices — run
through a one-call :class:`~repro.snd.engine.SNDEngine`::

    distances = snd.evaluate_series(series, jobs=4)   # d_t = SND(G_t, G_{t+1})
    matrix = snd.pairwise_matrix(series)              # symmetric, zero diagonal

Every entry point shares the instance's unified cache hierarchy
(:class:`~repro.snd.cache.CacheManager`: Eq. 2 cost arrays, per-source
shortest-path rows, finished transition values — one optional memory
budget, one stats surface), and every return value equals the per-pair
loop's: bitwise for cold solvers, within 1e-9 under warm starts (see
:mod:`repro.snd.engine`). ``evaluate_series(window=W)`` additionally runs
the incremental sliding-window mode: each one-state window shift
re-solves exactly one fresh transition.

Online workloads — repeated sweeps, growing corpora, state streams — hold
a persistent engine (:mod:`repro.snd.engine`) whose workers attach once
to a shared-memory state matrix::

    with snd.create_engine(jobs=4) as engine:
        engine.evaluate_series(series)            # pool launched once
        corpus = Corpus(engine, list(series))
        corpus.extend(new_states)                 # solves only the new pairs
        for update in engine.stream(arriving):    # online anomaly detection
            ...
"""

from repro.snd.banks import BankAllocation, allocate_banks
from repro.snd.cache import (
    CacheManager,
    DijkstraRowCache,
    GroundCostCache,
    TransitionCache,
)
from repro.snd.direct import snd_direct
from repro.snd.engine import Corpus, SNDEngine, StreamUpdate
from repro.snd.ground import GroundDistanceConfig, build_edge_costs, quantize_costs
from repro.snd.scheduler import DEFAULT_MAX_PENDING, PairScheduler, resolve_jobs
from repro.snd.snd import SND

__all__ = [
    "SND",
    "SNDEngine",
    "Corpus",
    "StreamUpdate",
    "PairScheduler",
    "DEFAULT_MAX_PENDING",
    "resolve_jobs",
    "snd_direct",
    "BankAllocation",
    "allocate_banks",
    "CacheManager",
    "DijkstraRowCache",
    "GroundCostCache",
    "TransitionCache",
    "GroundDistanceConfig",
    "build_edge_costs",
    "quantize_costs",
]
