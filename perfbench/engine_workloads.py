"""sweep-20k and corpus-2k: in-process, serial (``jobs=1``) engines.

Both workloads share one shape. Set-up (SND construction — bank
allocation — plus engine or corpus creation) is timed a few times
(``measure.setups_done``) and the median reported; then ops run until
``--seconds`` have passed. Every timing is scaled by the host's speed
(``hostspeed``): set-up by samples taken around the set-ups, ops by
samples taken between them. The
first ``COUNTER_OPS`` ops also fix the exact-counter block. A fixed
sample of ops is re-checked afterwards against the HiGHS ``lp`` oracle.

The traced run (``--trace 1``) runs the same fixed number of ops twice
from a fresh set-up: untraced, then with every layer wrapped, which gives
both the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

import inputs
from measure import (
    N_CLUSTERS,
    close_to,
    counter_metrics,
    delta,
    exact_counters,
    latency_metrics,
    peak_rss_mb,
    setups_done,
)
from repro.analysis.anomaly import StreamingAnomalyDetector, detect_anomalies
from repro.snd import SND, Corpus, SNDEngine
from hostspeed import HostSpeed
from tracer import Tracer, layer_metrics, self_times, solve_counters, tier_counts

#: Reference-kernel samples taken before each set-up and after the last.
SETUP_SAMPLES = 10
#: Ops whose counter deltas form the exact-counter block of a timed run.
COUNTER_OPS = 30
#: Every ORACLE_EVERY-th op (up to ORACLE_MAX) is re-solved by the oracle.
ORACLE_EVERY = 10
ORACLE_MAX = 6
#: Ops per second the inputs are sized for (over twice today's rate); a
#: faster program ends its timed run when the inputs run out.
SWEEP_MAX_OPS_PER_S = 20
CORPUS_MAX_OPS_PER_S = 25
#: Ops per pass of a traced run, per second of --seconds (~half of a
#: timed run's ops each for the untraced and the traced pass).
SWEEP_TRACE_OPS_PER_S = 2.5
CORPUS_TRACE_OPS_PER_S = 3.5
#: Neighbours per corpus query.
K_NEAREST = 3


def _snd(graph) -> SND:
    return SND(graph, n_clusters=N_CLUSTERS, seed=0, solver="auto")


def _oracle(engine: SNDEngine) -> SND:
    """HiGHS on the same graph and banks (no bank re-allocation)."""
    return SND(engine.snd.graph, banks=engine.snd.banks, solver="lp")


class _Pass:
    """Latencies, failures and counters of one run over the op sequence."""

    def __init__(self, engine: SNDEngine, tracer: Tracer | None, counter_ops,
                 speed: HostSpeed | None) -> None:
        self.engine = engine
        self.tracer = tracer
        self.speed = speed
        self.speed_s = 0.0  # time spent sampling the host's speed
        self.latencies: list[float] = []
        self.bad: set[int] = set()  # indices of failed ops
        self.samples: list[tuple] = []
        self.counters: dict | None = None
        self._counter_ops = counter_ops
        self._before = exact_counters(engine.stats())
        self.wall = 0.0

    @property
    def failed(self) -> int:
        return len(self.bad)

    def run_op(self, fn, *args):
        """Time one op; returns its result or ``None`` when it raised."""
        op = len(self.latencies)
        tracer = self.tracer
        start = time.perf_counter()
        try:
            if tracer is None:
                result = fn(*args)
            else:
                tracer.op = op
                result = tracer.call("op", fn, *args)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            result = None
            self.bad.add(op)
        self.latencies.append(time.perf_counter() - start)
        if self.speed is not None:
            self.speed_s += self.speed.sample()
        if len(self.latencies) == self._counter_ops:
            self.snapshot()
        return result

    def finish(self, start: float) -> None:
        self.wall = time.perf_counter() - start - self.speed_s
        if self.counters is None:
            self.snapshot()
        if self.tracer is not None:
            self.tracer.op = "oracle"  # the checks that follow are not ops

    def snapshot(self) -> None:
        self.counters = delta(exact_counters(self.engine.stats()), self._before)

    def between_ops(self) -> None:
        """Mark what runs next as no op's work (stream start and flush)."""
        if self.tracer is not None:
            self.tracer.op = None

    def sample(self, *item) -> None:
        """Keep the last op for the oracle check when it is in the sample."""
        op = len(self.latencies) - 1
        if op % ORACLE_EVERY == ORACLE_EVERY // 2 and len(self.samples) < ORACLE_MAX:
            self.samples.append((op, *item))


def _stop(run: _Pass, start: float, seconds: float | None, n_ops: int) -> bool:
    done = len(run.latencies)
    if done >= n_ops:
        return True
    return seconds is not None and done >= COUNTER_OPS and time.perf_counter() - start >= seconds


# --------------------------------------------------------------------- #
# sweep-20k
# --------------------------------------------------------------------- #


def _sweep_setup(graph) -> SNDEngine:
    return SNDEngine(_snd(graph), jobs=1)


def _sweep_pass(engine, data, *, seconds, n_ops, tracer=None, speed=None) -> _Pass:
    """Stream episodes through ``SNDEngine.stream`` (the ``watch`` path).

    One op is one arriving state after an episode's first: one fresh SND
    plus one push into a fixed-threshold detector. The detector's flags
    are checked against offline ``detect_anomalies`` on the same
    distances; a mismatch fails every op of the episode.
    """
    run = _Pass(engine, tracer, COUNTER_OPS if seconds else None, speed)
    start = time.perf_counter()
    for states in data.episodes:
        if _stop(run, start, seconds, n_ops):
            break
        # scale=False with a threshold of 0 is sign-exact against the
        # offline detector, which divides every score by one positive max.
        detector = StreamingAnomalyDetector(threshold=0.0, scale=False)
        stream = engine.stream(states, detector=detector)
        run.between_ops()
        next(stream)  # the episode's first state has no transition
        distances, counts, first_op, broken = [], [], len(run.latencies), False
        for k in range(1, len(states)):
            if _stop(run, start, seconds, n_ops):
                break
            update = run.run_op(next, stream)
            if update is None or update.distance is None or not (
                math.isfinite(update.distance) and update.distance >= 0
            ):
                run.bad.add(len(run.latencies) - 1)
                broken = True
                break
            distances.append(update.distance)
            counts.append(states[k].n_active)
            run.sample(states[k - 1], states[k], update.distance)
        if not broken and len(distances) == len(states) - 1:
            run.between_ops()
            for _ in stream:  # final flush: scores the last transition
                pass
        stream.close()
        if distances and not broken and not _flags_match(detector, distances, counts):
            run.bad.update(range(first_op, len(run.latencies)))
    run.finish(start)
    oracle = _oracle(engine)
    for op, a, b, value in run.samples:
        if not close_to(value, oracle.distance(a, b)):
            run.bad.add(op)
    return run


def _flags_match(detector, distances, counts) -> bool:
    scored = {s.index for s in detector.results}
    streamed = {s.index for s in detector.results if s.flagged}
    offline = detect_anomalies(
        np.asarray(distances), active_counts=np.asarray(counts, dtype=np.float64),
        threshold=0.0,
    )
    return streamed == {int(i) for i in offline.flagged} & scored


# --------------------------------------------------------------------- #
# corpus-2k
# --------------------------------------------------------------------- #


def _corpus_setup(data) -> Corpus:
    return Corpus(SNDEngine(_snd(data.graph), jobs=1), data.members)


def _corpus_pass(corpus, data, *, seconds, n_ops, tracer=None, speed=None) -> _Pass:
    """One op is ``Corpus.query(q, k)`` for a fresh state: one solved pair
    per member. Sampled ops are checked pair by pair against the oracle."""
    run = _Pass(corpus.engine, tracer, COUNTER_OPS if seconds else None, speed)
    start = time.perf_counter()
    for query in data.queries:
        if _stop(run, start, seconds, n_ops):
            break
        result = run.run_op(corpus.query, query, K_NEAREST)
        if result is None:
            continue
        dists = [d for _, d in result]
        if (
            len(result) != K_NEAREST
            or any(not (0 <= i < len(data.members)) for i, _ in result)
            or any(not (math.isfinite(d) and d >= 0) for d in dists)
            or dists != sorted(dists)
        ):
            run.bad.add(len(run.latencies) - 1)
        else:
            run.sample(query, result)
    run.finish(start)
    oracle = _oracle(corpus.engine)
    for op, query, result in run.samples:
        reference = [oracle.distance(query, m) for m in data.members]
        nearest = sorted(reference)[:K_NEAREST]
        if not all(close_to(d, reference[i]) for i, d in result) or not all(
            close_to(d, r) for (_, d), r in zip(result, nearest)
        ):
            run.bad.add(op)
    return run


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #

WORKLOADS = {
    # name: (inputs(seed, seconds), setup(data), pass, trace ops per second)
    "sweep-20k": (
        lambda seed, seconds: inputs.sweep_inputs(seed, seconds * SWEEP_MAX_OPS_PER_S),
        lambda data: _sweep_setup(data.graph),
        _sweep_pass,
        SWEEP_TRACE_OPS_PER_S,
    ),
    "corpus-2k": (
        lambda seed, seconds: inputs.corpus_inputs(seed, seconds * CORPUS_MAX_OPS_PER_S),
        _corpus_setup,
        _corpus_pass,
        CORPUS_TRACE_OPS_PER_S,
    ),
}


def _timed_setup(setup, data) -> tuple[float, object]:
    start = time.perf_counter()
    subject = setup(data)
    return time.perf_counter() - start, subject


def run_timed(name: str, seed: int, seconds: int, slo_ms: float) -> dict:
    make_inputs, setup, run_pass, _ = WORKLOADS[name]
    data = make_inputs(seed, seconds)
    setup_speed, speed = HostSpeed(), HostSpeed()
    setup_times: list[float] = []
    while not setups_done(setup_times):
        setup_speed.sample(SETUP_SAMPLES)
        subject = None  # one subject in memory at a time, as in use
        gc.collect()
        elapsed, subject = _timed_setup(setup, data)
        setup_times.append(elapsed)
    setup_speed.sample(SETUP_SAMPLES)
    run = run_pass(subject, data, seconds=seconds, n_ops=data.n_ops, speed=speed)
    rss = peak_rss_mb()
    scale = speed.scale()
    attempted = len(run.latencies)
    ok = attempted - run.failed
    slo_ok = sum(
        lat * scale * 1e3 <= slo_ms and op not in run.bad
        for op, lat in enumerate(run.latencies)
    )
    metrics = {"setup_s": (statistics.median(setup_times) * setup_speed.scale(), "s")}
    rate = attempted / (run.wall * scale)
    metrics.update(latency_metrics(run.latencies, rate, slo_ok, ok, attempted, scale))
    metrics["peak_rss_mb"] = (rss, "MB")
    return {
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
        "counters": run.counters,
        "digest": data.digest,
        "host": {"setup": setup_speed.record(), "ops": speed.record()},
    }


def run_traced(name: str, seed: int, seconds: int) -> dict:
    make_inputs, setup, run_pass, trace_rate = WORKLOADS[name]
    data = make_inputs(seed, seconds)
    n_ops = max(COUNTER_OPS, round(seconds * trace_rate))

    _, subject = _timed_setup(setup, data)
    plain = run_pass(subject, data, seconds=None, n_ops=n_ops)

    tracer = Tracer().install()
    try:
        tracer.op = "setup"
        setup_s, subject = _timed_setup(setup, data)
        tracer.selects.clear()
        traced = run_pass(subject, data, seconds=None, n_ops=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    engine = subject.engine if isinstance(subject, Corpus) else subject

    spans = tracer.spans
    self_time = self_times(spans)
    setup_spans = [s for s in spans if s[4] == "setup"]
    ops = [s for s in spans if s[0] == "op"]
    run_spans = [s for s in spans if isinstance(s[4], int) and s[0] != "op"]
    op_wall = sum(s[2] - s[1] for s in ops)
    banks_s = sum(s[2] - s[1] for s in setup_spans if s[0] == "banks")
    metrics = layer_metrics(run_spans, self_time, len(ops), op_wall)
    metrics.update(counter_metrics(traced.counters, sum(s[0] == "term" for s in run_spans)))
    metrics.update(solve_counters(tracer.selects))
    metrics.update(
        {
            "banks.setup_s": (banks_s, "s"),
            "banks.setup_share": (banks_s / setup_s, "ratio"),
            "store.setup_s": (0.0, "s"),
            "store.flush_ms": (0.0, "ms"),
            "store.flush_rows": (0.0, "count"),
            "caches.nbytes_mb": (engine.caches.nbytes / 1e6, "MB"),
            "loadgen.late_ms_p99": (0.0, "ms"),
            "op.wall_ms": (1e3 * op_wall / len(ops), "ms"),
            "trace.unattributed_frac": (sum(self_time[s[5]] for s in ops) / op_wall, "ratio"),
            "trace.overhead_frac": (1.0 - sum(plain.latencies) / sum(traced.latencies), "ratio"),
        }
    )
    counters = dict(traced.counters)
    counters.update(tier_counts(tracer.selects))
    counters["term.calls"] = sum(s[0] == "term" for s in run_spans)
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "counters": counters,
        "digest": data.digest,
    }
