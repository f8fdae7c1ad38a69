"""serve-2k: ``repro-snd serve`` in its own process, driven open-loop.

The server runs through :mod:`serve_launcher` (``jobs=1``, persistence on)
on a private copy of a generated store. One load generator — this
process — sends the seeded request trace open-loop at a fixed rate below
saturation over two keep-alive connections, one for repeated pairs and
one for first-seen pairs; each request is timed from its *scheduled*
send time, so a stall also delays the requests queued behind it.

Every 200 body is compared bitwise with the library value for its pair,
computed before any server starts by an engine built from the same
configuration that solves the pairs in the order the server first sees
them (warm-start bases then evolve identically).
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from hostspeed import HostSpeed
from measure import (
    ROOT,
    counter_metrics,
    delta,
    exact_counters,
    latency_metrics,
    peak_rss_mb,
    setups_done,
)
from serve_launcher import engine_config
from tracer import layer_metrics, self_times, solve_counters, tier_counts

#: Offered load (requests/s): 12 solves a second keep one core ~30 % busy,
#: well below saturation.
RATE = 15.0
CONNECTIONS = 2
GRAPH = "g"
LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
HOSTSPEED = Path(__file__).resolve().parent / "hostspeed.py"
START_TIMEOUT_S = 60


def flush_interval(seconds: float) -> float:
    """Three periodic flushes inside a run of *seconds* (plus the one at
    shutdown): the server lives ~2 s of set-up and warm-up longer."""
    return (seconds + 1.5) / 3.5


def write_store(path: Path, data: inputs.ServeInputs) -> None:
    from repro.opinions.state import StateSeries
    from repro.store import ExperimentStore

    with ExperimentStore(path) as store:
        store.save_graph(GRAPH, data.graph)
        store.save_series(GRAPH, "series", StateSeries(data.series))


def library_values(store_path: Path, data: inputs.ServeInputs, flush: float) -> dict:
    """The value the server must return for every pair of the trace."""
    from repro.snd import SND
    from repro.store import ExperimentStore

    config = engine_config(flush)
    with ExperimentStore(store_path) as store:
        graph = store.load_graph(GRAPH)
        series = store.load_series(GRAPH, "series")
    engine = SND(graph, **config.snd_kwargs()).create_engine(**config.engine_kwargs())
    with engine:
        return {
            (i, j): engine.scheduler.submit(
                series[i], series[j], transitions=engine.caches.transitions
            )
            for i, j in data.solve_order
        }


class Server:
    """One launcher process serving one store copy."""

    def __init__(self, store: Path, flush: float, trace_out: Path | None, log: Path) -> None:
        cmd = [sys.executable, str(LAUNCHER), "--store", str(store), "--flush-interval", str(flush)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        self.port = self._read_port()
        self.conn = _Conn(self.port)

    def _read_port(self) -> int:
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server did not start")

    def distance(self, pair):
        return _post(self.conn, pair)

    def stats(self) -> dict:
        _, payload = self.conn.request("GET", "/v1/stats")
        return json.loads(payload)["shards"][GRAPH]

    def stop(self) -> None:
        """SIGTERM (graceful: flush, then exit) and wait for the process."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class _Conn:
    """A minimal HTTP/1.1 keep-alive client: one request in flight, no
    header parsing beyond ``Content-Length`` (the load generator shares
    its core with the server, so it spends as little CPU as it can)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None
        self.buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self.sock.sendall(
                f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                .encode("ascii") + body
            )
            while b"\r\n\r\n" not in self.buf:
                self._fill()
            head, self.buf = self.buf.split(b"\r\n\r\n", 1)
            lines = head.decode("latin-1").lower().split("\r\n")
            headers = dict(line.split(":", 1) for line in lines[1:])
            length = int(headers["content-length"])
            while len(self.buf) < length:
                self._fill()
            payload, self.buf = self.buf[:length], self.buf[length:]
            return int(lines[0].split()[1]), payload
        except (OSError, ValueError, KeyError) as exc:
            self.close()
            raise ConnectionError(f"{method} {path} failed: {exc}") from exc

    def _fill(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock, self.buf = None, b""


def _post(conn: _Conn, pair) -> tuple[int, float | None]:
    """``POST /v1/distance`` for *pair*: ``(status, value)``."""
    body = json.dumps({"name": GRAPH, "i": pair[0], "j": pair[1]}).encode()
    status, payload = conn.request("POST", "/v1/distance", body)
    return status, json.loads(payload)["distance"] if status == 200 else None


def _load(port: int, requests, lanes, rate: float, t0: float) -> list:
    """Open-loop send: request k is due at ``t0 + k / rate`` and goes out
    on connection ``lanes[k]``; returns (due, sent, done, status, value)
    per request."""
    results: list = [None] * len(requests)

    def worker(lane: int) -> None:
        conn = _Conn(port)
        try:
            for k in (k for k in range(len(requests)) if lanes[k] == lane):
                due = t0 + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    status, value = _post(conn, requests[k])
                except OSError:  # the connection is reopened on the next request
                    status, value = 0, None
                results[k] = (due, sent, time.perf_counter(), status, value)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class _Session:
    """A served pass: spawn, probe (set-up ends), warm-up, trace, stats."""

    def __init__(self, work: Path, base: Path, name: str, flush: float, trace: bool) -> None:
        store = work / f"{name}.sqlite"
        shutil.copyfile(base, store)
        self.store = store
        self.trace_out = work / f"{name}.trace.json" if trace else None
        self.server = Server(store, flush, self.trace_out, work / "server.log")
        self.problems: list[str] = []

    def probe(self, data, expected) -> float:
        status, value = self.server.distance(data.probe)
        self.setup_s = time.perf_counter() - self.server.started
        self.probe_done = time.perf_counter()
        if status != 200 or value != expected[data.probe]:
            self.problems.append(f"probe {data.probe}: {status} {value}")
        return self.setup_s

    def serve(self, data, requests, expected) -> None:
        for pair in data.hot:
            status, value = self.server.distance(pair)
            if status != 200 or value != expected[pair]:
                self.problems.append(f"warm-up {pair}: {status} {value}")
        self.before = self.server.stats()
        # First-seen pairs get their own connection, so a repeat is never
        # queued behind a solve in the client: solves reach the repeats
        # only through the server (GIL and core), which is what p99 shows.
        seen, lanes = {data.probe, *data.hot}, []
        for pair in requests:
            lanes.append(0 if pair in seen else 1)
            seen.add(pair)
        self.t0 = time.perf_counter() + 0.05
        self.results = _load(self.server.port, requests, lanes, RATE, self.t0)
        self.after = self.server.stats()
        self.rss = peak_rss_mb(self.server.proc.pid)
        self.server.stop()
        stats = self.after["scheduler"]
        # the scheduler keys pairs by state content, and a quiet step can
        # repeat a state, so count distinct content pairs
        fingerprint = [s.values.tobytes() for s in data.series]
        distinct = len({
            (fingerprint[i], fingerprint[j]) for i, j in [data.probe] + data.hot + list(requests)
        })
        if stats["solved"] + stats["cache_answered"] + stats["coalesced"] != stats["requested"]:
            self.problems.append(f"scheduler counters do not add up: {stats}")
        if stats["solved"] != distinct:
            self.problems.append(f"solved {stats['solved']} != {distinct} distinct pairs")
        from repro.store import ExperimentStore

        with ExperimentStore(self.store) as store:
            self.rows = store.count_transitions(GRAPH)
        if self.rows != distinct:
            self.problems.append(f"store holds {self.rows} rows, expected {distinct}")

    def good(self, k: int, requests, expected) -> bool:
        result = self.results[k]
        return result is not None and result[3] == 200 and result[4] == expected[requests[k]]

    def counters(self) -> dict:
        counters = exact_counters(self.after)
        counters["store.rows"] = self.rows
        return counters

    def close(self) -> None:
        if self.server.proc.poll() is None:
            self.server.stop()


class _IdleSampler:
    """The reference kernel (``hostspeed``) back to back at SCHED_IDLE
    priority: it runs only when nothing else on the core wants to, and any
    woken server or client thread preempts it."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.samples: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HOSTSPEED), "--idle", str(out)],
            preexec_fn=lambda: os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0)),
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.out.exists():
            self.samples = [tuple(s) for s in json.loads(self.out.read_text())]

    def speed(self, start: float, end: float) -> HostSpeed:
        """The samples that started inside ``[start, end]``."""
        speed = HostSpeed()
        speed.samples = [d for t, d in self.samples if start <= t <= end]
        return speed


@contextlib.contextmanager
def _core_awake(work: Path):
    """Keep the benchmark's core out of its idle state while serving, and
    sample the host's speed in the time it would have idled.

    The core would otherwise halt between requests, and on a VM every
    request would then pay the core's wake-up. Solves stall on the same
    wake-ups: without a busy loop here the p99 of a solve-heavy trace was
    two to three times higher and far noisier.
    """
    sampler = _IdleSampler(work / "hostspeed.json")
    try:
        yield sampler
    finally:
        sampler.stop()


def _prepare(seed: int, seconds: float, work: Path):
    data = inputs.serve_inputs(seed, int(RATE * seconds), RATE)
    work.mkdir(parents=True, exist_ok=True)
    base = work / "base.sqlite"
    write_store(base, data)
    flush = flush_interval(seconds)
    return data, base, flush, library_values(base, data, flush)


def run_timed(seed: int, seconds: int, slo_ms: float, work: Path) -> dict:
    data, base, flush, expected = _prepare(seed, seconds, work)
    setup_times, sessions = [], []
    with contextlib.ExitStack() as stack:
        sampler = stack.enter_context(_core_awake(work))
        stack.callback(lambda: [s.close() for s in sessions])
        while True:
            session = _Session(work, base, f"setup{len(sessions)}", flush, trace=False)
            sessions.append(session)
            setup_times.append(session.probe(data, expected))
            if setups_done(setup_times):
                break
            session.close()
        session.serve(data, data.requests, expected)
    requests = data.requests
    t_end = max(r[2] for r in session.results)
    speed = sampler.speed(session.t0, t_end)
    scale = speed.scale()
    latencies = [done - due for due, _, done, _, _ in session.results]
    ok_flags = [session.good(k, requests, expected) for k in range(len(requests))]
    slo_ok = sum(
        ok and lat * scale * 1e3 <= slo_ms for ok, lat in zip(ok_flags, latencies)
    )
    metrics = {"setup_s": (statistics.median(setup_times) * scale, "s")}
    # an open loop: the rate is the offered load unless the server falls
    # behind, so it is not scaled by the host's speed
    rate = len(requests) / (t_end - session.t0)
    metrics.update(latency_metrics(latencies, rate, slo_ok, sum(ok_flags), len(requests), scale))
    metrics["peak_rss_mb"] = (session.rss, "MB")
    return {
        "attempted": len(requests),
        "failed": len(requests) - sum(ok_flags),
        "metrics": metrics,
        "counters": session.counters(),
        "digest": data.digest,
        "host": speed.record(),
        "problems": [p for s in sessions for p in s.problems],
    }


def run_traced(seed: int, seconds: int, work: Path) -> dict:
    """Two half-length passes on fresh servers: untraced, then traced."""
    half = seconds / 2
    data, base, flush, expected = _prepare(seed, half, work)
    requests = data.requests
    passes = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(_core_awake(work))
        stack.callback(lambda: [s.close() for s in passes])
        for name, trace in (("plain", False), ("traced", True)):
            session = _Session(work, base, name, flush, trace)
            passes.append(session)
            session.probe(data, expected)
            session.serve(data, requests, expected)
    plain, traced = passes
    dump = json.loads(traced.trace_out.read_text())
    spans, selects = dump["spans"], dump["selects"]
    self_time = self_times(spans)
    t_end = max(r[2] for r in traced.results)
    in_run = [s for s in spans if traced.t0 <= s[1] <= t_end]
    in_setup = [s for s in spans if s[1] <= traced.probe_done]
    service = [r[2] - r[1] for r in traced.results]
    op_wall = sum(service)
    n_ops = len(requests)
    metrics = layer_metrics(in_run, self_time, n_ops, op_wall)
    http_s = op_wall - sum(s[2] - s[1] for s in in_run if s[0] == "service")
    metrics["http.calls"] = (1.0, "count/op")
    metrics["http.self_ms"] = (1e3 * http_s / n_ops, "ms")
    metrics["http.share"] = (http_s / op_wall, "ratio")
    d = delta(exact_counters(traced.after), exact_counters(traced.before))
    metrics.update(counter_metrics(d, sum(s[0] == "term" for s in in_run)))
    run_selects = [x for x in selects if traced.t0 <= x[0] <= t_end]
    metrics.update(solve_counters(run_selects))
    # save_transitions is the only store call returning an int (rows written)
    flushes = [s for s in spans if s[0] == "store" and s[6] is not None]
    banks_s = sum(s[2] - s[1] for s in in_setup if s[0] == "banks")
    late = [(sent - due) * 1e3 for due, sent, _, _, _ in plain.results]
    metrics.update(
        {
            "banks.setup_s": (banks_s, "s"),
            "banks.setup_share": (banks_s / traced.setup_s, "ratio"),
            "store.setup_s": (sum(s[2] - s[1] for s in in_setup if s[0] == "store"), "s"),
            "store.flush_ms": (
                1e3 * sum(s[2] - s[1] for s in flushes) / max(1, len(flushes)), "ms"),
            "store.flush_rows": (sum(s[6] for s in flushes) / max(1, len(flushes)), "count"),
            "caches.nbytes_mb": (traced.after["caches"]["total_nbytes"] / 1e6, "MB"),
            "loadgen.late_ms_p99": (float(np.percentile(late, 99)), "ms"),
            "op.wall_ms": (1e3 * op_wall / n_ops, "ms"),
            "trace.unattributed_frac": (0.0, "ratio"),
            "trace.overhead_frac": (
                1.0 - np.median([r[2] - r[1] for r in plain.results]) / np.median(service),
                "ratio"),
        }
    )
    good = sum(s.good(k, requests, expected) for s in passes for k in range(n_ops))
    counters = traced.counters()
    counters.update(tier_counts(run_selects))
    return {
        "attempted": 2 * n_ops,
        "failed": 2 * n_ops - good,
        "metrics": metrics,
        "counters": counters,
        "digest": data.digest,
        "problems": plain.problems + traced.problems,
    }
