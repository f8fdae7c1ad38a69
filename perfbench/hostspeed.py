"""Host speed, measured by a fixed reference kernel, for scaling timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
10–20 % over minutes as other tenants come and go: an identical pure-
Python loop on this benchmark's 2-CPU VM took anywhere from 0.17 to 0.39 s
in one 90 s stretch. That drift, not the program, set the spread between
runs. So every timed run also times a *reference kernel* — fixed work in
the interpreter, numpy and scipy's compiled graph code, the mix an SND op
runs, and none of it the program's code — between its ops, and reports
each end-to-end timing scaled by ``REFERENCE_S / median(kernel time)``:
the time the op would have taken on a host that runs the kernel in
``REFERENCE_S``. A change to the program moves the op times and not the
kernel, so it shows in full.

The engine workloads run one kernel after every op (and around each
set-up), outside the timed spans. serve-2k cannot pause the server, so
its kernel runs in a separate process at ``SCHED_IDLE`` priority on the
benchmark's core, in the time the core would otherwise sit idle (which
also keeps that core out of its sleep state, see ``serve_workload``);
samples a woken server preempts are long and fall above the median.

    python3 perfbench/hostspeed.py --idle OUT   # the serve-2k sidecar
"""

from __future__ import annotations

import argparse
import heapq
import json
import signal
import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Median kernel time on the 2-CPU VM the benchmark was tuned on. Scaled
#: timings are in "ms on that host"; the constant only sets the units.
REFERENCE_S = 0.0032


def _fixed_graph(n: int = 2000, degree: int = 4) -> csr_matrix:
    rng = np.random.default_rng(12345)
    rows = np.repeat(np.arange(n), degree)
    cols = rng.integers(0, n, size=n * degree)
    weights = rng.random(n * degree) + 0.1
    return csr_matrix((weights, (rows, cols)), shape=(n, n))


_GRAPH = _fixed_graph()
_VALUES = np.random.default_rng(54321).random(20_000)
_HEAP_ITEMS = [((k * 7919) % 1000, k) for k in range(1500)]


def kernel() -> float:
    """Run the reference kernel once; its result keeps the work live."""
    rows = dijkstra(_GRAPH, indices=[0, 1])  # compiled graph code
    order = np.argsort(_VALUES)  # numpy array work
    heap, total = [], 0  # interpreter: a heap and a dict, like a Python Dijkstra
    seen: dict[int, int] = {}
    for item in _HEAP_ITEMS:
        heapq.heappush(heap, item)
    while heap:
        key, k = heapq.heappop(heap)
        seen[k] = key
        total += key
    return float(rows[0, -1]) + float(order[0]) + total + len(seen)


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples taken during one run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> float:
        """Time the kernel *times* times; returns the time spent."""
        start = time.perf_counter()
        for _ in range(times):
            self.samples.append(time_kernel())
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor turning a measured time into a reference-host time."""
        return REFERENCE_S / statistics.median(self.samples)

    def record(self) -> dict:
        """The run's host-speed record, printed beside the result."""
        return {
            "kernel_ms_median": 1e3 * statistics.median(self.samples),
            "samples": len(self.samples),
            "scale": self.scale(),
        }


def _idle(out: str) -> None:
    """Sample the kernel back to back until SIGTERM, then write
    ``[[start, seconds], ...]`` (``perf_counter`` clock) to *out*. The
    caller starts this process at SCHED_IDLE, so its imports run idle too."""
    samples: list[list[float]] = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop:
        start = time.perf_counter()
        kernel()
        samples.append([start, time.perf_counter() - start])
    with open(out, "w", encoding="ascii") as fh:
        json.dump(samples, fh)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="reference-kernel sampler")
    parser.add_argument("--idle", metavar="OUT", required=True)
    _idle(parser.parse_args().idle)
