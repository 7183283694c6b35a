"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark shares a few virtual CPUs with other tenants of its host.
Their load slows every process on the machine, by up to 1.8x for minutes
at a time, and all code slows together: on a 2-vCPU Xeon guest the
pipeline's per-operation time correlated 0.86 with a memory-bound numpy
kernel timed beside it. Ten runs of the unchanged program spread by 20-26 %
(quartile distance over median) in wall time.

So the benchmark times this kernel between operations and reports the
pipeline's times also at a fixed reference speed: each operation's
measured seconds times ``REFERENCE_S`` over the mean time of the kernel
runs just before and just after it. The speed drifts within a run over tens
of seconds, so the kernel runs that bracket an operation gauge it better
than the run's median kernel time: over five 50 s runs of halfwheel-cost,
bracketing cut the quartile spread of the batch time from 0.13 to 0.06.

The kernel is code of this benchmark and of numpy/scipy only, so a change
to the program cannot move it. It mixes what the pipeline spends its time
on: a HiGHS solve of a sparse LP through scipy's ``linprog`` (as
``vnembed.lpmodel`` calls it), a pure-Python graph search, and a random
gather over an array larger than the cache.
"""

from __future__ import annotations

import heapq
import json
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# About the kernel's time on an unloaded 2-vCPU Intel Xeon guest (Python
# 3.11, numpy 2.4, scipy 1.17), where its fastest runs took 0.14-0.16 s.
# Only ratios to it matter: it scales every reference-speed time alike.
REFERENCE_S = 0.15

LP_SOURCES = 110
LP_SINKS = 160
GRAPH_NODES = 10_000
GRAPH_DEGREE = 6
GATHER_ARRAY = 4_000_000
GATHER_COUNT = 3_000_000


class Kernel:
    """The inputs are built once; ``run`` times one pass over the three parts."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        m, n = LP_SOURCES, LP_SINKS
        # transportation LP: ship from m sources with given supply to n
        # sinks that together ask 90 % of it, at random unit costs
        self.c = rng.random(m * n)
        cols = np.arange(m * n)
        supply = sp.csr_matrix(
            (np.ones(m * n), (np.repeat(np.arange(m), n), cols)), shape=(m, m * n)
        )
        demand = sp.csr_matrix(
            (-np.ones(m * n), (np.tile(np.arange(n), m), cols)), shape=(n, m * n)
        )
        self.a_ub = sp.vstack([supply, demand]).tocsr()
        caps = rng.integers(5, 15, m).astype(float)
        self.b_ub = np.concatenate([caps, np.full(n, -0.9 * caps.sum() / n)])

        heads = rng.integers(0, GRAPH_NODES, GRAPH_NODES * GRAPH_DEGREE).tolist()
        tails = rng.integers(0, GRAPH_NODES, GRAPH_NODES * GRAPH_DEGREE).tolist()
        weights = rng.random(GRAPH_NODES * GRAPH_DEGREE).tolist()
        self.adjacency = [[] for _ in range(GRAPH_NODES)]
        for u, v, w in zip(heads, tails, weights):
            self.adjacency[u].append((v, w))
            self.adjacency[v].append((u, w))

        self.array = rng.random(GATHER_ARRAY)
        self.index = rng.integers(0, GATHER_ARRAY, GATHER_COUNT)
        self.expected = None

    def run(self) -> dict[str, float]:
        """Seconds per part; checks that every pass computes the same values."""
        t0 = time.perf_counter()
        res = linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(0, None),
                      method="highs")
        t1 = time.perf_counter()
        distance = self._shortest_paths()
        t2 = time.perf_counter()
        total = float(self.array[self.index].sum())
        t3 = time.perf_counter()
        times = {"lp": t1 - t0, "python": t2 - t1, "memory": t3 - t2}
        values = (res.status, res.fun, distance, total)
        if self.expected is None:
            self.expected = values
        elif values != self.expected:
            raise RuntimeError(f"calibration kernel changed its result: {values}")
        return times

    def _shortest_paths(self) -> float:
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self.adjacency[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return sum(dist.values())


class Gauge:
    """Times the kernel in a child process whenever ``interval`` seconds
    have passed since its last run.

    The child keeps the kernel's arrays out of the benchmark process, whose
    peak memory is a metric. It runs only while the benchmark waits for its
    answer, so nothing runs beside the program. Use as a context manager:
    leaving it ends the child and waits for it.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[dict[str, float]] = []
        self.last = float("-inf")
        self.child = None

    def __enter__(self):
        self.child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._run()  # warm-up: lazy imports and first-touch pages
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        self.child.wait()
        self.child.stdout.close()

    def _run(self) -> dict[str, float]:
        self.child.stdin.write("run\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("calibration kernel exited")
        return json.loads(line)

    def tick(self) -> int:
        """Runs the kernel if it is due; returns the index of the latest sample."""
        if time.perf_counter() - self.last >= self.interval:
            self.sample()
        return len(self.samples) - 1

    def sample(self) -> None:
        self.samples.append(self._run())
        self.last = time.perf_counter()

    def median(self) -> float:
        return float(np.median([sum(s.values()) for s in self.samples]))

    def scale(self, i: int) -> float:
        """Factor from seconds measured between samples ``i`` and ``i + 1``
        to reference seconds."""
        around = self.samples[i : i + 2]
        return REFERENCE_S * len(around) / sum(sum(s.values()) for s in around)


def serve() -> None:
    """Child side of ``Gauge``: one kernel run per line read from stdin."""
    kernel = Kernel()
    for _ in sys.stdin:
        print(json.dumps(kernel.run()), flush=True)


if __name__ == "__main__":
    serve()
