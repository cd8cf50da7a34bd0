"""Machine-speed reference: scale timings to a fixed nominal machine speed.

The benchmark runs on a few cores of a shared host, where the speed of the
same pure-Python loop drifts by up to 1.6x over tens of seconds as other
tenants come and go. Timing the program alone then measures the host. So a
fixed reference chunk (BFS and greedy vertex deletion on a fixed 64-vertex
graph, the same kind of work as strongdim's, written here and not importing
strongdim) is timed next to the program, and a program time is scaled by
NOMINAL_S / (the reference chunk's time in the same window). A program
change cannot move the reference: it is the benchmark's own code, run warm
and with the garbage collector off.

`Sampler` times a chunk on SIGALRM every PERIOD_S of wall time while the
job list runs, so long jobs are sampled throughout, and keeps its own time
so that it can be taken out of the job times. `scale_now()` times chunks
back to back, for the set-up probes that run in another process.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# A scaled time is in seconds on a machine where the warm chunk takes this
# long; on the shared 2-core Xeon of the first baseline it took 0.7-1.3 ms.
NOMINAL_S = 0.001
PERIOD_S = 0.1
# Share of samples dropped at each end before averaging. The mean, not the
# median, is wanted: the program is slowed by the host's slow moments in
# proportion to their length, and so is the mean; the trim only drops the
# rare chunk that was preempted outright.
TRIM = 0.05


def _graph() -> list[list[int]]:
    rng = random.Random("perfbench-speed")
    n = 64
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    while sum(map(len, adj)) < 2 * 5 * n:
        u, v = rng.sample(range(n), 2)
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(vs) for vs in adj]


GRAPH = _graph()


def _chunk() -> int:
    n = len(GRAPH)
    total = 0
    for s in range(0, n, 4):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in GRAPH[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist)
    adj = {u: set(vs) for u, vs in enumerate(GRAPH)}
    while adj:
        u = max(adj, key=lambda x: len(adj[x]))
        for v in adj.pop(u):
            adj[v].discard(u)
        for v in [v for v, vs in adj.items() if not vs]:
            del adj[v]
        total += 1
    return total


def chunk_seconds() -> float:
    """Time of one warm reference chunk (the first run warms the caches)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _chunk()
        t0 = time.perf_counter()
        _chunk()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(xs: list[float]) -> float:
    xs = sorted(xs)
    k = int(len(xs) * TRIM)
    xs = xs[k:len(xs) - k] or xs
    return sum(xs) / len(xs)


def scale_for(samples: list[float]) -> float:
    """Factor that takes a time measured alongside `samples` to nominal speed."""
    return NOMINAL_S / trimmed_mean(samples)


def scale_now() -> float:
    """Scale from 20 chunks timed back to back, with no sampler running."""
    return scale_for([chunk_seconds() for _ in range(20)])


class Sampler:
    """Times a reference chunk on SIGALRM every PERIOD_S while running."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler, to take out of job times

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(chunk_seconds())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, first: int) -> float:
        """Scale for the window since sample `first`; a window with fewer
        than 5 samples borrows the latest 5."""
        window = self.samples[first:]
        if len(window) < 5:  # a pass shorter than 5 periods
            window = self.samples[-5:] + [chunk_seconds() for _ in range(5 - len(self.samples))]
        return scale_for(window)
