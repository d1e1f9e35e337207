"""A fixed pure-Python loop that measures how fast the host runs right now.

On a shared host the speed of a core drifts: neighbours on the same
physical machine slow it by tens of percent for minutes, and by up to 2x
in bursts that outlast a whole benchmark run, so no statistic over one
run's wall-clock samples is steady from run to run.  The benchmark
therefore times this loop next to every sample (after each design point,
or before each window of requests while none is in flight) and reports
``sample / loop * REFERENCE_S``: the sample in seconds at the speed of a
host on which the loop takes ``REFERENCE_S``.

Measured on a 2-vCPU host over 27 minutes of back-to-back points of the
four simulation workloads cut into 22 s windows: the per-window median
point spread by 20-26 % (interquartile distance over median, the slowest
window 2x the fastest), the per-window median of point / loop by 4-7 %.

The loop does what the simulator's hot paths do, float accumulators in a
dict and a heap of timestamped events, with the collector off so that
garbage left by the measured code cannot slow it.  It depends on nothing
in ``repro``, so no change to the simulator can move it.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

#: Seconds the loop takes on that 2-vCPU host when its neighbours are
#: quiet; it only scales the reported numbers.
REFERENCE_S = 0.025


def _loop() -> float:
    totals: dict = {}
    for i in range(100_000):
        slot = i & 1023
        totals[slot] = totals.get(slot, 0.0) + i * 1.5
    heap: list = []
    now = 0.0
    for i in range(20_000):
        heapq.heappush(heap, (now + (i * 7919 % 1009) * 1e-3, i))
        if len(heap) > 64:
            now, _key = heapq.heappop(heap)
    return now


def measure() -> float:
    """Seconds one pass of the loop takes now, on this thread's CPU."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure_cpus() -> float:
    """Mean seconds of one pass pinned to each CPU this thread may use.

    The yardstick of work spread over several processes, such as a daemon
    and its workers: the vCPUs of a shared host run at different speeds
    at the same moment, and a thread that has been waiting on sockets
    wakes on either of them.  Measured on a 2-vCPU host over ten serve
    runs, the median round trip spread by 5.7 % (slowest run 1.22x the
    fastest); divided by the run's median of this loop by 5.9 % (1.10x),
    by that of the one-CPU loop by 15 %.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(measure())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)
