"""The ``tableV-serve`` workload: a closed-loop load against ``repro serve``.

The daemon runs as a subprocess (``python -u -m repro.cli serve --port 0
--jobs 2``); this process is the load generator.  Two client threads,
one connection at a time each, send ``POST /run`` requests for distinct
Table V design points and wait for every answer before sending the next
(a closed loop, like a DSE driver waiting on each result).  No run cache
is configured, so every request is simulated.  ``point_s`` is the median
round trip over the median of the :mod:`yardstick` loops timed between
windows of requests, scaled to the reference host.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.campaign import runner
from repro.configs.table5 import TABLE5_HBM_GBPS, TABLE5_PEAK_TFLOPS

import yardstick
from layer_trace import LayerTrace
from workloads import Checks, digest, layer_metrics

_perf = time.perf_counter

CLIENTS = 2
COLD_STARTS = 5
WINDOW_S = 1.0
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

# MoE-1T on the paper's Table V system: hierarchical remote memory with
# in-switch collectives, swept over the pooled-fabric and memory-group
# bandwidths (benchmarks/test_tableV_sweep.py spells the same base point).
TABLE_V_BASE: Dict[str, Any] = {
    "topology": "Switch(16)_Switch(16)",
    "bandwidths": "256,12.5",
    "latencies": "250,1000",
    "workload": "moe1t",
    "scheduler": "themis",
    "memory_model": "hiermem",
    "inswitch": True,
    "peak_tflops": TABLE5_PEAK_TFLOPS,
    "hbm_gbps": TABLE5_HBM_GBPS,
}

#: Patched targets every traced in-process Table V point calls.
SERVE_TARGETS = ("events.run", "schedule", "core.init", "core.simulate",
                 "stats.export", "memory.access_time_ns",
                 "memory.collective_time_ns")


def table_v_points(seed: int) -> List[Dict[str, Any]]:
    """All 2025 distinct design points, in a seeded order."""
    points = [dict(TABLE_V_BASE, fabric_bw_gbps=fabric, group_bw_gbps=group)
              for fabric in range(256, 2049, 8)
              for group in range(100, 501, 50)]
    random.Random(seed).shuffle(points)
    return points


def canonical_bytes(doc: Dict[str, Any]) -> bytes:
    """The daemon's response encoding of a schema-v2 document."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


# -- the daemon subprocess -----------------------------------------------------------


def _children() -> Dict[int, List[int]]:
    """Parent pid -> child pids, from /proc."""
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServeProcess:
    """One ``repro serve`` daemon, from spawn to its "ready" line to exit."""

    def __init__(self, root: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        # The fleet's forkserver socket goes under TMPDIR; "." keeps it
        # inside the workdir and its path short.
        env["TMPDIR"] = "."
        self.log = open(workdir / "serve.log", "ab")
        start = _perf()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", str(CLIENTS)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self.log)
        self.port = 0
        try:
            for line in self._lines(start + READY_TIMEOUT_S):
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                if line.rstrip().endswith("ready"):
                    break
            else:
                raise RuntimeError("repro serve exited before it was ready")
        except BaseException:
            self.stop()
            raise
        self.cold_start_s = _perf() - start

    def _lines(self, deadline: float) -> Iterator[str]:
        fd = self.proc.stdout.fileno()
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - _perf()
                if remaining <= 0:
                    raise RuntimeError("repro serve was not ready in "
                                       f"{READY_TIMEOUT_S:.0f} s")
                if not selector.select(remaining):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    yield line.decode(errors="replace")

    def family(self) -> Set[int]:
        """The daemon and every process below it (forkserver, workers)."""
        tree = _children()
        found, todo = set(), [self.proc.pid]
        while todo:
            pid = todo.pop()
            found.add(pid)
            todo.extend(tree.get(pid, ()))
        return found

    def vmhwm_mb(self) -> float:
        """Summed peak resident set of the daemon and its descendants."""
        return sum(_vmhwm_kb(pid) for pid in self.family()) / 1024.0

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait for every process."""
        family = self.family() - {self.proc.pid}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = _perf() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in family) and _perf() < deadline:
            time.sleep(0.02)
        for pid in family:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        while any(_alive(pid) for pid in family):
            time.sleep(0.02)
        self.proc.stdout.close()
        self.log.close()


def _post(port: int, body: bytes) -> Tuple[Optional[int], bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/run", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return None, repr(exc).encode()
    finally:
        conn.close()


def closed_loop(port: int, points: List[Dict[str, Any]], seconds: float,
                max_requests: int, keep: Set[int]) -> Dict[str, Any]:
    """Drive the daemon with CLIENTS closed-loop clients for ``seconds``.

    The load runs in windows of about WINDOW_S; before each one, with no
    request in flight, the yardstick loop is timed into ``loops``.
    """
    lock = threading.Lock()
    bodies = [json.dumps(p).encode() for p in points]
    state = {"next": 0}
    latencies: List[float] = []
    loops: List[float] = []
    errors: List[str] = []
    kept: Dict[int, bytes] = {}
    elapsed = 0.0

    def client(end: float) -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= max_requests or _perf() >= end:
                    return
                state["next"] = index + 1
            sent = _perf()
            status, data = _post(port, bodies[index % len(bodies)])
            took = _perf() - sent
            with lock:
                if status == 200:
                    latencies.append(took)
                else:
                    errors.append(f"request {index}: status {status}: "
                                  f"{data[:200]!r}")
                if index in keep:
                    kept[index] = data

    windows = max(1, round(seconds / WINDOW_S))
    for _ in range(windows):
        if state["next"] >= max_requests:
            break
        loops.append(yardstick.measure_cpus())
        start = _perf()
        threads = [threading.Thread(target=client, name=f"client-{i}",
                                    args=(start + seconds / windows,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed += _perf() - start
    return {"sent": state["next"], "latencies": latencies, "loops": loops,
            "errors": errors, "kept": kept, "elapsed": elapsed}


@contextmanager
def run_probe() -> Iterator[List[Tuple[float, int]]]:
    """Record (run wall seconds, engine events) of each ``Simulator.run``."""
    from repro.core.simulator import Simulator

    original = Simulator.__dict__["run"]
    runs: List[Tuple[float, int]] = []

    def run(sim):
        result = original(sim)
        runs.append((result.wall_time_s, sim.engine.events_processed))
        return result

    Simulator.run = run
    try:
        yield runs
    finally:
        Simulator.run = original


# -- one benchmark run ---------------------------------------------------------------


def _load(server: ServeProcess, points: List[Dict[str, Any]], seconds: float,
          max_requests: int, seed: int, checks: Checks) -> Dict[str, Any]:
    """Warm the fleet, run the closed loop, and check every response.

    A seeded sample of 50 responses is byte-compared against in-process
    ``run_point`` after the timed loop.
    """
    for point in points[-2 * CLIENTS:]:  # untimed: first request per worker
        status, data = _post(server.port, json.dumps(point).encode())
        checks.check(status == 200, f"warm-up request: status {status}")
    population = min(max_requests, 250)
    keep = set(random.Random(seed).sample(range(population),
                                          min(50, population)))
    load = closed_loop(server.port, points, seconds, max_requests, keep)
    load["rss_mb"] = server.vmhwm_mb()
    checks.record(load["sent"], load["errors"])
    for index, body in sorted(load["kept"].items()):
        expected = canonical_bytes(runner.run_point(points[index]))
        checks.check(body == expected,
                     f"response {index} differs from in-process run_point")
    return load


def run_serve(root: Path, workdir: Path, seconds: float, max_requests: int,
              inproc_points: int, traced: bool, seed: int
              ) -> Tuple[Dict[str, float], Checks, Dict[str, Any]]:
    """One benchmark run of ``tableV-serve``: (metrics, checks, notes)."""
    checks = Checks()
    points = table_v_points(seed)
    cold: List[float] = []  # cold start / yardstick loop
    for _ in range(0 if traced else COLD_STARTS - 1):
        loop = yardstick.measure_cpus()
        server = ServeProcess(root, workdir)
        cold.append(server.cold_start_s / loop)
        server.stop()
    loop = yardstick.measure_cpus()
    server = ServeProcess(root, workdir)  # the cold start that serves the load
    cold.append(server.cold_start_s / loop)
    try:
        load = _load(server, points, seconds / 2 if traced else seconds,
                     max_requests, seed, checks)
    finally:
        server.stop()
    latencies = load["latencies"]
    if not latencies:
        checks.check(False, "no request succeeded")
        return {}, checks, {}
    notes = {"requests": len(latencies),
             "request_p50_ms": 1e3 * median(latencies),
             "request_p99_ms": 1e3 * _p99(latencies),
             "points_per_s": len(latencies) / load["elapsed"]}
    if not traced:
        return {
            "point_s": (yardstick.REFERENCE_S * median(latencies)
                        / median(load["loops"])),
            "setup_s": yardstick.REFERENCE_S * median(cold),
            "peak_rss_mb": load["rss_mb"],
        }, checks, notes

    # In-process: the same request path without HTTP, plain then traced.
    sample = points[:inproc_points]
    runner.run_point(sample[0])  # warm-up
    plain, plain_digests = [], []
    with run_probe() as runs:
        for point in sample:
            start = _perf()
            doc = runner.run_point(point)
            plain.append(_perf() - start)
            plain_digests.append(digest(doc))
    spans, walls = [], []
    with LayerTrace() as trace:
        for point, expected in zip(sample, plain_digests):
            trace.take()
            start = _perf()
            doc = runner.run_point(point)
            walls.append(_perf() - start)
            spans.append(trace.take())
            checks.check(digest(doc) == expected,
                         "traced run_point differs from the untraced one")
    metrics = layer_metrics(spans, SERVE_TARGETS, checks)
    simulate = [p["incl_s"]["core.simulate"] for p in spans]
    plumbing = [w - s - p["incl_s"]["stats.export"]
                for w, s, p in zip(walls, simulate, spans)]
    run_point_ms = 1e3 * median(plain)
    metrics.update({
        "events.us_per_event": median([1e6 * wall / events
                                       for wall, events in runs]),
        "trace.point_wall_s": sum(walls) / len(walls),
        "trace.overhead": median(walls) / median(plain) - 1.0,
        "campaign.run_point_ms": run_point_ms,
        "campaign.simulate_ms": 1e3 * median(simulate),
        "campaign.plumbing_ms": 1e3 * median(plumbing),
        "campaign.serve_overhead_ms": 1e3 * median(latencies) - run_point_ms,
        "campaign.request_p99_ms": notes["request_p99_ms"],
    })
    notes["points"] = len(walls)
    return metrics, checks, notes


def _p99(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100)[98]
