"""Sec. IV-C speedup study — analytical backend vs Garnet(-lite).

The paper runs a 1 MB All-Reduce on a 64-NPU 3D torus (4x4x4): Garnet
takes 21.42 minutes, the analytical backend 1.70 seconds (756x), and the
analytical backend handles a 4K-NPU torus (16x16x16) in 3.14 seconds.

We replay the same experiment with Garnet-lite as the packet-level
reference.  Python-to-Python the gap is narrower than C++-Garnet vs the
closed form, but the structure is identical: per-packet-per-hop events vs
one closed-form evaluation per phase.  Assertions: an order-of-magnitude
or more wall-clock gap at 64 NPUs, matching collective times between
backends, and 4K-NPU capability on the analytical path in seconds.
"""

from __future__ import annotations

import time

import pytest

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, GarnetLiteNetwork, parse_topology
from repro.stats import format_table
from repro.system import SendRecvCollectiveExecutor
from repro.trace import CollectiveType
from repro.workload import generate_single_collective
import repro

from conftest import write_result

MiB = 1 << 20


def _torus(k: int):
    return parse_topology(
        f"Ring({k})_Ring({k})_Ring({k})", [150, 150, 150],
        latencies_ns=[100, 100, 100],
    )


def _hierarchical_allreduce_send_recv(backend_cls, k: int, payload: int, **kw):
    """Dim-by-dim hierarchical ring All-Reduce via explicit sends.

    Runs RS+AG per dimension for every dimension group — the traffic the
    speedup experiment pushes through both backends.  Returns (collective
    time ns, wall seconds, events).
    """
    topo = _torus(k)
    engine = EventEngine()
    net = backend_cls(engine, topo, **kw)
    executor = SendRecvCollectiveExecutor(engine, net)
    finished = []

    # One ring All-Reduce per dim-0 group (k^2 groups), the dominant phase
    # of the hierarchical algorithm; enough traffic to expose per-packet
    # simulation cost.
    groups = [topo.dim_group(npu, 0) for npu in range(topo.num_npus)
              if topo.coords(npu)[0] == 0]
    for group in groups:
        executor.run_ring_allreduce(list(group), payload,
                                    on_complete=finished.append)
    wall_start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - wall_start
    assert len(finished) == len(groups)
    return max(finished), wall, engine.events_processed


def test_speedup_64npu_torus(benchmark, results_dir):
    payload = 1 * MiB

    def run_both():
        analytical = _hierarchical_allreduce_send_recv(
            AnalyticalNetwork, 4, payload)
        garnet = _hierarchical_allreduce_send_recv(
            GarnetLiteNetwork, 4, payload, packet_bytes=512)
        return analytical, garnet

    (a_time, a_wall, a_events), (g_time, g_wall, g_events) = benchmark.pedantic(
        run_both, rounds=1, iterations=1)
    speedup = g_wall / max(a_wall, 1e-9)
    # The committed file holds what every host reproduces; wall clocks
    # go to stdout only.
    text = format_table(
        ["backend", "collective (us)", "events"],
        [
            ["analytical", f"{a_time / 1e3:.2f}", a_events],
            ["garnet-lite", f"{g_time / 1e3:.2f}", g_events],
        ],
    ) + f"\n\nevent ratio: {g_events / a_events:.0f}x"
    write_result(results_dir, "secIVC_speedup_64npu.txt", text)
    print(f"wall: analytical {a_wall:.4f} s, garnet-lite {g_wall:.4f} s; "
          f"wall-clock speedup {speedup:.0f}x  (paper: 756x for C++ Garnet "
          "vs closed form)")
    # Same congestion-free traffic -> same collective time.
    assert g_time == pytest.approx(a_time, rel=0.01)
    # Packet-level simulation is at least an order of magnitude slower.
    assert speedup > 10
    assert g_events > 50 * a_events


def test_analytical_handles_4k_npus_in_seconds(benchmark, results_dir):
    """16x16x16 torus — impractical for packet-level, seconds analytically."""
    payload = 1 * MiB

    def run():
        return _hierarchical_allreduce_send_recv(
            AnalyticalNetwork, 16, payload)

    collective_ns, wall, events = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (f"4096-NPU torus 1MB All-Reduce: collective {collective_ns / 1e3:.2f} us, "
            f"{events} events")
    write_result(results_dir, "secIVC_speedup_4k_npu.txt", text)
    print(f"wall {wall:.2f} s  (paper: 3.14 s)")
    assert wall < 60


def test_phase_level_collective_cost(benchmark):
    """Production path: the phase-level collective op is cheaper still —
    independent of NPU count for symmetric groups."""
    topo = parse_topology("Ring(16)_Ring(16)_Ring(16)", [150, 150, 150])
    traces = generate_single_collective(topo, CollectiveType.ALL_REDUCE, MiB)

    def run():
        return repro.simulate(
            traces, repro.SystemConfig(topology=topo, collective_chunks=16))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_time_ns > 0
    assert result.events_processed < 500
