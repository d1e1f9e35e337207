"""Ablations for the design choices DESIGN.md calls out.

Not a paper figure — these isolate the mechanisms behind the headline
results:

1. **Chunk count**: chunked pipelining across dimensions is what removes
   the multi-dimensional penalty; chunks=1 degenerates to the sequential
   per-dim sum.
2. **In-switch collectives on/off** at the optimized HierMem bandwidths:
   isolates how much of the Fig. 11 win is the gather/scatter fusion
   versus the raw bandwidth increase.
3. **Backend agreement**: analytical vs packet-level Garnet-lite across
   message sizes on congestion-free ring traffic (the regime the paper
   argues analytical modeling is sufficient for).
"""

from __future__ import annotations

import pytest

import repro
from repro.configs import CONV_4D
from repro.configs.table5 import hiermem_custom, moe_npu_network
from repro.events import EventEngine
from repro.network import AnalyticalNetwork, GarnetLiteNetwork
from repro.stats import format_table
from repro.system import SendRecvCollectiveExecutor
from repro.system.phases import PhaseKind, phase_table
from repro.workload import generate_moe, generate_single_collective, moe_1t

from conftest import write_result

GiB = 1 << 30
MiB = 1 << 20


def test_ablation_chunk_count(benchmark, results_dir):
    """Pipelining degree: sequential sum at chunks=1, converging fast."""

    def sweep():
        times = {}
        for chunks in (1, 2, 4, 8, 16, 32, 64):
            traces = generate_single_collective(
                CONV_4D, repro.CollectiveType.ALL_REDUCE, GiB)
            config = repro.SystemConfig(
                topology=CONV_4D, scheduler="baseline",
                collective_chunks=chunks)
            times[chunks] = repro.simulate(traces, config).total_time_us
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = phase_table(CONV_4D.dims, range(4), PhaseKind.REDUCE_SCATTER, GiB,
                       roundtrip=True)
    sequential = sum(latency + busy
                     for _, _, _, busy, _, latency, _ in rows) / 1e3
    rows = [[c, f"{t:.0f}", f"{t / times[1]:.3f}"] for c, t in times.items()]
    text = format_table(["chunks", "time (us)", "vs chunks=1"], rows) + (
        f"\n\nclosed-form sequential sum: {sequential:.0f} us"
    )
    write_result(results_dir, "ablation_chunk_count.txt", text)

    assert times[1] == pytest.approx(sequential, rel=0.02)
    assert times[64] < 0.7 * times[1]
    # Monotone non-increasing (within float noise).
    ordered = [times[c] for c in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a >= b - 1.0 for a, b in zip(ordered, ordered[1:]))


def test_ablation_inswitch_vs_bandwidth(benchmark, results_dir):
    """At the Opt bandwidths, how much does the fusion itself buy?"""

    def run_both():
        topology = moe_npu_network()
        model = moe_1t()
        out = {}
        for label, inswitch in (("network collectives", False),
                                ("in-switch collectives", True)):
            traces = generate_moe(model, topology, remote_parameters=True,
                                  inswitch_collectives=inswitch)
            config = hiermem_custom(in_node_bw=512.0, group_bw=500.0)
            out[label] = repro.simulate(traces, config).total_time_ms
        return out

    out = benchmark.pedantic(run_both, rounds=1, iterations=1)
    gain = out["network collectives"] / out["in-switch collectives"]
    text = format_table(
        ["collectives", "MoE-1T iteration (ms)"],
        [[k, f"{v:.1f}"] for k, v in out.items()],
    ) + f"\n\nfusion gain at fixed bandwidth: {gain:.2f}x"
    write_result(results_dir, "ablation_inswitch.txt", text)
    # The fusion itself (not just bandwidth) is a large part of the win.
    assert gain > 1.5


def test_ablation_nic_oversubscription(benchmark, results_dir):
    """First-order congestion (the paper's stated future work): how an
    oversubscribed board-level fabric (Conv-4D's dim 2, the baseline
    schedule's bottleneck) degrades a 1 GB All-Reduce."""
    import dataclasses

    from repro.network import MultiDimTopology

    def sweep():
        times = {}
        for scheduler in ("baseline", "themis"):
            for oversub in (1.0, 2.0, 4.0):
                dims = list(CONV_4D.dims)
                dims[1] = dataclasses.replace(dims[1],
                                              oversubscription=oversub)
                topology = MultiDimTopology(dims, name=f"Conv-4D-os{oversub:g}")
                traces = generate_single_collective(
                    topology, repro.CollectiveType.ALL_REDUCE, GiB)
                config = repro.SystemConfig(
                    topology=topology, scheduler=scheduler,
                    collective_chunks=32)
                times[(scheduler, oversub)] = repro.simulate(
                    traces, config).total_time_us
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for scheduler in ("baseline", "themis"):
        ref = times[(scheduler, 1.0)]
        for oversub in (1.0, 2.0, 4.0):
            t = times[(scheduler, oversub)]
            rows.append([scheduler, f"{oversub:g}:1", f"{t:.0f}",
                         f"{t / ref:.3f}"])
    text = format_table(
        ["scheduler", "fabric oversubscription", "All-Reduce (us)",
         "vs non-blocking"], rows)
    write_result(results_dir, "ablation_oversubscription.txt", text)
    for scheduler in ("baseline", "themis"):
        seq = [times[(scheduler, o)] for o in (1.0, 2.0, 4.0)]
        assert seq[0] <= seq[1] <= seq[2], scheduler
    # The bandwidth-aware scheduler reroutes around the congested fabric;
    # the fixed hierarchical order cannot.
    themis_hit = times[("themis", 4.0)] / times[("themis", 1.0)]
    baseline_hit = times[("baseline", 4.0)] / times[("baseline", 1.0)]
    assert baseline_hit > 3.0        # fixed order eats the full 4:1 hit
    assert themis_hit < baseline_hit / 2


def test_ablation_backend_agreement(benchmark, results_dir):
    """All three backends on congestion-free ring All-Reduce.

    The analytical closed form, the max-min flow model, and the
    packet-level Garnet-lite must agree in this regime — the paper's
    justification for analytical modeling — while their event counts
    span three orders of magnitude.
    """
    import time as _time

    from repro.network import FlowLevelNetwork

    def sweep():
        rows = []
        errors = []
        topo = repro.parse_topology("Ring(8)", [150], latencies_ns=[100])
        for size_mib in (1, 4, 16, 64, 256):
            payload = size_mib * MiB
            times = {}
            events = {}
            for name, cls, kw in (
                ("analytical", AnalyticalNetwork, {}),
                ("flow", FlowLevelNetwork, {}),
                ("garnet", GarnetLiteNetwork,
                 {"packet_bytes": max(4096, payload // 64)}),
            ):
                engine = EventEngine()
                net = cls(engine, topo, **kw)
                executor = SendRecvCollectiveExecutor(engine, net)
                done = {}
                executor.run_ring_allreduce(
                    list(range(8)), payload,
                    on_complete=lambda t: done.update(t=t))
                engine.run()
                times[name] = done["t"]
                events[name] = engine.events_processed
            for other in ("flow", "garnet"):
                errors.append(
                    abs(times[other] - times["analytical"]) / times[other])
            rows.append([
                size_mib,
                f"{times['analytical'] / 1e3:.1f}",
                f"{times['flow'] / 1e3:.1f}",
                f"{times['garnet'] / 1e3:.1f}",
                f"{events['analytical']}/{events['flow']}/{events['garnet']}",
            ])
        return rows, errors

    rows, errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["payload (MiB)", "analytical (us)", "flow (us)", "garnet (us)",
         "events a/f/g"],
        rows,
    )
    write_result(results_dir, "ablation_backend_agreement.txt", text)
    assert max(errors) < 0.05
