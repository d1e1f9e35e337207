"""Fig. 9(a) — wafer-scale vs conventional systems, baseline vs Themis.

Regenerates the normalized training-time breakdown for the Table II
512-NPU systems (W-1D-{350,500,600}, W-2D-250_250, Conv-3D, Conv-4D)
running the paper's four workloads: a single 1 GB All-Reduce, DLRM,
GPT-3, and Transformer-1T (Table III), under the baseline hierarchical
collective schedule and the Themis balanced (LP) schedule.

Shape assertions (the paper's reading of the figure):

- 1-D wafer systems show no gain from smart scheduling;
- multi-dimensional systems (W-2D, Conv-3D, Conv-4D) benefit heavily;
- with Themis, Conv-4D matches the wafer system of equivalent aggregate
  bandwidth (W-1D-600) on the single All-Reduce and DLRM;
- for GPT-3 and Transformer-1T the wafer keeps an edge, because hybrid
  MP/DP communicators only use a subset of a conventional system's
  dimensions while the wafer runs everything at full on-chip bandwidth.
"""

from __future__ import annotations

import pytest

import repro
from repro.configs import TABLE2_TOPOLOGIES
from repro.stats import format_table
from repro.workload import (
    ParallelismSpec,
    dlrm_paper,
    generate_dlrm,
    generate_megatron_hybrid,
    generate_single_collective,
    gpt3_175b,
    transformer_1t,
)

from conftest import write_result

GiB = 1 << 30
SYSTEMS = ["W-1D-350", "W-1D-500", "W-1D-600", "W-2D-250_250", "Conv-3D", "Conv-4D"]


def _traces_for(workload: str, topology):
    if workload == "allreduce-1GB":
        return generate_single_collective(
            topology, repro.CollectiveType.ALL_REDUCE, GiB)
    if workload == "DLRM":
        return generate_dlrm(dlrm_paper(), topology)
    if workload == "GPT-3":
        return generate_megatron_hybrid(
            gpt3_175b(), topology, ParallelismSpec(mp=16, dp=32))
    if workload == "Transformer-1T":
        return generate_megatron_hybrid(
            transformer_1t(), topology, ParallelismSpec(mp=128, dp=4))
    raise ValueError(workload)


def _run(workload: str, system: str, scheduler: str):
    topology = TABLE2_TOPOLOGIES[system]
    traces = _traces_for(workload, topology)
    config = repro.SystemConfig(
        topology=topology, scheduler=scheduler, collective_chunks=32)
    return repro.simulate(traces, config)


def _sweep():
    results = {}
    for workload in ("allreduce-1GB", "DLRM", "GPT-3", "Transformer-1T"):
        for system in SYSTEMS:
            for scheduler in ("baseline", "themis"):
                results[(workload, system, scheduler)] = _run(
                    workload, system, scheduler)
    return results


@pytest.fixture(scope="module")
def sweep_results():
    return _sweep()


def test_fig9a_regenerate(benchmark, results_dir, sweep_results):
    results = benchmark.pedantic(lambda: sweep_results, rounds=1, iterations=1)
    sections = []
    for workload in ("allreduce-1GB", "DLRM", "GPT-3", "Transformer-1T"):
        base_time = results[(workload, SYSTEMS[0], "baseline")].total_time_ns
        rows = []
        for system in SYSTEMS:
            row = [system]
            for scheduler in ("baseline", "themis"):
                r = results[(workload, system, scheduler)]
                b = r.breakdown
                row.append(
                    f"{r.total_time_ns / base_time:.3f} "
                    f"(cmp {b.compute_ns / base_time:.2f} / "
                    f"comm {b.exposed_comm_ns / base_time:.2f})"
                )
            rows.append(row)
        sections.append(
            f"[{workload}] normalized to W-1D-350 baseline\n"
            + format_table(["system", "baseline", "themis"], rows)
        )
    write_result(results_dir, "fig9a_scheduling.txt", "\n\n".join(sections))

    # Shape checks, inlined so they run under --benchmark-only too.
    ar = lambda system, sched: results[("allreduce-1GB", system, sched)].total_time_ns
    assert ar("W-1D-600", "themis") == pytest.approx(ar("W-1D-600", "baseline"), rel=0.02)
    assert ar("Conv-4D", "themis") < 0.9 * ar("Conv-4D", "baseline")
    assert ar("Conv-4D", "themis") == pytest.approx(ar("W-1D-600", "baseline"), rel=0.15)


def test_fig9a_wafer_1d_gains_nothing_from_themis(sweep_results):
    for system in ("W-1D-350", "W-1D-500", "W-1D-600"):
        base = sweep_results[("allreduce-1GB", system, "baseline")].total_time_ns
        themis = sweep_results[("allreduce-1GB", system, "themis")].total_time_ns
        assert themis == pytest.approx(base, rel=0.02), system


def test_fig9a_multidim_systems_benefit_from_themis(sweep_results):
    for system in ("W-2D-250_250", "Conv-3D", "Conv-4D"):
        base = sweep_results[("allreduce-1GB", system, "baseline")].total_time_ns
        themis = sweep_results[("allreduce-1GB", system, "themis")].total_time_ns
        assert themis < 0.9 * base, system


def test_fig9a_conv4d_themis_matches_equal_bw_wafer(sweep_results):
    """Conv-4D totals 600 GB/s/NPU — with Themis it matches W-1D-600 on
    communication-only and DLRM workloads."""
    for workload in ("allreduce-1GB", "DLRM"):
        wafer = sweep_results[(workload, "W-1D-600", "baseline")].total_time_ns
        conv = sweep_results[(workload, "Conv-4D", "themis")].total_time_ns
        assert conv == pytest.approx(wafer, rel=0.15), workload


def test_fig9a_wafer_keeps_edge_on_hybrid_parallel_models(sweep_results):
    """MP/DP communicators span subsets of a conventional system's dims but
    run at full bandwidth on the wafer."""
    for workload in ("GPT-3", "Transformer-1T"):
        wafer = sweep_results[(workload, "W-1D-600", "themis")].total_time_ns
        conv = sweep_results[(workload, "Conv-4D", "themis")].total_time_ns
        assert wafer < conv, workload


def test_fig9a_conv4d_beats_underprovisioned_wafer(sweep_results):
    """Paper: 'Conv-4D is driving more BW/NPU [than W-1D-350], showing
    better performance despite being multidimensional' (with Themis)."""
    wafer_350 = sweep_results[("allreduce-1GB", "W-1D-350", "baseline")].total_time_ns
    conv = sweep_results[("allreduce-1GB", "Conv-4D", "themis")].total_time_ns
    assert conv < wafer_350
