"""Simulation-cost scaling — the infrastructure claim behind the paper.

The point of the analytical backend is "profiling systems of scale at
speed" (Sec. IV-C): simulation cost must not grow with the number of
NPUs for symmetric workloads.  This regenerates that claim end to end:
1 GB All-Reduces and full GPT-3 iterations on systems from 512 NPUs to
32K NPUs, writing simulated times and event counts to the results file
and printing wall-clock costs.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.stats import format_table
from repro.workload import ParallelismSpec, generate_megatron_hybrid, generate_single_collective, gpt3_175b

from conftest import write_result

GiB = 1 << 30


def _system(scale: int):
    """Conv-4D-style system scaled out to ``512 * scale`` NPUs."""
    return repro.parse_topology(
        f"Ring(2)_FC(8)_Ring(8)_Switch({4 * scale})",
        [250, 200, 100, 50],
        latencies_ns=[50, 250, 250, 500],
    )


def _run(topology, traces):
    config = repro.SystemConfig(
        topology=topology, scheduler="themis", collective_chunks=32)
    start = time.perf_counter()
    result = repro.simulate(traces, config)
    wall = time.perf_counter() - start
    return result, wall


def test_simulation_cost_flat_in_system_size(benchmark, results_dir):
    def sweep():
        rows = []
        walls = {}
        for scale in (1, 2, 8, 16, 64):
            topology = _system(scale)
            npus = topology.num_npus
            ar_result, ar_wall = _run(
                topology,
                generate_single_collective(
                    topology, repro.CollectiveType.ALL_REDUCE, GiB))
            mp, dp = 16, npus // 16
            gpt_result, gpt_wall = _run(
                topology,
                generate_megatron_hybrid(
                    gpt3_175b(), topology, ParallelismSpec(mp=mp, dp=dp)))
            walls[npus] = (ar_wall, gpt_wall)
            rows.append([
                npus,
                f"{ar_result.total_time_us:.0f}",
                ar_result.events_processed,
                f"{gpt_result.total_time_ms:.0f}",
                gpt_result.events_processed,
            ])
        return rows, walls

    rows, walls = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # The committed file holds what every host reproduces; wall clocks
    # go to stdout only.
    text = format_table(
        ["NPUs", "AllReduce sim (us)", "AllReduce events",
         "GPT-3 iter sim (ms)", "GPT-3 events"],
        rows,
    ) + ("\n\nEvent counts, and so simulation cost, are flat in system size"
         " for symmetric workloads — the representative-communicator design"
         " (paper Sec. IV-C: 4K NPUs 'at speed').")
    write_result(results_dir, "simulation_scaling.txt", text)
    print(format_table(
        ["NPUs", "AllReduce wall (ms)", "GPT-3 wall (ms)"],
        [[npus, f"{1e3 * ar:.1f}", f"{1e3 * gpt:.1f}"]
         for npus, (ar, gpt) in walls.items()]))

    # Every point simulates in well under a second — the headline claim.
    for npus, (ar_wall, gpt_wall) in walls.items():
        assert ar_wall < 1.0, npus
        assert gpt_wall < 5.0, npus
    # Growing the system 64x costs far less than 64x the wall clock
    # (group enumeration is the only O(NPUs) term left).
    biggest, smallest = max(walls), min(walls)
    growth = biggest / smallest
    wall_growth = walls[biggest][1] / max(walls[smallest][1], 1e-3)
    assert wall_growth < growth / 4
