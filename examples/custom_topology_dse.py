#!/usr/bin/env python3
"""Design-space exploration over custom topology shapes.

The point of the taxonomy (paper Sec. IV-B): any multi-dimensional shape
is one string away.  This script fixes a 1024-NPU budget and a total of
600 GB/s injection bandwidth per NPU, then sweeps shapes from 1-D to 4-D
— including a DragonFly-style FC stack and a 3-D torus — measuring a
1 GB All-Reduce and a DLRM iteration on each.

The 24-point sweep (6 shapes x 2 schedulers x 2 workloads) is one
:class:`repro.campaign.SweepSpec`: the shape/bandwidth pairs are a zip
axis, scheduler and workload a grid.  ``--jobs N`` fans it out over a
process pool and ``--cache-dir`` re-uses previous runs — results are
bit-identical either way.

Run:  python examples/custom_topology_dse.py [--jobs N] [--cache-dir D]
"""

import argparse

import repro
from repro.campaign import (
    CampaignRunner,
    RunCache,
    SweepSpec,
    results_by_config,
)
from repro.stats import format_table

# (notation, bandwidths GB/s) — every design spends the same 600 GB/s/NPU.
CANDIDATES = [
    ("Switch(1024)", "600"),
    ("Switch(32)_Switch(32)", "400,200"),
    ("Ring(16)_FC(8)_Switch(8)", "300,200,100"),
    ("FC(16)_FC(8)_FC(8)", "300,200,100"),             # DragonFly-style
    ("Ring(8)_Ring(16)_Ring(8)", "300,200,100"),       # 3-D torus
    ("Ring(4)_FC(8)_Ring(8)_Switch(4)", "250,200,100,50"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="process-pool workers (0 = serial in-process)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed run cache directory")
    args = parser.parse_args()

    for notation, bws in CANDIDATES:
        topology = repro.parse_topology(
            notation, [float(b) for b in bws.split(",")])
        assert topology.num_npus == 1024, notation

    spec = SweepSpec(
        base={"payload_mib": 1024, "chunks": 32},
        zip_axes={
            "topology": [notation for notation, _ in CANDIDATES],
            "bandwidths": [bws for _, bws in CANDIDATES],
        },
        grid={
            "scheduler": ["baseline", "themis"],
            "workload": ["allreduce", "dlrm"],
        },
    )
    runner = CampaignRunner(
        jobs=args.jobs,
        cache=RunCache(args.cache_dir) if args.cache_dir else None)
    campaign = runner.run(spec)
    assert not campaign.errors, campaign.errors

    by_config = results_by_config(
        campaign.to_dict(), "topology", "scheduler", "workload")
    rows = []
    for notation, _ in CANDIDATES:
        row = [notation]
        for scheduler in ("baseline", "themis"):
            for workload in ("allreduce", "dlrm"):
                result = by_config[(notation, scheduler, workload)]
                row.append(f"{result['total_time_ns'] * 1e-3:.0f}")
        rows.append(row)

    print("1024 NPUs, 600 GB/s per NPU in every design\n")
    print(format_table(
        ["shape", "AR base (us)", "DLRM base (us)",
         "AR themis (us)", "DLRM themis (us)"],
        rows,
    ))
    if args.cache_dir:
        counters = campaign.cache_counters
        print(f"\ncache: {counters['hits']} hits, "
              f"{counters['misses']} misses")
    print(
        "\nTakeaways: with baseline scheduling the shape matters a lot "
        "(bandwidth stranded on idle dimensions); with Themis the designs "
        "converge toward the aggregate-bandwidth bound, and the remaining "
        "spread is the latency/hop structure of each shape."
    )


if __name__ == "__main__":
    main()
