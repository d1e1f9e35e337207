"""Table V disaggregated-memory system configurations (Sec. V-B).

===============================  =============  =================  ==============
Parameter                        ZeRO-Infinity  HierMem (Baseline) HierMem (Opt)
===============================  =============  =================  ==============
GPU peak perf (TFLOPS)           2048           2048               2048
GPU local HBM BW (GB/s)          4096           4096               4096
In-node pooled fabric BW (GB/s)  --             256                512
Num out-node switches            --             16                 16
Num remote memory groups         256            256                256
Remote mem group BW (GB/s)       100            100                500
===============================  =============  =================  ==============

The system hosts 256 GPUs (16 nodes x 16 GPUs).  ZeRO-Infinity pairs each
GPU with its own slow path (one "remote memory group" per GPU) and runs
parameter collectives over the NPU network; HierMem pools the groups
behind switches and runs collectives in-switch.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.memory.inswitch import InSwitchCollectiveMemory
from repro.memory.local import LocalMemory
from repro.memory.remote import HierMemConfig, HierarchicalRemoteMemory
from repro.memory.zero_infinity import ZeroInfinityConfig, ZeroInfinityMemory
from repro.network.topology import MultiDimTopology, parse_topology
from repro.system.compute import RooflineCompute

TABLE5_PEAK_TFLOPS = 2048.0
TABLE5_HBM_GBPS = 4096.0


def moe_npu_network() -> MultiDimTopology:
    """NPU-to-NPU network of the 256-GPU MoE system.

    Commodity servers: an NVLink-class in-node switch (256 GB/s) plus a
    100 Gb/s-NIC scale-out switch (12.5 GB/s).  Table V leaves the NPU
    network implicit; these follow the paper's "commodity server" framing.
    """
    return parse_topology(
        "Switch(16)_Switch(16)", [256, 12.5],
        latencies_ns=[250, 1000], name="MoE-NPU-network"
    )


def _base_config(topology: MultiDimTopology) -> SystemConfig:
    return SystemConfig(
        topology=topology,
        scheduler="themis",
        compute=RooflineCompute(
            peak_tflops=TABLE5_PEAK_TFLOPS, mem_bandwidth_gbps=TABLE5_HBM_GBPS
        ),
        local_memory=LocalMemory(bandwidth_gbps=TABLE5_HBM_GBPS),
    )


def zero_infinity_table5() -> SystemConfig:
    """ZeRO-Infinity column: dedicated 100 GB/s slow path per GPU."""
    config = _base_config(moe_npu_network())
    config.remote_memory = ZeroInfinityMemory(
        ZeroInfinityConfig(path_bandwidth_gbps=100.0))
    return config


def hiermem_baseline() -> SystemConfig:
    """HierMem (Baseline) column: fabric 256 GB/s, groups 100 GB/s."""
    return hiermem_custom(in_node_bw=256.0, group_bw=100.0)


def hiermem_opt() -> SystemConfig:
    """HierMem (Opt) column: fabric 512 GB/s, groups 500 GB/s."""
    return hiermem_custom(in_node_bw=512.0, group_bw=500.0)


def hiermem_custom(in_node_bw: float, group_bw: float) -> SystemConfig:
    """Arbitrary point of the Table V design-space sweep."""
    topology = moe_npu_network()
    pool = HierMemConfig.for_topology(topology, in_node_bw, group_bw)
    config = _base_config(topology)
    config.remote_memory = HierarchicalRemoteMemory(pool)
    config.fabric_collectives = InSwitchCollectiveMemory(pool)
    return config
