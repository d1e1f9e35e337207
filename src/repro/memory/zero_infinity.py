"""ZeRO-Infinity baseline memory system (paper Sec. V-B, Fig. 10).

ZeRO-Infinity is a nascent form of memory disaggregation: each GPU extends
its local HBM with **its own** CPU memory and NVMe over a dedicated path
(PCIe).  Two consequences the paper leans on:

- remote capacity is fixed per GPU — the pool cannot be resized or shared,
  so there is no utilization benefit;
- loads fetch only the GPU's *own shard*; reconstructing full parameters
  requires explicit All-Gather collectives over the NPU network, which is
  the exposed-communication bottleneck in Fig. 11.

The transfer model is a simple dedicated-link pipe: the per-GPU path
bandwidth is the remote-memory-group bandwidth (Table V gives ZeRO-Infinity
256 groups for 256 GPUs, i.e. one group per GPU).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError
from repro.memory.api import MemoryModel, MemoryRequest
from repro.trace.node import TensorLocation


@dataclass(frozen=True)
class ZeroInfinityConfig:
    """Per-GPU slow-memory path parameters.

    Attributes:
        path_bandwidth_gbps: Dedicated GPU <-> CPU-mem/NVMe bandwidth
            ("Remote Mem Group BW" row of Table V).
        access_latency_ns: Fixed latency per request (PCIe + software).
    """

    path_bandwidth_gbps: float = 100.0
    access_latency_ns: float = 2000.0

    def __post_init__(self) -> None:
        if self.path_bandwidth_gbps <= 0:
            raise InputError(
                f"path_bandwidth_gbps must be positive, got {self.path_bandwidth_gbps}"
            )
        if self.access_latency_ns < 0:
            raise InputError(
                f"access_latency_ns must be >= 0, got {self.access_latency_ns}"
            )


class ZeroInfinityMemory(MemoryModel):
    """Dedicated-path slow memory: ``latency + size / path_bw`` per GPU."""

    def __init__(self, config: ZeroInfinityConfig) -> None:
        self.config = config

    def access_time_ns(self, request: MemoryRequest) -> float:
        if request.location is TensorLocation.LOCAL:
            raise ValueError("ZeroInfinityMemory models remote tensors; got LOCAL")
        return (
            self.config.access_latency_ns
            + request.size_bytes / self.config.path_bandwidth_gbps
        )

    def telemetry_access(self, telemetry, request: MemoryRequest) -> None:
        """Offloaded bytes and access count, per direction (every access)."""
        direction = "store" if request.is_store else "load"
        telemetry.metrics.counter(
            "memory", "zero_infinity_offload_bytes",
            direction=direction).inc(request.size_bytes)
        telemetry.metrics.counter(
            "memory", "zero_infinity_accesses", direction=direction).inc()
