"""Local HBM memory model (paper Sec. IV-D, model 1).

``access_time = access_latency + tensor_size / bandwidth`` — the simple
bandwidth model the paper uses for on-package HBM, with the latency and
bandwidth supplied as system parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError
from repro.memory.api import MemoryModel, MemoryRequest


@dataclass(frozen=True)
class LocalMemory(MemoryModel):
    """On-package HBM.

    Attributes:
        bandwidth_gbps: Sustained HBM bandwidth per NPU (GB/s).
        latency_ns: Fixed access latency per request.
    """

    bandwidth_gbps: float
    latency_ns: float = 100.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise InputError(
                f"bandwidth_gbps must be positive, got {self.bandwidth_gbps}"
            )
        if self.latency_ns < 0:
            raise InputError(f"latency_ns must be >= 0, got {self.latency_ns}")

    def access_time_ns(self, request: MemoryRequest) -> float:
        return self.latency_ns + request.size_bytes / self.bandwidth_gbps
