"""Memory API: the contract between the execution engine and memory models.

A memory model answers one question — *how long does it take to move this
tensor between an NPU and its memory system?* — given the request's size,
direction, and the system's design parameters (paper Sec. IV-D).

Models hold no per-run state.  They outlive a run and may be shared
between runs, so no telemetry collector or invariant checker is ever
attached to them: the execution engine takes memory counters (passing
its collector to :meth:`MemoryModel.telemetry_access`) and runs memory
checks where it issues each memory node.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.trace.node import TensorLocation


@dataclass(frozen=True)
class MemoryRequest:
    """One tensor load or store.

    Attributes:
        size_bytes: Per-NPU tensor size being moved.
        is_store: Direction — True for store, False for load.
        location: LOCAL (HBM) or REMOTE (disaggregated pool).
    """

    size_bytes: int
    is_store: bool = False
    location: TensorLocation = TensorLocation.LOCAL

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative tensor size {self.size_bytes}")


class MemoryModel(abc.ABC):
    """Abstract memory-system model."""

    @abc.abstractmethod
    def access_time_ns(self, request: MemoryRequest) -> float:
        """Time in ns to complete the request (per-NPU perspective)."""

    def telemetry_access(self, telemetry, request: MemoryRequest) -> None:
        """Record model-specific counters for one access (default: none).

        Called by the execution engine right after :meth:`access_time_ns`
        when the run has a telemetry collector; models never hold one.
        """

    def load_time_ns(self, size_bytes: int) -> float:
        """Convenience: time to load ``size_bytes``."""
        return self.access_time_ns(MemoryRequest(size_bytes, is_store=False))

    def store_time_ns(self, size_bytes: int) -> float:
        """Convenience: time to store ``size_bytes``."""
        return self.access_time_ns(MemoryRequest(size_bytes, is_store=True))

    def effective_bandwidth_gbps(self, size_bytes: int) -> float:
        """Achieved bandwidth for a load of the given size (GB/s)."""
        if size_bytes <= 0:
            return 0.0
        t = self.load_time_ns(size_bytes)
        return size_bytes / t if t > 0 else float("inf")
