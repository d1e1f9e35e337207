"""Roofline compute model (paper Sec. IV-A).

Compute nodes carry FLOP counts and tensor sizes; the simulator turns them
into time with a roofline: an operation is either compute-bound
(``flops / peak``) or memory-bound (``bytes / hbm_bandwidth``), whichever
is larger, plus a fixed per-kernel launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError


@dataclass(frozen=True)
class RooflineCompute:
    """Roofline NPU compute model.

    Attributes:
        peak_tflops: Peak throughput in TFLOP/s (the paper uses 234 for an
            A100 in Sec. V and 2048 for the futuristic GPU of Table V).
        mem_bandwidth_gbps: Local HBM bandwidth feeding the compute units,
            GB/s.  ``None`` disables the memory-bound arm.
        kernel_overhead_ns: Fixed launch overhead added to every node.
    """

    peak_tflops: float
    mem_bandwidth_gbps: float = 0.0
    kernel_overhead_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_tflops <= 0:
            raise InputError(f"peak_tflops must be positive, got {self.peak_tflops}")
        if self.mem_bandwidth_gbps < 0:
            raise InputError(
                f"mem_bandwidth_gbps must be >= 0, got {self.mem_bandwidth_gbps}"
            )
        if self.kernel_overhead_ns < 0:
            raise InputError(
                f"kernel_overhead_ns must be >= 0, got {self.kernel_overhead_ns}"
            )

    def compute_time_ns(self, flops: int, tensor_bytes: int = 0) -> float:
        """Execution time of one compute node in nanoseconds.

        1 TFLOP/s == 1e3 FLOP/ns, and 1 GB/s == 1 byte/ns, so both arms
        reduce to simple divisions.
        """
        if flops < 0 or tensor_bytes < 0:
            raise ValueError("flops and tensor_bytes must be >= 0")
        flops_time = flops / (self.peak_tflops * 1e3)
        mem_time = (
            tensor_bytes / self.mem_bandwidth_gbps
            if self.mem_bandwidth_gbps > 0
            else 0.0
        )
        return self.kernel_overhead_ns + max(flops_time, mem_time)

    def operational_intensity_break(self) -> float:
        """FLOP/byte at which an op transitions to compute-bound.

        Returns ``inf`` when no memory arm is configured.
        """
        if self.mem_bandwidth_gbps <= 0:
            return float("inf")
        return (self.peak_tflops * 1e3) / self.mem_bandwidth_gbps
