"""Memory-pool interconnect architectures (paper Fig. 5).

The paper sketches four ways to wire a disaggregated pool: multi-level
switches, rings, meshes, and the hierarchical design of Fig. 6.  Different
designs change the per-link load and the hop count, hence the transfer
time.  :class:`~repro.memory.remote.HierarchicalRemoteMemory` implements
the hierarchical design with the paper's exact equations; this module
provides the other three as analytical variants sharing one interface so
pool architectures can be compared under identical demand.

All designs model the same synchronous access pattern: every GPU loads
``W`` bytes from a pool of ``num_remote_groups`` memory groups, and the
transfer is pipelined in ``chunk_bytes`` units.
"""

from __future__ import annotations

import abc
import math

from repro.memory.api import MemoryModel, MemoryRequest
from repro.memory.remote import HierMemConfig
from repro.trace.node import TensorLocation


class PoolDesign(MemoryModel, abc.ABC):
    """Base class for pool interconnect variants."""

    def __init__(self, config: HierMemConfig) -> None:
        self.config = config

    @abc.abstractmethod
    def per_chunk_beat_ns(self) -> float:
        """Steady-state time to move one pipeline beat of chunks."""

    @abc.abstractmethod
    def fill_latency_ns(self) -> float:
        """Pipeline fill time (first chunk end-to-end)."""

    def _beats(self, tensor_bytes_per_gpu: int) -> int:
        c = self.config
        total = tensor_bytes_per_gpu * c.num_gpus
        per_group = total / c.num_remote_groups
        return max(1, math.ceil(per_group / c.chunk_bytes))

    def access_time_ns(self, request: MemoryRequest) -> float:
        if request.location is TensorLocation.LOCAL:
            raise ValueError("pool designs model remote tensors; got LOCAL")
        if request.size_bytes == 0:
            return self.config.access_latency_ns
        n = self._beats(request.size_bytes)
        return (
            self.config.access_latency_ns
            + self.fill_latency_ns()
            + (n - 1) * self.per_chunk_beat_ns()
        )

    def telemetry_access(self, telemetry, request: MemoryRequest) -> None:
        """Transfer and pipeline-beat counts of one non-empty access."""
        if request.size_bytes == 0:
            return
        design = type(self).__name__
        metrics = telemetry.metrics
        metrics.counter("memory", "pool_transfers", design=design).inc()
        metrics.counter("memory", "pool_pipeline_beats", design=design).inc(
            self._beats(request.size_bytes))


class MultiLevelSwitchPool(PoolDesign):
    """A two-level switch fabric (leaf + spine) between GPUs and the pool.

    Every chunk crosses exactly two switch levels.  The leaf level is
    provisioned at the in-node fabric bandwidth, the spine at the GPU-side
    out-node bandwidth; the memory side is unchanged.  Per pipeline beat
    each memory group emits one chunk and each GPU absorbs its share.
    """

    def per_chunk_beat_ns(self) -> float:
        c = self.config
        mem_side = c.chunk_bytes / c.mem_side_bw_gbps
        spine = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_nodes * c.gpu_side_out_bw_gbps
        )
        leaf = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_gpus * c.in_node_bw_gbps
        )
        return max(mem_side, spine, leaf)

    def fill_latency_ns(self) -> float:
        c = self.config
        mem_side = c.chunk_bytes / c.mem_side_bw_gbps
        spine = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_nodes * c.gpu_side_out_bw_gbps
        )
        leaf = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_gpus * c.in_node_bw_gbps
        )
        return mem_side + spine + leaf


class RingPool(PoolDesign):
    """Memory groups and node switches arranged on a ring.

    Chunks relay through ring segments: with shortest-path routing on a
    bidirectional ring of ``R`` memory groups, the average chunk crosses
    ``R/4`` segments, multiplying the effective serialization per beat.
    Cheap to build (two links per station) but the relay factor makes it
    the worst-scaling design — the qualitative point of Fig. 5.
    """

    def _relay_factor(self) -> float:
        stations = self.config.num_remote_groups + self.config.num_nodes
        return max(1.0, stations / 4.0)

    def per_chunk_beat_ns(self) -> float:
        c = self.config
        mem_side = c.chunk_bytes * self._relay_factor() / c.mem_side_bw_gbps
        gpu_side = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_gpus * c.in_node_bw_gbps
        )
        return max(mem_side, gpu_side)

    def fill_latency_ns(self) -> float:
        return self.per_chunk_beat_ns()


class MeshPool(PoolDesign):
    """Memory groups on a 2D mesh attached to node switches.

    Average hop count on a ``sqrt(R) x sqrt(R)`` mesh is ``~2/3 sqrt(R)``
    per direction; the relay factor is correspondingly gentler than the
    ring's but still grows with pool size.
    """

    def _relay_factor(self) -> float:
        stations = self.config.num_remote_groups + self.config.num_nodes
        side = math.sqrt(stations)
        return max(1.0, (2.0 / 3.0) * side)

    def per_chunk_beat_ns(self) -> float:
        c = self.config
        mem_side = c.chunk_bytes * self._relay_factor() / c.mem_side_bw_gbps
        gpu_side = (c.num_remote_groups * c.chunk_bytes) / (
            c.num_gpus * c.in_node_bw_gbps
        )
        return max(mem_side, gpu_side)

    def fill_latency_ns(self) -> float:
        return self.per_chunk_beat_ns()
