"""Hierarchical disaggregated memory pool — "HierMem" (paper Sec. IV-D, Fig. 6-7).

System shape: ``num_nodes`` nodes, each with ``gpus_per_node`` GPUs behind an
in-node switch; ``num_out_switches`` out-node switches connect every node to
``num_remote_groups`` remote memory groups that collectively form a shared
pool.  A synchronous load of ``W`` bytes per GPU moves ``W * num_gpus``
bytes out of the pool, pipelined in chunk-size units through three link
stages:

- remote-memory-group -> out-node switch::

      TX_rem2outSW = chunk / mem_side_bw

- out-node switch -> in-node switch::

      TX_outSW2inSW = (num_remote_groups * chunk) / (num_nodes * gpu_side_bw)

- in-node switch -> GPU::

      TX_inSW2GPU = (num_remote_groups * num_out_switches * chunk)
                    / (num_gpus * in_node_bw)

- number of pipeline stages::

      n = (W * num_gpus) / (num_remote_groups * num_out_switches * chunk)

Total transfer time is the pipeline critical path:
``sum(stage times) + (n - 1) * max(stage times)``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import InputError
from repro.memory.api import MemoryModel, MemoryRequest
from repro.trace.node import TensorLocation


@dataclass(frozen=True)
class HierMemConfig:
    """Parameters of the hierarchical pool (paper Table V nomenclature).

    Attributes:
        num_nodes: Number of compute nodes.
        gpus_per_node: GPUs behind each in-node switch.
        num_out_switches: Out-node switches (every remote group connects to
            all of them).
        num_remote_groups: Remote memory groups forming the pool.
        mem_side_bw_gbps: A remote memory group's **total** bandwidth
            ("Remote Mem Group BW" in Table V), split evenly across its
            links to the out-node switches.  This is what makes Table V's
            ZeRO-Infinity (one 100 GB/s path per GPU) and HierMem baseline
            (256 pooled 100 GB/s groups for 256 GPUs) "almost equivalent
            resources" (Sec. V-B).
        gpu_side_out_bw_gbps: Out-node-switch to node link bandwidth.
        in_node_bw_gbps: In-node pooled fabric bandwidth per GPU ("In-node
            Pooled Fabric BW" in Table V).
        chunk_bytes: Basic transfer (pipelining) unit of the fabric.
        access_latency_ns: Fixed request latency added once per access.
    """

    num_nodes: int = 16
    gpus_per_node: int = 16
    num_out_switches: int = 16
    num_remote_groups: int = 256
    mem_side_bw_gbps: float = 100.0
    gpu_side_out_bw_gbps: float = 256.0
    in_node_bw_gbps: float = 256.0
    chunk_bytes: int = 1 << 20
    access_latency_ns: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("num_nodes", "gpus_per_node", "num_out_switches",
                     "num_remote_groups", "chunk_bytes"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("mem_side_bw_gbps", "gpu_side_out_bw_gbps", "in_node_bw_gbps"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.access_latency_ns < 0:
            raise InputError(
                f"access_latency_ns must be >= 0, got {self.access_latency_ns}"
            )

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node


class ChunkPipelineMemory(MemoryModel):
    """The chunk pipeline of a hierarchical pool, minus its stage loads.

    Shared by :class:`HierarchicalRemoteMemory` and
    :class:`~repro.memory.inswitch.InSwitchCollectiveMemory`: both move
    each per-GPU request down the remote-group -> out-switch links
    exactly once, so they share the transfer unit, the chunk count and
    the critical-path time; each gives its own per-chunk
    :meth:`stage_times_ns`.
    """

    def __init__(self, config: HierMemConfig) -> None:
        self.config = config

    @abc.abstractmethod
    def stage_times_ns(self, chunk_bytes: int) -> Dict[str, float]:
        """Per-chunk transfer time of each pipeline stage."""

    def effective_chunk_bytes(self, tensor_bytes_per_gpu: int) -> int:
        """Transfer unit, shrunk for requests below one full pipeline beat."""
        c = self.config
        per_link = (tensor_bytes_per_gpu * c.num_gpus) / (
            c.num_remote_groups * c.num_out_switches
        )
        return max(1, min(c.chunk_bytes, math.ceil(per_link)))

    def num_pipeline_stages(self, tensor_bytes_per_gpu: int) -> int:
        """Chunk count flowing down each remote-group->out-switch link."""
        c = self.config
        total = tensor_bytes_per_gpu * c.num_gpus
        per_link = total / (c.num_remote_groups * c.num_out_switches)
        return max(1, math.ceil(per_link / self.effective_chunk_bytes(
            tensor_bytes_per_gpu)))

    def access_time_ns(self, request: MemoryRequest) -> float:
        """Pipelined critical-path time for a synchronous pool access.

        Loads and stores are symmetric in this model (same links traversed
        in opposite directions).
        """
        if request.location is TensorLocation.LOCAL:
            raise ValueError(
                f"{type(self).__name__} models remote tensors; got LOCAL"
            )
        if request.size_bytes == 0:
            return self.config.access_latency_ns
        c = self.config
        n = self.num_pipeline_stages(request.size_bytes)
        # The final (possibly partial) chunk only shortens the tail; we
        # follow the paper and treat all chunks as full-size.
        stages = self.stage_times_ns(self.effective_chunk_bytes(request.size_bytes))
        fill = sum(stages.values())
        steady = (n - 1) * max(stages.values())
        return c.access_latency_ns + fill + steady


class HierarchicalRemoteMemory(ChunkPipelineMemory):
    """Remote memory model over a hierarchical pool (no in-switch compute)."""

    # -- stage equations -------------------------------------------------------------

    def stage_times_ns(self, chunk_bytes: int) -> Dict[str, float]:
        """Per-chunk transfer time of each pipeline stage (paper equations).

        The memory-side term uses the per-link share of the group's total
        bandwidth (``mem_side_bw / num_out_switches``).
        """
        c = self.config
        return {
            "rem2outSW": chunk_bytes / (c.mem_side_bw_gbps / c.num_out_switches),
            "outSW2inSW": (c.num_remote_groups * chunk_bytes)
            / (c.num_nodes * c.gpu_side_out_bw_gbps),
            "inSW2GPU": (c.num_remote_groups * c.num_out_switches * chunk_bytes)
            / (c.num_gpus * c.in_node_bw_gbps),
        }

    # -- MemoryModel -------------------------------------------------------------------

    def telemetry_access(self, telemetry, request: MemoryRequest) -> None:
        """Transfer count and pipeline depth of one non-empty access."""
        if request.size_bytes == 0:
            return
        n = self.num_pipeline_stages(request.size_bytes)
        metrics = telemetry.metrics
        metrics.counter("memory", "hiermem_transfers").inc()
        metrics.counter("memory", "hiermem_pipeline_beats").inc(n)
        peak = metrics.gauge("memory", "hiermem_max_pipeline_depth")
        if n > peak.value:
            peak.set(float(n))

    # -- derived metrics ----------------------------------------------------------------

    def bottleneck_stage(self) -> str:
        """Name of the slowest pipeline stage at the configured chunk size."""
        stages = self.stage_times_ns(self.config.chunk_bytes)
        return max(stages, key=stages.get)

    def pool_bandwidth_gbps(self) -> float:
        """Aggregate steady-state pool bandwidth observed by all GPUs."""
        c = self.config
        per_chunk = max(self.stage_times_ns(c.chunk_bytes).values())
        # Each pipeline beat moves num_remote_groups*num_out_switches chunks.
        bytes_per_beat = c.num_remote_groups * c.num_out_switches * c.chunk_bytes
        return bytes_per_beat / per_chunk
