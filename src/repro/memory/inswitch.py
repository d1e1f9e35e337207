"""In-switch collective communication model (paper Sec. IV-D, Fig. 8).

With in-switch collectives, sharded parameters are **gathered while being
loaded** (All-Gather in the switches) and **sharded while being stored**
(Reduce-Scatter in the switches).  The pipeline structure matches the
remote-memory model but the per-link loads change because data is
replicated (load) or reduced (store) as it crosses each switch level:

- remote-memory-group -> out-node switch (unchanged)::

      TX_rem2outSW = chunk / mem_side_bw

- out-node switch -> in-node switch (every node receives *all* groups'
  data — no division by the node count)::

      TX_outSW2inSW = (num_remote_groups * chunk) / gpu_side_bw

- in-node switch -> GPU (every GPU receives the fully-gathered tensor —
  no division by the GPU count)::

      TX_inSW2GPU = (num_remote_groups * num_out_switches * chunk)
                    / in_node_bw

A load request of ``W`` bytes per GPU (the GPU's shard of the parameter)
delivers the full gathered tensor ``W * num_gpus`` to every GPU while
transferring each shard over the memory-side links exactly once — this is
what replaces the explicit network All-Gather in ZeRO-style training.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.remote import ChunkPipelineMemory


class InSwitchCollectiveMemory(ChunkPipelineMemory):
    """Hierarchical pool with in-switch All-Gather / Reduce-Scatter.

    ``access_time_ns`` interprets ``request.size_bytes`` as the **per-GPU
    shard**; the GPU-visible result of a load is the gathered tensor of
    ``size_bytes * num_gpus`` bytes (and symmetrically a store reduces).
    The chunk count is the plain remote model's: the memory-side links
    still carry each shard exactly once.
    """

    def stage_times_ns(self, chunk_bytes: int) -> Dict[str, float]:
        """Per-chunk stage times with in-switch gather/scatter (Fig. 8).

        The memory-side term uses the per-link share of the group's total
        bandwidth, as in the plain remote model.
        """
        c = self.config
        return {
            "rem2outSW": chunk_bytes / (c.mem_side_bw_gbps / c.num_out_switches),
            "outSW2inSW": (c.num_remote_groups * chunk_bytes)
            / c.gpu_side_out_bw_gbps,
            "inSW2GPU": (c.num_remote_groups * c.num_out_switches * chunk_bytes)
            / c.in_node_bw_gbps,
        }

    def gathered_bytes(self, shard_bytes: int) -> int:
        """Size of the tensor a GPU holds after an in-switch gather-load."""
        return shard_bytes * self.config.num_gpus

    # -- in-fabric collectives ------------------------------------------------------

    def alltoall_time_ns(self, payload_bytes_per_gpu: int) -> float:
        """All-to-All routed through the pooled memory fabric.

        Each GPU injects its payload into the in-node fabric; node
        aggregates spread over the out-node switches, then the mirrored
        path delivers.  Send and receive halves pipeline, so the time is
        the fill of the four link stages at their per-stage loads.
        """
        c = self.config
        s = payload_bytes_per_gpu
        inject = s / c.in_node_bw_gbps
        uplink = (c.gpus_per_node * s) / (c.num_out_switches * c.gpu_side_out_bw_gbps)
        return c.access_latency_ns + 2 * inject + 2 * uplink

    def collective_time_ns(self, collective, payload_bytes: int) -> float:
        """Time for a collective executed in the switches (Sec. IV-D, model 3).

        All-Gather / Reduce-Scatter map directly onto the gather-load /
        scatter-store pipelines (``payload_bytes`` is the full tensor, so
        the per-GPU shard is ``payload / num_gpus``); All-Reduce is a
        scatter-store followed by a gather-load; All-to-All uses the
        fabric transpose path.
        """
        from repro.trace.node import CollectiveType, TensorLocation
        from repro.memory.api import MemoryRequest

        if payload_bytes < 0:
            raise ValueError(f"negative payload {payload_bytes}")
        if collective is CollectiveType.ALL_TO_ALL:
            return self.alltoall_time_ns(payload_bytes)
        shard = max(1, payload_bytes // self.config.num_gpus)
        request = MemoryRequest(shard, location=TensorLocation.REMOTE)
        one_pass = self.access_time_ns(request)
        if collective is CollectiveType.ALL_REDUCE:
            return 2 * one_pass
        if collective in (CollectiveType.ALL_GATHER, CollectiveType.REDUCE_SCATTER):
            return one_pass
        raise ValueError(f"unsupported fabric collective {collective!r}")
