"""Per-dimension collective phase math.

A collective over an N-dimensional topology runs as a sequence of
*phases*, one per dimension, each executing that dimension's
topology-aware algorithm (multi-rail hierarchical collectives,
Sec. II-B of the paper):

- **All-Reduce** = Reduce-Scatter over dims in some order, then All-Gather
  over the same dims in reverse order;
- **All-Gather** / **Reduce-Scatter** = one pass over the dims;
- **All-to-All** = one transpose phase per dim at constant payload.

Payload accounting (per NPU, entering phase on a dimension of size ``k``):

=================  ====================  =================
Phase kind         Serialized traffic    Payload at exit
=================  ====================  =================
REDUCE_SCATTER     ``p * (k-1)/k``       ``p / k``
ALL_GATHER         ``p * (k-1)``         ``p * k``
ALL_TO_ALL         ``p * f(block, k)``   ``p``
=================  ====================  =================

where ``p`` is the entry payload and ``f`` is
:func:`~repro.network.building_blocks.alltoall_traffic_fraction` (direct
paths on FC/Switch; relayed on Ring).  All RS/AG algorithms on the three
building blocks are bandwidth-optimal, so traffic depends only on ``k``;
the block type contributes the latency-step count.

Phase wall time is ``steps(block, k) * link_latency + traffic / bandwidth``
— the same closed form the analytical backend uses for single transfers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.network.building_blocks import (
    alltoall_traffic_fraction,
    collective_traffic_fraction,
    latency_steps,
)
from repro.network.topology import DimSpec, MultiDimTopology
from repro.trace.node import CollectiveType


class PhaseKind(enum.Enum):
    """What a single per-dimension phase does."""

    REDUCE_SCATTER = "rs"
    ALL_GATHER = "ag"
    ALL_TO_ALL = "a2a"


@dataclass(frozen=True)
class Phase:
    """One per-dimension step of a decomposed collective.

    Attributes:
        dim: Topology dimension index the phase runs on.
        kind: RS / AG / A2A.
        payload_bytes: Per-NPU payload entering the phase (for AG this is
            the *pre-gather* shard; traffic is ``payload * (k-1)``).
    """

    dim: int
    kind: PhaseKind
    payload_bytes: float


def phase_traffic_bytes(spec: DimSpec, kind: PhaseKind, payload_bytes: float) -> float:
    """Bytes each NPU serializes into the dimension for this phase."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload {payload_bytes}")
    k = spec.size
    if k <= 1:
        return 0.0
    if kind is PhaseKind.REDUCE_SCATTER:
        return payload_bytes * collective_traffic_fraction(k)
    if kind is PhaseKind.ALL_GATHER:
        return payload_bytes * (k - 1)
    return payload_bytes * alltoall_traffic_fraction(spec.block, k)


def phase_busy_ns(spec: DimSpec, kind: PhaseKind, payload_bytes: float) -> float:
    """Port-serialization time of one phase (the bandwidth term).

    This is how long the phase occupies the NPU's egress port; link
    latency overlaps with the next pipelined chunk's serialization and is
    charged to the chunk's completion, not the port.
    """
    if spec.size <= 1:
        return 0.0
    traffic = phase_traffic_bytes(spec, kind, payload_bytes)
    return traffic / spec.bandwidth_gbps


def phase_latency_ns(spec: DimSpec) -> float:
    """Propagation term of one phase: algorithm steps x link latency."""
    if spec.size <= 1:
        return 0.0
    return latency_steps(spec.block, spec.size) * spec.latency_ns


def phase_duration_ns(spec: DimSpec, kind: PhaseKind, payload_bytes: float) -> float:
    """Wall time of one phase: latency steps + serialization."""
    if spec.size <= 1:
        return 0.0
    return phase_latency_ns(spec) + phase_busy_ns(spec, kind, payload_bytes)


@dataclass
class CollectiveDecomposition:
    """A fully-ordered phase plan for one chunk of a collective."""

    phases: Tuple[Phase, ...]

    def total_duration_ns(self, topology: MultiDimTopology) -> float:
        """Sum of phase durations — the *sequential* (unpipelined) time."""
        return sum(
            phase_duration_ns(topology.dims[p.dim], p.kind, p.payload_bytes)
            for p in self.phases
        )

    def traffic_by_dim(self, topology: MultiDimTopology) -> dict:
        """Per-dimension serialized bytes (reproduces paper Table IV rows)."""
        out: dict = {}
        for p in self.phases:
            traffic = phase_traffic_bytes(
                topology.dims[p.dim], p.kind, p.payload_bytes
            )
            out[p.dim] = out.get(p.dim, 0.0) + traffic
        return out


def decompose_collective(
    collective: CollectiveType,
    topology: MultiDimTopology,
    dims_order: Sequence[int],
    payload_bytes: float,
) -> CollectiveDecomposition:
    """Build the static phase plan for a collective chunk.

    Args:
        collective: The collective pattern.
        topology: Physical topology (supplies dim sizes/blocks).
        dims_order: Dimension indices in traversal order (the Reduce-Scatter
            order for All-Reduce; the All-Gather half replays it reversed).
        payload_bytes: Per-NPU payload of the chunk.  Semantics by type:
            ALL_REDUCE / REDUCE_SCATTER / ALL_TO_ALL — bytes each NPU holds
            at the start; ALL_GATHER — bytes of the *gathered result* (each
            NPU contributes ``payload / group_size``).
    """
    if payload_bytes < 0:
        raise ValueError(f"negative payload {payload_bytes}")
    active = [d for d in dims_order if topology.dims[d].size > 1]
    phases: List[Phase] = []

    if collective is CollectiveType.ALL_REDUCE:
        size = float(payload_bytes)
        sizes_at_entry = []
        for d in active:
            sizes_at_entry.append(size)
            phases.append(Phase(d, PhaseKind.REDUCE_SCATTER, size))
            size /= topology.dims[d].size
        # All-Gather replays the RS order in reverse; an AG phase's entry
        # shard equals the corresponding RS phase's exit payload.
        for d, entry in zip(reversed(active), reversed(sizes_at_entry)):
            size_after_rs = entry / topology.dims[d].size
            phases.append(Phase(d, PhaseKind.ALL_GATHER, size_after_rs))
    elif collective is CollectiveType.REDUCE_SCATTER:
        size = float(payload_bytes)
        for d in active:
            phases.append(Phase(d, PhaseKind.REDUCE_SCATTER, size))
            size /= topology.dims[d].size
    elif collective is CollectiveType.ALL_GATHER:
        group = 1
        for d in active:
            group *= topology.dims[d].size
        shard = float(payload_bytes) / group
        for d in active:
            phases.append(Phase(d, PhaseKind.ALL_GATHER, shard))
            shard *= topology.dims[d].size
    elif collective is CollectiveType.ALL_TO_ALL:
        for d in active:
            phases.append(Phase(d, PhaseKind.ALL_TO_ALL, float(payload_bytes)))
    else:
        raise ValueError(f"unsupported collective {collective!r}")

    return CollectiveDecomposition(phases=tuple(phases))
