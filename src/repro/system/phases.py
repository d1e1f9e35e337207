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

:func:`phase_table` is the one walk of a payload through a dimension
order: it returns one row per phase with the phase's entry payload,
port-busy time, traffic, latency and span label.  The chunk schedulers
and the chunk stepper of
:class:`~repro.system.collective_op.CollectiveOperation` read their phases
from it, memoised per run on :class:`~repro.system.scheduler.ChunkScheduler`.
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence, Tuple, Union

from repro.network.building_blocks import (
    alltoall_traffic_fraction,
    collective_traffic_fraction,
    latency_steps,
)
from repro.network.topology import DimSpec
from repro.trace.node import CollectiveType


class PhaseKind(enum.Enum):
    """What a single per-dimension phase does."""

    __hash__ = object.__hash__  # see repro.trace.node.NodeType

    REDUCE_SCATTER = "rs"
    ALL_GATHER = "ag"
    ALL_TO_ALL = "a2a"


#: Kind of the first (for All-Reduce: the Reduce-Scatter) pass.
FIRST_PASS_KIND = {
    CollectiveType.ALL_REDUCE: PhaseKind.REDUCE_SCATTER,
    CollectiveType.ALL_GATHER: PhaseKind.ALL_GATHER,
    CollectiveType.REDUCE_SCATTER: PhaseKind.REDUCE_SCATTER,
    CollectiveType.ALL_TO_ALL: PhaseKind.ALL_TO_ALL,
}

_COLLECTIVE_OF_PASS = {
    kind: collective for collective, kind in FIRST_PASS_KIND.items()
    if collective is not CollectiveType.ALL_REDUCE
}

#: ``(dim, kind, entry payload, busy_ns, traffic_bytes, latency_ns,
#: span label)`` of one phase; see :func:`phase_table`.
PhaseRow = Tuple[int, PhaseKind, float, float, float, float, str]
PhaseRows = Tuple[PhaseRow, ...]


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


def phase_latency_ns(spec: DimSpec) -> float:
    """Propagation term of one phase: algorithm steps x link latency."""
    if spec.size <= 1:
        return 0.0
    return latency_steps(spec.block, spec.size) * spec.latency_ns


def phase_table(
    specs: Union[Mapping[int, DimSpec], Sequence[DimSpec]],
    order: Sequence[int],
    kind: PhaseKind,
    payload_bytes: float,
    roundtrip: bool,
) -> PhaseRows:
    """Walk one chunk's payload through ``order``: one row per phase.

    Args:
        specs: Per-dimension specs, indexed by dimension (the effective
            specs of a communicator, or a topology's ``dims``).
        order: Dimension indices of the first pass, in traversal order.
        kind: Phase kind of the first pass.
        payload_bytes: Per-NPU payload entering the first phase.
        roundtrip: True for All-Reduce: the first pass is its
            Reduce-Scatter, and All-Gather rows replay it reversed, each
            entering with its matching Reduce-Scatter phase's exit payload.

    A row's ``busy_ns`` (traffic / bandwidth) is how long the phase
    occupies the NPU's egress port.  Its ``latency_ns``
    (:func:`phase_latency_ns`) overlaps the next pipelined chunk's
    serialization, so it delays only this chunk.  The label names the
    collective and the phase kind (``"all_reduce:rs"``).
    """
    collective = (CollectiveType.ALL_REDUCE if roundtrip
                  else _COLLECTIVE_OF_PASS[kind])
    steps = []
    mirror = []
    payload = payload_bytes
    for d in order:
        steps.append((d, kind, payload))
        if kind is PhaseKind.REDUCE_SCATTER:
            payload /= specs[d].size
        elif kind is PhaseKind.ALL_GATHER:
            payload *= specs[d].size
        if roundtrip:
            mirror.append((d, PhaseKind.ALL_GATHER, payload))
    steps.extend(reversed(mirror))
    rows = []
    for d, step_kind, entry in steps:
        spec = specs[d]
        traffic = phase_traffic_bytes(spec, step_kind, entry)
        rows.append((d, step_kind, entry, traffic / spec.bandwidth_gbps,
                     traffic, phase_latency_ns(spec),
                     f"{collective.value}:{step_kind.value}"))
    return tuple(rows)
