"""Execution-trace node schema.

The paper defines three node types — compute, memory, communication — with
per-type metadata (Sec. IV-A):

- **compute** nodes carry tensor size and FLOP count; the simulator turns
  them into cycles with a roofline model;
- **memory** nodes carry tensor size and location (local HBM vs remote
  pool); the memory API turns them into access time;
- **communication** nodes carry either a collective (type + size +
  participating dimensions) or a point-to-point send/recv (size + peer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import InputError


class TraceValidationError(InputError):
    """Raised when a trace or one of its nodes is invalid (dup ids, cycles, ...)."""


class NodeType(enum.Enum):
    """Operation class of an ET node."""

    # Members are singletons compared by identity, so hash them by
    # identity too: the C-level hash spares the engine's per-node handler
    # lookup ``Enum.__hash__``'s Python frame.
    __hash__ = object.__hash__

    COMPUTE = "compute"
    MEMORY_LOAD = "memory_load"
    MEMORY_STORE = "memory_store"
    COMM_COLLECTIVE = "comm_collective"
    COMM_SEND = "comm_send"
    COMM_RECV = "comm_recv"


class CollectiveType(enum.Enum):
    """Collective communication patterns (paper Fig. 2)."""

    __hash__ = object.__hash__  # see NodeType

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"


class TensorLocation(enum.Enum):
    """Where a memory node's tensor lives (Sec. IV-D)."""

    LOCAL = "local"
    REMOTE = "remote"


_COMM_TYPES = frozenset(
    {NodeType.COMM_COLLECTIVE, NodeType.COMM_SEND, NodeType.COMM_RECV}
)
_MEM_TYPES = frozenset({NodeType.MEMORY_LOAD, NodeType.MEMORY_STORE})


@dataclass
class ETNode:
    """One operation in an NPU's execution trace.

    Attributes:
        node_id: Unique (per trace) integer id.
        node_type: Operation class.
        name: Human-readable label (layer name etc.), purely informational.
        deps: Ids of parent nodes that must complete before this one issues.
        tensor_bytes: Payload size; meaning depends on ``node_type``
            (compute input size, memory payload, or communication size).
        flops: Floating-point operations (compute nodes only).
        collective: Collective pattern (COMM_COLLECTIVE only).
        comm_dims: Which logical topology dimensions the collective spans,
            as 0-based dimension indices; ``None`` means "all dimensions".
            This is how hybrid parallelism maps MP vs DP traffic onto
            different slices of the physical topology.
        peer: Peer NPU id (COMM_SEND / COMM_RECV only).
        tag: Match tag for point-to-point pairs.
        location: Tensor placement (memory nodes only).
        involved_npus: Explicit participant list for collectives that span a
            subset of NPUs not expressible as whole dimensions (optional).
    """

    node_id: int
    node_type: NodeType
    name: str = ""
    deps: Tuple[int, ...] = ()
    tensor_bytes: int = 0
    flops: int = 0
    collective: Optional[CollectiveType] = None
    comm_dims: Optional[Tuple[int, ...]] = None
    peer: Optional[int] = None
    tag: int = 0
    location: TensorLocation = TensorLocation.LOCAL
    involved_npus: Optional[Tuple[int, ...]] = None
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.deps = tuple(self.deps)
        if self.comm_dims is not None:
            self.comm_dims = tuple(self.comm_dims)
        if self.involved_npus is not None:
            self.involved_npus = tuple(self.involved_npus)
        self.validate()

    # -- classification helpers -------------------------------------------------

    @property
    def is_compute(self) -> bool:
        return self.node_type is NodeType.COMPUTE

    @property
    def is_memory(self) -> bool:
        return self.node_type in _MEM_TYPES

    @property
    def is_comm(self) -> bool:
        return self.node_type in _COMM_TYPES

    @property
    def is_collective(self) -> bool:
        return self.node_type is NodeType.COMM_COLLECTIVE

    @property
    def is_p2p(self) -> bool:
        return self.node_type in (NodeType.COMM_SEND, NodeType.COMM_RECV)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check per-type metadata consistency; raises TraceValidationError."""
        if self.node_id < 0:
            raise TraceValidationError(f"node_id must be non-negative, got {self.node_id}")
        if self.tensor_bytes < 0:
            raise TraceValidationError(f"tensor_bytes must be >= 0, got {self.tensor_bytes}")
        if self.flops < 0:
            raise TraceValidationError(f"flops must be >= 0, got {self.flops}")
        if self.node_id in self.deps:
            raise TraceValidationError(f"node {self.node_id} depends on itself")
        if self.node_type is NodeType.COMM_COLLECTIVE and self.collective is None:
            raise TraceValidationError(f"collective node {self.node_id} lacks a collective type")
        if self.node_type in (NodeType.COMM_SEND, NodeType.COMM_RECV):
            if self.peer is None:
                raise TraceValidationError(f"p2p node {self.node_id} lacks a peer")
            if self.peer < 0:
                raise TraceValidationError(f"p2p node {self.node_id} has negative peer {self.peer}")
        if self.node_type is NodeType.COMPUTE and self.flops == 0 and self.tensor_bytes == 0:
            raise TraceValidationError(f"compute node {self.node_id} has neither flops nor bytes")
