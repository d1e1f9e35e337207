"""Normalized operator-graph IR — the frontend's internal model form.

Every ingestion path (HF ``config.json``, operator-graph JSON, the zoo)
lowers into an :class:`OpGraph`: a DAG, checked once at construction, of
:class:`OpNode` records carrying *analytic* per-op costs — forward FLOPs,
parameter bytes, and activation output bytes — derived from shapes with the
same accounting idioms as :mod:`repro.workload.models` (2 FLOPs per
multiply-accumulate, backward = 2x forward).

The IR is deliberately simulator-agnostic: it knows nothing about
topologies or collectives.  Parallelism is a *planner* concern
(:mod:`repro.frontend.planner`); ops merely advertise how they can be
sharded through their ``tp`` strategy:

- ``"col"`` — output-dimension sharding (Megatron column parallel):
  comm-free forward, partial-sum All-Reduce in the backward;
- ``"row"`` — input-dimension sharding (row parallel): partial-sum
  All-Reduce in the forward, comm-free backward;
- ``"none"`` — replicated on every tensor-parallel rank.

Expert/table-sharded ops (MoE FFNs, DLRM embedding bags) set
``routed=True`` and carry a per-rank All-to-All payload in
``route_bytes``; the planner turns them into dispatch/combine
All-to-Alls over the expert-parallel dimensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InputError
from repro.trace.graph import kahn_order


class FrontendError(InputError):
    """Raised for malformed model specs or un-plannable op graphs."""


class OpKind(enum.Enum):
    """Operation class of an op-graph node."""

    MATMUL = "matmul"
    ATTENTION = "attention"
    CONV = "conv"
    NORM = "norm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"


_TP_STRATEGIES = ("none", "col", "row")


# -- analytic cost helpers (2 FLOPs per MAC) ----------------------------------------


def matmul_flops(m: int, k: int, n: int) -> int:
    """GEMM cost: ``(m x k) @ (k x n)``."""
    return 2 * m * k * n


def attention_flops(batch: int, seq: int, hidden: int) -> int:
    """Score + context matmuls: ``QK^T`` plus ``scores @ V``."""
    return 4 * batch * seq * seq * hidden


def conv2d_flops(batch: int, c_in: int, c_out: int, kernel: int,
                 out_h: int, out_w: int) -> int:
    """Direct convolution cost at the output resolution."""
    return 2 * batch * c_in * c_out * kernel * kernel * out_h * out_w


@dataclass
class OpNode:
    """One operator in a model's dataflow graph.

    Attributes:
        op_id: Unique (per graph) integer id.
        name: Human-readable label, e.g. ``"L3.attn.qkv"``.
        kind: Operation class.
        deps: Ids of producer ops.
        flops: Forward FLOPs of the *unsharded* op at the ingest batch.
        param_bytes: Parameter footprint (0 for activation-only ops).
        output_bytes: Activation output size per replica.
        input_bytes: Primary-input activation size (used to price the
            backward tensor-parallel All-Reduce of column-parallel ops).
        layer: Repeated-block index for layer grouping (``None`` = stem /
            head ops outside the repeated stack).
        tp: Tensor-parallel strategy — ``"none"`` | ``"col"`` | ``"row"``.
        routed: Expert/table-sharded op exchanged with All-to-All.
        route_bytes: Per-rank All-to-All payload for routed ops.
        attrs: Free-form metadata (head counts, shapes, ...).
    """

    op_id: int
    name: str
    kind: OpKind
    deps: Tuple[int, ...] = ()
    flops: int = 0
    param_bytes: int = 0
    output_bytes: int = 0
    input_bytes: int = 0
    layer: Optional[int] = None
    tp: str = "none"
    routed: bool = False
    route_bytes: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.deps = tuple(self.deps)

    def validate(self) -> None:
        """Per-node consistency; raises :class:`FrontendError`."""
        if self.op_id < 0:
            raise FrontendError(f"op_id must be >= 0, got {self.op_id}")
        for fname in ("flops", "param_bytes", "output_bytes", "input_bytes",
                      "route_bytes"):
            if getattr(self, fname) < 0:
                raise FrontendError(
                    f"op {self.op_id} ({self.name!r}): {fname} must be >= 0, "
                    f"got {getattr(self, fname)}")
        if self.tp not in _TP_STRATEGIES:
            raise FrontendError(
                f"op {self.op_id} ({self.name!r}): unknown tp strategy "
                f"{self.tp!r}; expected one of {_TP_STRATEGIES}")
        if self.op_id in self.deps:
            raise FrontendError(
                f"op {self.op_id} ({self.name!r}) depends on itself")
        if self.routed and self.route_bytes <= 0:
            raise FrontendError(
                f"op {self.op_id} ({self.name!r}) is routed but has no "
                "route_bytes payload")

    def to_dict(self) -> Dict[str, Any]:
        """Compact dict form (defaults elided) for the opgraph JSON format."""
        out: Dict[str, Any] = {"id": self.op_id, "kind": self.kind.value}
        if self.name:
            out["name"] = self.name
        if self.deps:
            out["deps"] = list(self.deps)
        for key, value in (("flops", self.flops),
                           ("param_bytes", self.param_bytes),
                           ("output_bytes", self.output_bytes),
                           ("input_bytes", self.input_bytes)):
            if value:
                out[key] = value
        if self.layer is not None:
            out["layer"] = self.layer
        if self.tp != "none":
            out["tp"] = self.tp
        if self.routed:
            out["routed"] = True
            out["route_bytes"] = self.route_bytes
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def walk_ops(name: str, ops: Sequence[OpNode]
             ) -> Tuple[List[str], List[int], Dict[int, List[int]]]:
    """The op-graph rules, in one pass that reports instead of raising.

    Returns the structural findings (per-op :meth:`OpNode.validate`
    faults and duplicate ids, then unknown deps, then a cycle among the
    remaining edges), the topological order (ties broken by op id), and
    each op's consumers in op order.
    """
    findings: List[str] = []
    ids: set = set()
    for op in ops:
        try:
            op.validate()
        except FrontendError as exc:
            findings.append(str(exc))
        if op.op_id in ids:
            findings.append(f"duplicate op id {op.op_id} in graph {name!r}")
        ids.add(op.op_id)
    indegree: Dict[int, int] = {}
    consumers: Dict[int, List[int]] = {}
    for op in ops:
        indegree[op.op_id] = 0
        for dep in op.deps:
            if dep not in ids:
                findings.append(f"op {op.op_id} ({op.name!r}) depends on "
                                f"unknown op {dep}")
            elif dep != op.op_id:
                consumers.setdefault(dep, []).append(op.op_id)
                indegree[op.op_id] += 1
    order = kahn_order(indegree, consumers)
    if len(order) != len(indegree):
        cyclic = sorted(oid for oid, deg in indegree.items() if deg > 0)
        findings.append(f"graph {name!r} contains a cycle involving ops "
                        f"{cyclic[:10]}")
    return findings, order, consumers


class OpGraph:
    """A model dataflow DAG, valid by construction, with cost queries.

    Construction runs :func:`walk_ops` once, raises its first finding as
    a :class:`FrontendError`, and keeps its order and consumer lists.
    Lint a broken op list (:func:`repro.workload.lint.lint_op_graph`)
    to see every fault.
    """

    def __init__(self, name: str, ops: Sequence[OpNode] = ()) -> None:
        self.name = name
        self.ops: List[OpNode] = list(ops)
        findings, order, self._consumers = walk_ops(name, self.ops)
        if findings:
            raise FrontendError(findings[0])
        self._by_id: Dict[int, OpNode] = {op.op_id: op for op in self.ops}
        self._order = [self._by_id[oid] for oid in order]

    # -- structure ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[OpNode]:
        return iter(self.ops)

    def op(self, op_id: int) -> OpNode:
        return self._by_id[op_id]

    def topological_order(self) -> List[OpNode]:
        """Deterministic topological order (ties broken by op id)."""
        return list(self._order)

    def consumers(self, op_id: int) -> Sequence[int]:
        """Ids of the ops that depend on ``op_id``, in op order."""
        return self._consumers.get(op_id, ())

    # -- aggregate queries ---------------------------------------------------------

    def total_flops(self) -> int:
        return sum(op.flops for op in self.ops)

    def total_param_bytes(self) -> int:
        return sum(op.param_bytes for op in self.ops)

    def total_params(self, dtype_bytes: int = 2) -> int:
        return self.total_param_bytes() // max(1, dtype_bytes)

    @property
    def num_layers(self) -> int:
        layers = [op.layer for op in self.ops if op.layer is not None]
        return max(layers) + 1 if layers else 0

    def layer_groups(self) -> List[Tuple[Optional[int], List[OpNode]]]:
        """Ops grouped by layer index, in graph order.

        The stem (``layer=None`` ops before the first layer) leads; a
        tail group holds ``layer=None`` ops after the stack (the head).
        """
        groups: List[Tuple[Optional[int], List[OpNode]]] = []
        current_key: Any = object()  # sentinel != None and != any int
        for op in self.ops:
            if not groups or op.layer != current_key:
                groups.append((op.layer, [op]))
                current_key = op.layer
            else:
                groups[-1][1].append(op)
        return groups

    def has_tensor_parallel_ops(self) -> bool:
        return any(op.tp != "none" for op in self.ops)

    def summary(self) -> Dict[str, Any]:
        """Aggregate statistics for CLI / report output."""
        by_kind: Dict[str, int] = {}
        for op in self.ops:
            by_kind[op.kind.value] = by_kind.get(op.kind.value, 0) + 1
        return {
            "name": self.name,
            "ops": len(self.ops),
            "ops_by_kind": by_kind,
            "layers": self.num_layers,
            "total_gflops": round(self.total_flops() / 1e9, 3),
            "total_params": self.total_params(),
            "param_gib": round(self.total_param_bytes() / (1 << 30), 3),
            "tensor_parallel_ops": sum(
                1 for op in self.ops if op.tp != "none"),
            "routed_ops": sum(1 for op in self.ops if op.routed),
        }


class OpGraphBuilder:
    """Incremental :class:`OpGraph` construction with id assignment.

    Mirrors :class:`repro.workload.generators.TraceBuilder` so parser
    code reads the same way as the builtin generators.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._ops: List[OpNode] = []

    def add(self, name: str, kind: OpKind, *, deps: Sequence[int] = (),
            flops: int = 0, param_bytes: int = 0, output_bytes: int = 0,
            input_bytes: int = 0, layer: Optional[int] = None,
            tp: str = "none", routed: bool = False, route_bytes: int = 0,
            attrs: Optional[Dict[str, Any]] = None) -> int:
        op = OpNode(
            op_id=len(self._ops), name=name, kind=kind, deps=tuple(deps),
            flops=flops, param_bytes=param_bytes, output_bytes=output_bytes,
            input_bytes=input_bytes, layer=layer, tp=tp, routed=routed,
            route_bytes=route_bytes, attrs=dict(attrs or {}),
        )
        self._ops.append(op)
        return op.op_id

    def build(self) -> OpGraph:
        return OpGraph(self.name, self._ops)
