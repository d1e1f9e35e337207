"""PyTorch ExecutionGraphObserver → ASTRA-sim ET converter.

The PyTorch profiler's ExecutionGraphObserver records one JSON document per
rank with operator nodes; data flow is expressed through tensor ids in each
node's ``inputs``/``outputs`` lists.  This converter consumes that shape::

    {
      "schema": "pytorch-eg",
      "rank": 3,
      "nodes": [
        {"id": 1, "name": "aten::mm", "inputs": [100, 101],
         "outputs": [102], "flops": 8388608, "tensor_bytes": 4096},
        {"id": 2, "name": "nccl:all_reduce", "inputs": [102],
         "outputs": [103], "tensor_bytes": 4096, "comm_dims": [0]},
        ...
      ]
    }

Conversion rules (mirrors the real astra-sim chakra converter):

- node kind is inferred from the operator name — ``nccl:``/``c10d::``
  prefixes map to communication, ``aten::copy_``/``Memcpy``/``aten::to``
  map to memory, everything else with flops/bytes maps to compute;
- dependencies are recovered from data flow: a node depends on the most
  recent producer of each of its input tensors;
- control-only nodes (no flops, no payload, no comm) are elided, with
  their dependencies spliced through to the consumers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.graph import ExecutionTrace, TraceValidationError
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation
from repro.trace.serialization import MUST_BE_INT, int_field, int_list

_COMM_PREFIXES = ("nccl:", "c10d::", "oneccl:")
_MEMORY_NAMES = ("aten::copy_", "aten::to", "Memcpy", "memcpy", "aten::load")

_COLLECTIVE_BY_SUFFIX = {
    "all_reduce": CollectiveType.ALL_REDUCE,
    "allreduce": CollectiveType.ALL_REDUCE,
    "all_gather": CollectiveType.ALL_GATHER,
    "allgather": CollectiveType.ALL_GATHER,
    "reduce_scatter": CollectiveType.REDUCE_SCATTER,
    "reducescatter": CollectiveType.REDUCE_SCATTER,
    "all_to_all": CollectiveType.ALL_TO_ALL,
    "alltoall": CollectiveType.ALL_TO_ALL,
}


def _classify(name: str) -> str:
    lowered = name.lower()
    if any(lowered.startswith(p) for p in _COMM_PREFIXES):
        return "comm"
    if any(m.lower() in lowered for m in _MEMORY_NAMES):
        return "memory"
    return "compute"


def _collective_for(name: str) -> CollectiveType:
    lowered = name.lower()
    for suffix, ctype in _COLLECTIVE_BY_SUFFIX.items():
        if lowered.endswith(suffix):
            return ctype
    raise TraceValidationError(f"unrecognized collective operator {name!r}")


def _node_id(raw: Any, index: int) -> int:
    """The node's required integer id, with a structured error."""
    if not isinstance(raw, dict):
        raise TraceValidationError(
            f"nodes[{index}] is not an object: {raw!r}")
    if "id" not in raw:
        raise TraceValidationError(
            f"nodes[{index}] ({raw.get('name', '?')!r}) has no 'id' field")
    return int_field(raw["id"], f"nodes[{index}]: id", template=MUST_BE_INT)


def convert_pytorch_eg(payload: Dict[str, Any]) -> ExecutionTrace:
    """Convert one rank's PyTorch execution-graph JSON into an ET.

    Raises :class:`TraceValidationError` on schema problems — including
    malformed node records (missing/non-integer ids, bad peer or
    location fields, numbers that break :func:`repro.errors.strict_int`)
    and truncated documents whose surviving nodes depend on nodes that
    were cut off.
    """
    if not isinstance(payload, dict):
        raise TraceValidationError(
            f"pytorch-eg payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != "pytorch-eg":
        raise TraceValidationError(
            f"expected schema 'pytorch-eg', got {payload.get('schema')!r}"
        )
    raw_nodes: Sequence[Dict[str, Any]] = payload.get("nodes", ())
    if not isinstance(raw_nodes, (list, tuple)):
        raise TraceValidationError(
            f"'nodes' must be a list, got {type(raw_nodes).__name__}")
    rank = int_field(payload.get("rank", 0), "'rank'", template=MUST_BE_INT)

    # Pass 1: map each tensor id to its (last) producer node id.
    producer: Dict[int, int] = {}
    records: List[Tuple[int, str, Dict[str, Any]]] = []
    for index, raw in enumerate(raw_nodes):
        node_id = _node_id(raw, index)
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise TraceValidationError(
                f"node {node_id}: 'name' must be a string, got {name!r}")
        records.append((node_id, name, raw))
        for tensor_id in int_list(raw, "outputs", f"node {node_id}") or ():
            producer[tensor_id] = node_id

    # Pass 2: compute raw data-flow deps.
    raw_deps: Dict[int, List[int]] = {}
    for node_id, _name, raw in records:
        deps = []
        for tensor_id in int_list(raw, "inputs", f"node {node_id}") or ():
            src = producer.get(tensor_id)
            if src is not None and src != node_id:
                deps.append(src)
        deps.extend(int_list(raw, "ctrl_deps", f"node {node_id}") or ())
        raw_deps[node_id] = sorted(set(deps))

    # Pass 3: identify control-only nodes to elide.
    elided = {
        node_id for node_id, name, raw in records
        if _classify(name) == "compute"
        and not raw.get("flops") and not raw.get("tensor_bytes")
    }

    def resolve(dep: int, seen: Optional[frozenset] = None) -> Tuple[int, ...]:
        """Splice dependencies through elided nodes (transitively)."""
        if dep not in elided:
            return (dep,)
        seen = seen or frozenset()
        if dep in seen:
            return ()
        out: List[int] = []
        for parent in raw_deps.get(dep, ()):
            out.extend(resolve(parent, seen | {dep}))
        return tuple(out)

    nodes: List[ETNode] = []
    for node_id, name, raw in records:
        if node_id in elided:
            continue
        where = f"node {node_id}"
        kind = _classify(name)
        deps: List[int] = []
        for dep in raw_deps[node_id]:
            deps.extend(resolve(dep))
        common = dict(
            node_id=node_id, name=name, deps=tuple(sorted(set(deps))),
            tensor_bytes=int_field(raw.get("tensor_bytes", 0),
                                   f"{where}: field 'tensor_bytes'"))

        if kind == "comm":
            if "peer" in raw:
                peer = int_field(
                    raw["peer"], f"{where} ({name!r}): peer",
                    template="{what} must be an integer NPU id, got {value!r}")
                node_type = (
                    NodeType.COMM_SEND
                    if "send" in name.lower()
                    else NodeType.COMM_RECV
                )
                nodes.append(ETNode(
                    node_type=node_type, peer=peer,
                    tag=int_field(raw.get("tag", 0), f"{where}: field 'tag'"),
                    **common))
            else:
                nodes.append(ETNode(
                    node_type=NodeType.COMM_COLLECTIVE,
                    collective=_collective_for(name),
                    comm_dims=int_list(raw, "comm_dims", where),
                    **common))
        elif kind == "memory":
            try:
                location = TensorLocation(raw.get("location", "local"))
            except ValueError:
                raise TraceValidationError(
                    f"{where} ({name!r}): unknown tensor location "
                    f"{raw.get('location')!r}")
            node_type = (
                NodeType.MEMORY_STORE
                if raw.get("direction") == "store"
                else NodeType.MEMORY_LOAD
            )
            nodes.append(ETNode(node_type=node_type, location=location,
                                **common))
        else:
            nodes.append(ETNode(
                node_type=NodeType.COMPUTE,
                flops=int_field(raw.get("flops", 0), f"{where}: field 'flops'"),
                **common))

    return ExecutionTrace(npu_id=rank, nodes=nodes)
