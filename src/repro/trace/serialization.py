"""JSON (de)serialization for ASTRA-sim ETs.

The on-disk format is deliberately simple and versioned::

    {
      "format": "astra-sim-et",
      "version": 1,
      "npu_id": 0,
      "nodes": [
        {"id": 0, "type": "compute", "name": "fwd.mlp0",
         "deps": [], "tensor_bytes": 1048576, "flops": 2000000},
        {"id": 1, "type": "comm_collective", "collective": "all_reduce",
         "deps": [0], "tensor_bytes": 4194304, "comm_dims": [0, 1]},
        ...
      ]
    }

Only keys with non-default values are emitted, keeping large traces small.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import strict_int
from repro.trace.graph import ExecutionTrace, TraceValidationError
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation

FORMAT_NAME = "astra-sim-et"
FORMAT_VERSION = 1


def _node_to_dict(node: ETNode) -> Dict[str, Any]:
    out: Dict[str, Any] = {"id": node.node_id, "type": node.node_type.value}
    if node.name:
        out["name"] = node.name
    if node.deps:
        out["deps"] = list(node.deps)
    if node.tensor_bytes:
        out["tensor_bytes"] = node.tensor_bytes
    if node.flops:
        out["flops"] = node.flops
    if node.collective is not None:
        out["collective"] = node.collective.value
    if node.comm_dims is not None:
        out["comm_dims"] = list(node.comm_dims)
    if node.peer is not None:
        out["peer"] = node.peer
    if node.tag:
        out["tag"] = node.tag
    if node.location is not TensorLocation.LOCAL:
        out["location"] = node.location.value
    if node.involved_npus is not None:
        out["involved_npus"] = list(node.involved_npus)
    if node.attrs:
        out["attrs"] = node.attrs
    return out


#: The converters' message for a non-integer id, peer or rank.
MUST_BE_INT = "{what} must be an integer, got {value!r}"


#: :func:`repro.errors.strict_int` raising the trace loaders' error.
int_field = functools.partial(strict_int, error=TraceValidationError)


def int_list(raw: Dict[str, Any], key: str, where: str
             ) -> Optional[Tuple[int, ...]]:
    """``raw[key]`` as a tuple of ints, or ``None`` when absent."""
    if key not in raw:
        return None
    values = raw[key]
    if not isinstance(values, (list, tuple)):
        raise TraceValidationError(
            f"{where}: {key!r} must be a list, got {values!r}")
    return tuple(int_field(v, f"{where}: field {key!r}") for v in values)


def _enum(kind: Any, value: Any, what: str) -> Any:
    try:
        return kind(value)
    except ValueError:
        raise TraceValidationError(
            f"{what}: unknown {kind.__name__} {value!r}") from None


def _node_from_dict(data: Any, index: int) -> ETNode:
    if not isinstance(data, dict):
        raise TraceValidationError(f"nodes[{index}] is not an object: {data!r}")
    try:
        node_type = NodeType(data["type"])
    except (KeyError, ValueError) as exc:
        raise TraceValidationError(f"bad node type in {data!r}") from exc
    node_id = int_field(data.get("id"), f"nodes[{index}]: field 'id'")
    what = f"node {node_id}"
    name, attrs, peer = (data.get("name", ""), data.get("attrs", {}),
                         data.get("peer"))
    if not isinstance(name, str) or not isinstance(attrs, dict):
        raise TraceValidationError(
            f"{what}: 'name' must be a string and 'attrs' an object")
    return ETNode(
        node_id=node_id,
        node_type=node_type,
        name=name,
        deps=int_list(data, "deps", what) or (),
        tensor_bytes=int_field(data.get("tensor_bytes", 0),
                               f"{what}: field 'tensor_bytes'"),
        flops=int_field(data.get("flops", 0), f"{what}: field 'flops'"),
        collective=(_enum(CollectiveType, data["collective"], what)
                    if "collective" in data else None),
        comm_dims=int_list(data, "comm_dims", what),
        peer=None if peer is None else int_field(peer, f"{what}: field 'peer'"),
        tag=int_field(data.get("tag", 0), f"{what}: field 'tag'"),
        location=_enum(TensorLocation, data.get("location", "local"), what),
        involved_npus=int_list(data, "involved_npus", what),
        attrs=attrs,
    )


def dumps_trace(trace: ExecutionTrace, indent: int = 0) -> str:
    """Serialize a trace to a JSON string."""
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "npu_id": trace.npu_id,
        "nodes": [_node_to_dict(n) for n in trace.nodes],
    }
    return json.dumps(payload, indent=indent or None)


def loads_trace(text: str) -> ExecutionTrace:
    """Parse a trace from a JSON string (validates format + graph)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceValidationError(f"ET is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise TraceValidationError(
            f"an ET document must be a JSON object, got "
            f"{type(payload).__name__}")
    if payload.get("format") != FORMAT_NAME:
        raise TraceValidationError(
            f"not an ASTRA-sim ET (format={payload.get('format')!r})"
        )
    version = int_field(payload.get("version"), "ET field 'version'")
    if version != FORMAT_VERSION:
        raise TraceValidationError(f"unsupported ET version {version!r}")
    raw_nodes = payload.get("nodes", [])
    if not isinstance(raw_nodes, list):
        raise TraceValidationError(
            f"'nodes' must be a list, got {type(raw_nodes).__name__}")
    nodes = [_node_from_dict(d, i) for i, d in enumerate(raw_nodes)]
    npu_id = int_field(payload.get("npu_id", 0), "field 'npu_id'")
    return ExecutionTrace(npu_id=npu_id, nodes=nodes)


def save_trace(trace: ExecutionTrace, path: Union[str, Path]) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(dumps_trace(trace))


def load_trace(path: Union[str, Path]) -> ExecutionTrace:
    """Read a trace from a JSON file."""
    p = Path(path)
    if not p.is_file():
        raise TraceValidationError(f"trace file not found: {p}")
    return loads_trace(p.read_text())
