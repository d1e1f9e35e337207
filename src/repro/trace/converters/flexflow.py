"""FlexFlow task graph → ASTRA-sim ET converter.

FlexFlow exports a per-device task graph with explicit dependencies, which
maps nearly one-to-one onto the ASTRA-sim ET schema::

    {
      "schema": "flexflow-taskgraph",
      "device": 2,
      "tasks": [
        {"task_id": 0, "kind": "task", "name": "linear_fwd",
         "deps": [], "flops": 1000000, "bytes": 4096},
        {"task_id": 1, "kind": "allreduce", "deps": [0], "bytes": 8192},
        {"task_id": 2, "kind": "send", "deps": [1], "bytes": 64, "peer": 3},
      ]
    }
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.trace.graph import ExecutionTrace, TraceValidationError
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation
from repro.trace.serialization import MUST_BE_INT, int_field, int_list

_COLLECTIVE_KINDS = {
    "allreduce": CollectiveType.ALL_REDUCE,
    "allgather": CollectiveType.ALL_GATHER,
    "reducescatter": CollectiveType.REDUCE_SCATTER,
    "alltoall": CollectiveType.ALL_TO_ALL,
}


def convert_flexflow_taskgraph(payload: Dict[str, Any]) -> ExecutionTrace:
    """Convert one device's FlexFlow task graph into an ET.

    Raises :class:`TraceValidationError` on schema problems — including
    malformed task records (missing ids, send/recv without a peer, bad
    locations, numbers that break :func:`repro.errors.strict_int`) and
    truncated documents with unresolvable dependencies.
    """
    if not isinstance(payload, dict):
        raise TraceValidationError(
            f"flexflow payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != "flexflow-taskgraph":
        raise TraceValidationError(
            f"expected schema 'flexflow-taskgraph', got {payload.get('schema')!r}"
        )
    device = int_field(payload.get("device", 0), "'device'", template=MUST_BE_INT)
    tasks: Sequence[Dict[str, Any]] = payload.get("tasks", ())
    if not isinstance(tasks, (list, tuple)):
        raise TraceValidationError(
            f"'tasks' must be a list, got {type(tasks).__name__}")

    nodes: List[ETNode] = []
    for index, task in enumerate(tasks):
        if not isinstance(task, dict):
            raise TraceValidationError(
                f"tasks[{index}] is not an object: {task!r}")
        kind = task.get("kind", "task")
        deps = int_list(task, "deps", f"tasks[{index}]") or ()
        if "task_id" not in task:
            raise TraceValidationError(
                f"tasks[{index}] ({task.get('name', kind)!r}) has no "
                "'task_id' field")
        tid = int_field(task["task_id"], f"tasks[{index}]: task_id",
                        template=MUST_BE_INT)
        name = task.get("name", kind)
        if not isinstance(name, str):
            raise TraceValidationError(
                f"task {tid}: 'name' must be a string, got {name!r}")
        common = dict(
            node_id=tid, name=name, deps=deps,
            tensor_bytes=int_field(task.get("bytes", 0),
                                   f"task {tid}: field 'bytes'"))
        if not isinstance(kind, str):
            raise TraceValidationError(f"unknown FlexFlow task kind {kind!r}")
        if kind in _COLLECTIVE_KINDS:
            nodes.append(ETNode(
                node_type=NodeType.COMM_COLLECTIVE,
                collective=_COLLECTIVE_KINDS[kind],
                comm_dims=int_list(task, "comm_dims", f"task {tid}"),
                **common))
        elif kind in ("send", "recv"):
            if "peer" not in task:
                raise TraceValidationError(
                    f"task {tid} ({name!r}): {kind} requires a 'peer' field")
            peer = int_field(
                task["peer"], f"task {tid} ({name!r}): peer",
                template="{what} must be an integer device id, got {value!r}")
            nodes.append(ETNode(
                node_type=(
                    NodeType.COMM_SEND if kind == "send" else NodeType.COMM_RECV
                ),
                peer=peer,
                tag=int_field(task.get("tag", 0), f"task {tid}: field 'tag'"),
                **common))
        elif kind in ("load", "store"):
            try:
                location = TensorLocation(task.get("location", "local"))
            except ValueError:
                raise TraceValidationError(
                    f"task {tid} ({name!r}): unknown tensor location "
                    f"{task.get('location')!r}")
            nodes.append(ETNode(
                node_type=(
                    NodeType.MEMORY_LOAD if kind == "load" else NodeType.MEMORY_STORE
                ),
                location=location,
                **common))
        elif kind == "task":
            nodes.append(ETNode(
                node_type=NodeType.COMPUTE,
                flops=int_field(task.get("flops", 0),
                                f"task {tid}: field 'flops'"),
                **common))
        else:
            raise TraceValidationError(f"unknown FlexFlow task kind {kind!r}")

    return ExecutionTrace(npu_id=device, nodes=nodes)
