"""Static validation of trace sets before simulation.

Deadlocks surface at run time; most of their causes are statically
checkable.  :func:`lint_traces` inspects a trace set against its topology
and reports:

- send/recv mismatches: a send with no matching posted receive on the
  destination (or vice versa), per ``(src, dst, tag)`` channel;
- sends or receives naming peers outside the topology;
- collective communicators whose ``involved_npus`` is not a cartesian
  product over dimensions (the hierarchical multi-rail requirement);
- ``comm_dims`` indices outside the topology;
- collective count mismatches between simulated members of the same
  communicator (rendezvous would hang).

:func:`lint_op_graph` applies the same philosophy one layer up, to
frontend-produced operator graphs (:mod:`repro.frontend`): dangling or
self dependencies, duplicate ids, cycles, cost-free ops, shape/cost
mismatches, and routed ops without an exchange payload — reported as
findings instead of raised, so ``repro ingest --lint`` can show them
all at once.

Both return a list of human-readable findings; empty means clean.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, List, Mapping, Tuple

from repro.network.topology import MultiDimTopology
from repro.trace.graph import ExecutionTrace, kahn_order
from repro.trace.node import NodeType

if TYPE_CHECKING:  # avoid a workload <-> frontend import cycle at runtime
    from repro.frontend.ir import OpGraph


def lint_traces(
    traces: Mapping[int, ExecutionTrace],
    topology: MultiDimTopology,
) -> List[str]:
    """Check a trace set for statically detectable simulation hazards."""
    findings: List[str] = []
    sends: Counter = Counter()
    recvs: Counter = Counter()
    collective_counts: Dict[Tuple, Counter] = defaultdict(Counter)

    for npu, trace in traces.items():
        if npu != trace.npu_id:
            findings.append(
                f"trace for NPU {trace.npu_id} registered under key {npu}")
        if not (0 <= npu < topology.num_npus):
            findings.append(
                f"NPU {npu} does not exist in the {topology.num_npus}-NPU "
                "topology")
            continue
        for node in trace:
            if node.node_type is NodeType.COMM_SEND:
                if not (0 <= node.peer < topology.num_npus):
                    findings.append(
                        f"npu {npu} node {node.node_id} sends to "
                        f"nonexistent NPU {node.peer}")
                else:
                    sends[(npu, node.peer, node.tag)] += 1
            elif node.node_type is NodeType.COMM_RECV:
                if not (0 <= node.peer < topology.num_npus):
                    findings.append(
                        f"npu {npu} node {node.node_id} receives from "
                        f"nonexistent NPU {node.peer}")
                else:
                    recvs[(node.peer, npu, node.tag)] += 1
            elif node.is_collective:
                findings.extend(_check_collective(topology, npu, node))
                key = _communicator_key(topology, npu, node)
                if key is not None:
                    collective_counts[key][npu] += 1

    for channel in sorted(set(sends) | set(recvs)):
        n_send, n_recv = sends[channel], recvs[channel]
        if n_send != n_recv:
            src, dst, tag = channel
            findings.append(
                f"channel {src}->{dst} tag {tag}: {n_send} sends vs "
                f"{n_recv} receives")

    for key, per_npu in collective_counts.items():
        simulated = [npu for npu in key[1] if npu in traces]
        counts = {npu: per_npu.get(npu, 0) for npu in simulated}
        if len(set(counts.values())) > 1:
            findings.append(
                f"communicator rep {key[0]}: members issue unequal "
                f"collective counts {counts} (rendezvous would hang)")

    return findings


def lint_op_graph(graph: "OpGraph") -> List[str]:
    """Check a frontend op graph for structural and costing hazards.

    Works on deferred graphs (``OpGraph(..., validate=False)``) so every
    problem is reported, not just the first one an exception would hit.
    """
    from repro.frontend.ir import FrontendError, OpKind, attention_flops, matmul_flops

    findings: List[str] = []
    seen: set = set()
    ids = {op.op_id for op in graph.ops}

    for op in graph.ops:
        label = f"op {op.op_id} ({op.name!r})"
        try:
            op.validate()
        except FrontendError as exc:
            findings.append(str(exc))
        if op.op_id in seen:
            findings.append(f"duplicate op id {op.op_id} in graph "
                            f"{graph.name!r}")
        seen.add(op.op_id)
        for dep in op.deps:
            if dep not in ids:
                findings.append(f"{label} depends on unknown op {dep}")
        if (op.flops <= 0 and op.param_bytes <= 0 and op.output_bytes <= 0
                and not op.routed):
            findings.append(f"{label} contributes no cost (zero flops, "
                            "params, and output)")
        attrs = op.attrs or {}
        if op.kind is OpKind.MATMUL and {"m", "k", "n"} <= attrs.keys():
            expected = matmul_flops(attrs["m"], attrs["k"], attrs["n"])
            if op.flops and op.flops != expected:
                findings.append(
                    f"{label}: flops {op.flops} does not match its "
                    f"m/k/n shape attrs ({expected})")
        if (op.kind is OpKind.ATTENTION
                and {"batch", "seq", "hidden"} <= attrs.keys()):
            expected = attention_flops(attrs["batch"], attrs["seq"],
                                       attrs["hidden"])
            if op.flops and op.flops != expected:
                findings.append(
                    f"{label}: flops {op.flops} does not match its "
                    f"batch/seq/hidden shape attrs ({expected})")
        if op.tp != "none" and op.kind in (OpKind.NORM, OpKind.ELEMENTWISE):
            findings.append(
                f"{label}: {op.kind.value} ops are replicated, not "
                f"tensor-parallel (tp={op.tp!r})")

    # Cycle check over the well-formed subset.
    indegree = {op.op_id: sum(1 for d in op.deps if d in ids and d != op.op_id)
                for op in graph.ops}
    children: Dict[int, List[int]] = {}
    for op in graph.ops:
        for dep in op.deps:
            if dep in ids and dep != op.op_id:
                children.setdefault(dep, []).append(op.op_id)
    if len(kahn_order(indegree, children)) != len(ids):
        cyclic = sorted(oid for oid, deg in indegree.items() if deg > 0)
        findings.append(
            f"graph {graph.name!r} contains a cycle involving ops "
            f"{cyclic[:10]}")

    return findings


def _communicator_key(topology, npu, node):
    if node.involved_npus is not None:
        return (min(node.involved_npus), tuple(sorted(node.involved_npus)))
    dims = node.comm_dims if node.comm_dims is not None else tuple(
        range(topology.num_dims))
    if any(not 0 <= d < topology.num_dims for d in dims):
        return None
    group = topology.group_across_dims(npu, dims)
    return (min(group), group)


def _check_collective(topology, npu, node) -> List[str]:
    findings: List[str] = []
    if node.comm_dims is not None:
        bad = [d for d in node.comm_dims
               if not 0 <= d < topology.num_dims]
        if bad:
            findings.append(
                f"npu {npu} node {node.node_id} ({node.name!r}): comm_dims "
                f"{bad} out of range for {topology.num_dims}-D topology")
            return findings
    if node.involved_npus is not None:
        members = node.involved_npus
        outside = [m for m in members if not 0 <= m < topology.num_npus]
        if outside:
            findings.append(
                f"npu {npu} node {node.node_id} ({node.name!r}): involved "
                f"NPUs {outside} do not exist")
            return findings
        coords = [topology.coords(m) for m in members]
        product = 1
        for d in range(topology.num_dims):
            product *= len({c[d] for c in coords})
        if product != len(set(members)):
            findings.append(
                f"npu {npu} node {node.node_id} ({node.name!r}): "
                f"involved_npus is not a cartesian product over dimensions")
    return findings
