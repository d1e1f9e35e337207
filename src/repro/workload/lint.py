"""Static validation of trace sets before simulation.

Deadlocks surface at run time; most of their causes are statically
checkable.  :func:`lint_traces` inspects a trace set against its topology
and reports:

- send/recv mismatches: a send with no matching posted receive on the
  destination (or vice versa), per ``(src, dst, tag)`` channel;
- sends or receives naming peers outside the topology;
- every collective the engine would reject, by the engine's own
  communicator rule (:func:`~repro.network.topology.communicator`):
  ``comm_dims`` or ``involved_npus`` outside the topology, a member list
  without its issuer, or one that is not a cartesian product over the
  dims (the hierarchical multi-rail requirement);
- collective count mismatches between the traced members of the same
  rendezvous, keyed as the engine keys them (rendezvous would hang); each
  finding names its key's dims and group, symbolic or listed, since one
  set of NPUs named both ways is two rendezvous.
  In-switch (``via: fabric``) collectives never rendezvous, so neither
  check applies to them.

:func:`lint_op_graph` applies the same philosophy one layer up, to
frontend op lists (:mod:`repro.frontend`): the structural faults that
:class:`~repro.frontend.ir.OpGraph` construction raises one at a time
(its one rule set, :func:`~repro.frontend.ir.walk_ops`), cost-free ops,
shape/cost mismatches, and TP annotations on replicated kinds — reported
as findings instead of raised, so ``repro ingest --lint`` can show them
all at once.

Both return a list of human-readable findings; empty means clean.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Set, Tuple

from repro.errors import InputError
from repro.network.topology import CommGroup, MultiDimTopology, communicator
from repro.trace.graph import ExecutionTrace
from repro.trace.node import NodeType
from repro.workload.generators import VIA_FABRIC

if TYPE_CHECKING:  # avoid a workload <-> frontend import cycle at runtime
    from repro.frontend.ir import OpNode


def lint_traces(
    traces: Mapping[int, ExecutionTrace],
    topology: MultiDimTopology,
) -> List[str]:
    """Check a trace set for statically detectable simulation hazards."""
    findings: List[str] = []
    sends: Counter = Counter()
    recvs: Counter = Counter()
    rendezvous: Dict[Tuple, Tuple[Set[int], Counter]] = {}
    communicators: Dict[Tuple, Tuple] = {}

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
            elif node.is_collective and node.attrs.get("via") != VIA_FABRIC:
                # In-switch collectives never rendezvous.  The rest are
                # cached per NPU and communicator, as the engine does.
                comm_id = (npu, node.comm_dims, node.involved_npus)
                comm = communicators.get(comm_id)
                if comm is None:
                    try:
                        comm = communicators[comm_id] = communicator(
                            topology, npu, node, traces)
                    except InputError as exc:
                        findings.append(str(exc))
                        continue
                key, _shape, members = comm
                rendezvous.setdefault(key, (members, Counter()))[1][npu] += 1

    for channel in sorted(set(sends) | set(recvs)):
        n_send, n_recv = sends[channel], recvs[channel]
        if n_send != n_recv:
            src, dst, tag = channel
            findings.append(
                f"channel {src}->{dst} tag {tag}: {n_send} sends vs "
                f"{n_recv} receives")

    for (rep, dims, group), (members, issued) in rendezvous.items():
        counts = {npu: issued[npu] for npu in sorted(members)}
        if len(set(counts.values())) > 1:
            # Name the key in full: one set of NPUs listed two ways is two
            # communicators, and only the dims and group tell them apart.
            named = (f"symbolic group of {len(group)}"
                     if isinstance(group, CommGroup)
                     else f"listed group {list(group)}")
            findings.append(
                f"communicator rep {rep} dims {list(dims)} ({named}): "
                f"members issue unequal collective counts {counts} "
                "(rendezvous would hang)")

    return findings


def lint_op_graph(ops: Iterable["OpNode"], name: str = "opgraph") -> List[str]:
    """Check a frontend op list (or graph) for structural and costing hazards.

    Takes ops, which unlike an :class:`~repro.frontend.ir.OpGraph` may be
    broken, so every problem is reported: the structural findings of
    :func:`~repro.frontend.ir.walk_ops`, then per-op cost, shape and
    tensor-parallel findings.
    """
    from repro.frontend.ir import OpKind, attention_flops, matmul_flops, walk_ops

    ops = list(ops)
    findings = walk_ops(name, ops)[0]
    for op in ops:
        label = f"op {op.op_id} ({op.name!r})"
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
    return findings
