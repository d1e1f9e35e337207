"""Symmetry folding: simulate one rank per equivalence class.

Large regular training jobs hand the simulator one trace per rank, yet
most ranks are *symmetric replicas*: they run the identical node sequence
and sit in the identical communicators, so their simulated timelines are
equal by construction.  This module detects those equivalence classes up
front, keeps a single representative trace per class, and reconstructs
the per-rank view analytically after the run — turning every O(ranks)
simulation cost into O(classes) while producing a **bit-identical**
schema-v2 result document (enforced by the ``folding`` conformance pillar
and the property suite in ``tests/property/test_property_folding.py``).

Two ranks fold together iff

1. their traces carry the same *signature* — same node ids, types, names,
   dependency edges, payloads, collective types, and comm dims; and
2. every collective in the trace puts both ranks in the **same**
   communicator (equal :meth:`~repro.network.topology.MultiDimTopology.
   group_rep` for every dim-set the trace uses).

Condition 2 makes every dropped rank a member of the *representative's*
rendezvous, which the execution engine already treats as "symmetric
replica, need not arrive" — no collective instance disappears, so start
times, port contention, and record ordering are untouched.

Folding auto-disables (``FoldReport.reason`` says why) whenever per-rank
state could diverge or be observed per rank:

- ``config.folding == "off"`` — explicit opt-out;
- a fault schedule is configured (faults break rank symmetry);
- telemetry or invariant checking is on (both observe the
  physical per-rank port set, which folding deliberately shrinks);
- the trace dict is not in ascending rank order (record ordering at
  equal timestamps follows trace order, so only the canonical order is
  provably preserved).

Individual ranks whose traces contain point-to-point sends/receives or
explicit ``involved_npus`` member lists are *peer-asymmetric*: they stay
unfolded as singleton classes (counted in ``FoldReport.asymmetric_ranks``)
without disabling folding for the rest of the job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.topology import TopologyError, normalize_dims
from repro.trace.node import ETNode, NodeType
from repro.workload.generators import VIA_FABRIC

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.config import SystemConfig
    from repro.core.results import CollectiveRecord
    from repro.trace.graph import ExecutionTrace


@dataclass
class FoldReport:
    """What the folding pass decided, and why.

    Attributes:
        active: Whether any rank was folded away.
        reason: Human-readable disable reason when folding did nothing
            (empty when active).
        traced_ranks: Ranks in the input trace dict.
        simulated_ranks: Ranks actually handed to the engine.
        num_classes: Equivalence classes detected (== simulated_ranks
            when active).
        asymmetric_ranks: Ranks forced into singleton classes by
            point-to-point traffic or explicit member lists.
    """

    active: bool
    reason: str = ""
    traced_ranks: int = 0
    simulated_ranks: int = 0
    num_classes: int = 0
    asymmetric_ranks: int = 0

    @property
    def folded_ranks(self) -> int:
        return self.traced_ranks - self.simulated_ranks


@dataclass
class FoldPlan:
    """A computed fold: which traces to simulate, how to un-fold results."""

    report: FoldReport
    folded_traces: Dict[int, "ExecutionTrace"] = field(default_factory=dict)
    #: rank -> its class representative (identity for reps themselves).
    class_of: Dict[int, int] = field(default_factory=dict)
    #: representative -> sorted members of its class.
    class_members: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: original trace-dict key order (== ascending ranks when active).
    original_order: Tuple[int, ...] = ()
    #: nodes_executed the dropped ranks would have contributed.
    extra_nodes: int = 0
    #: events_processed the dropped ranks would have contributed.
    extra_events: int = 0

    @property
    def active(self) -> bool:
        return self.report.active

    def expand_members(self, members: Tuple[int, ...]) -> Tuple[int, ...]:
        """Replace arrived representatives by their full classes (sorted)."""
        return tuple(sorted(chain.from_iterable(
            self.class_members[m] for m in members)))

    def expand_records(
        self, records: List["CollectiveRecord"]
    ) -> List["CollectiveRecord"]:
        """Records as the unfolded run would have written them."""
        import dataclasses

        return [
            dataclasses.replace(r, members=self.expand_members(r.members))
            for r in records
        ]


def _node_signature(node: ETNode) -> Optional[tuple]:
    """Rank-independent fingerprint of one node; None if peer-asymmetric."""
    if node.node_type in (NodeType.COMM_SEND, NodeType.COMM_RECV):
        return None  # peer-addressed: the rank is not a symmetric replica
    if node.involved_npus is not None:
        return None  # explicit member list: a per-rank override
    return (
        node.node_id,
        node.node_type,
        node.name,
        node.deps,
        node.tensor_bytes,
        node.flops,
        node.collective,
        node.comm_dims,
        node.location,
        tuple(sorted((k, repr(v)) for k, v in node.attrs.items())),
    )


def _events_of(node: ETNode) -> int:
    """Events one extra rank adds for this node in an unfolded run.

    Every node costs one issue event.  Compute, memory, and
    in-switch (fabric) collective nodes additionally schedule their own
    completion event; network collectives complete synchronously inside
    the shared operation's finish event, so extra members add none.
    """
    if node.node_type is NodeType.COMPUTE or node.is_memory:
        return 2
    if (node.node_type is NodeType.COMM_COLLECTIVE
            and node.attrs.get("via") == VIA_FABRIC):
        return 2
    return 1


def plan_folding(
    traces: Dict[int, "ExecutionTrace"], config: "SystemConfig"
) -> FoldPlan:
    """Partition ``traces`` into symmetry classes; never raises.

    Returns an inactive plan (with ``report.reason`` set) whenever
    folding is switched off, unsafe, or would not drop any rank.
    """
    n = len(traces)

    def disabled(reason: str) -> FoldPlan:
        return FoldPlan(report=FoldReport(
            active=False, reason=reason, traced_ranks=n,
            simulated_ranks=n, num_classes=n))

    if config.folding == "off":
        return disabled("disabled by config")
    if n <= 1:
        return disabled("single trace")
    if config.faults:
        return disabled("fault schedule configured")
    if config.telemetry is not None:
        return disabled("telemetry observes per-rank state")
    if config.invariants is not None:
        return disabled("invariant checker observes per-rank state")
    if config.network_backend == "adaptive":
        # Escalation is runtime per-link state: folding simulates one
        # rank per class, which changes which links see contention and
        # therefore which segments escalate — not fold-compatible.
        return disabled("adaptive granularity observes per-link contention")
    order = tuple(traces)
    if list(order) != sorted(order):
        return disabled("traces not in ascending rank order")

    topo = config.topology
    all_dims = tuple(range(topo.num_dims))
    # signature -> the normalized comm dim-sets it uses (computed once).
    sig_dimsets: Dict[tuple, Tuple[Tuple[int, ...], ...]] = {}
    classes: Dict[object, List[int]] = {}
    asymmetric = 0
    for rank, trace in traces.items():
        sig_parts = []
        for node in trace:
            part = _node_signature(node)
            if part is None:
                sig_parts = None
                break
            sig_parts.append(part)
        if sig_parts is None:
            asymmetric += 1
            classes[("asym", rank)] = [rank]
            continue
        sig = tuple(sig_parts)
        dimsets = sig_dimsets.get(sig)
        if dimsets is None:
            dimsets = sig_dimsets[sig] = tuple(sorted({
                (normalize_dims(node.comm_dims)
                 if node.comm_dims is not None else all_dims)
                for node in trace if node.node_type is NodeType.COMM_COLLECTIVE
            }))
        # Same signature + same communicator for every dim-set the trace
        # uses => the ranks are interchangeable replicas.
        try:
            key = (sig, tuple(topo.group_rep(rank, d) for d in dimsets))
        except TopologyError:  # the engine's communicator rule reports it
            return disabled("comm_dims outside the topology")
        classes.setdefault(key, []).append(rank)

    if len(classes) == n:
        return disabled("no foldable classes")

    plan = FoldPlan(
        report=FoldReport(
            active=True, traced_ranks=n, simulated_ranks=len(classes),
            num_classes=len(classes), asymmetric_ranks=asymmetric),
        original_order=order,
    )
    reps: Dict[int, int] = {}  # rank -> rep, filled below
    for members in classes.values():
        rep = min(members)
        plan.class_members[rep] = tuple(sorted(members))
        for m in members:
            reps[m] = rep
    plan.class_of = reps
    # Preserve the original dict order among the surviving traces.
    for rank in order:
        if reps[rank] == rank:
            plan.folded_traces[rank] = traces[rank]
        else:
            trace = traces[rank]
            plan.extra_nodes += len(trace)
            plan.extra_events += sum(_events_of(node) for node in trace)
    return plan
