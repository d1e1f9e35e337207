"""Runtime fault injection: timed activation and hot-path stretch hooks.

The :class:`FaultInjector` turns a :class:`~repro.faults.spec.FaultSchedule`
into engine events (activation and clearing, fired ahead of same-time
work) and maintains the *active* fault state the simulation layers
consult:

- :class:`~repro.network.analytical.AnalyticalNetwork` scales per-dim
  serialization bandwidth (``bandwidth_scale``) and a sender's injection
  time (``stretch_p2p``) — degraded links slow in-flight traffic and
  every phase planned after the fault activates;
- :class:`~repro.system.collective_op.CollectiveOperation` stretches each
  phase's port time (``stretch_collective``) by the *worst* member — the
  straggler-amplification effect where one slow rank paces the whole
  ring step.  It keeps Themis's fluid plan when no fault is active and
  none activates (``next_activation_ns``) before the plan would finish;
- :class:`~repro.core.engine.ExecutionEngine` stretches compute on
  straggler NPUs (``stretch_compute``) and freezes stalled NPUs.

Every layer guards its hook behind ``if faults is not None``; an absent
(or empty) schedule never installs an injector, so fault-free runs take
exactly the pre-fault code path and stay bit-identical.

Stretch hooks also *attribute*: the extra nanoseconds they inject are
charged to the active faults that caused them (split evenly when several
contribute), producing the per-fault column of the
:class:`~repro.stats.resilience.ResilienceReport`.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.faults.checkpoint import CheckpointConfig, resilience_overheads
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec, FaultSpecError
from repro.stats.resilience import FaultRecord, ResilienceReport

#: Activation/clearing events outrank same-time workload events so a
#: fault scheduled at t affects everything issued at t.
FAULT_EVENT_PRIORITY = -100


class FaultInjector:
    """Injects a schedule into one simulation and tracks its impact."""

    def __init__(self, schedule: FaultSchedule, topology) -> None:
        self.schedule = schedule
        self.topology = topology
        for fault in schedule:
            if fault.npu is not None and fault.npu >= topology.num_npus:
                raise FaultSpecError(
                    f"fault {fault.describe()!r} targets npu {fault.npu} but "
                    f"the topology has {topology.num_npus} NPUs")
            if fault.dim is not None and fault.dim >= topology.num_dims:
                raise FaultSpecError(
                    f"fault {fault.describe()!r} targets dim {fault.dim} but "
                    f"the topology has {topology.num_dims} dimensions")
        self.records: List[FaultRecord] = [FaultRecord(f) for f in schedule]
        self._record_of: Dict[int, FaultRecord] = {
            id(r.fault): r for r in self.records
        }
        self.failure_times: List[float] = []
        # Activation times still ahead, latest first: faults activate in
        # time order, so each activation pops the last entry.
        self._starts_ahead = sorted((f.start_ns for f in schedule),
                                    reverse=True)
        self.engine = None
        self._execution = None
        self._activations: List[list] = []  # engine handles, one per fault
        # Active state, all sparse: only faulted targets have entries.
        self._stragglers: Dict[int, List[FaultSpec]] = {}
        self._dim_faults: Dict[int, List[FaultSpec]] = {}
        self._link_faults: Dict[Tuple[int, int], List[FaultSpec]] = {}
        # O(1) fast path: outside every fault's active window the stretch
        # hooks are identities, and the flag check keeps their cost
        # unmeasurable (benchmarks/test_fault_overhead.py).
        self.idle = True

    # -- installation ------------------------------------------------------------

    def install(self, engine, network, execution=None) -> None:
        """Attach to a run: register hooks and schedule fault events."""
        self.engine = engine
        network.faults = self
        self._execution = execution
        if execution is not None:
            execution.faults = self
        self._activations = [
            engine.schedule_at(fault.start_ns, self._activate, fault,
                               priority=FAULT_EVENT_PRIORITY)
            for fault in self.schedule]

    def cancel_unfired(self) -> None:
        """Cancel every activation still ahead: a fault that would start
        after the last node completed never acts on the run."""
        for handle in self._activations:
            self.engine.cancel(handle)

    @property
    def next_activation_ns(self) -> float:
        """When the next fault activates; ``inf`` once every one has."""
        return self._starts_ahead[-1] if self._starts_ahead else math.inf

    # -- lifecycle events --------------------------------------------------------

    def _activate(self, fault: FaultSpec) -> None:
        self._starts_ahead.pop()
        record = self._record_of[id(fault)]
        record.activated_ns = self.engine.now
        kind = fault.kind
        if kind is FaultKind.STRAGGLER:
            self._stragglers.setdefault(fault.npu, []).append(fault)
        elif kind is FaultKind.DEGRADE:
            self._dim_faults.setdefault(fault.dim, []).append(fault)
        elif kind is FaultKind.LINK_DOWN:
            self._link_faults.setdefault((fault.dim, fault.npu), []).append(fault)
        elif kind is FaultKind.STALL:
            if self._execution is not None:
                stalled = self._execution.stall_npu(fault.npu, fault.duration_ns)
                record.extra_ns += stalled
        elif kind is FaultKind.NPU_FAIL:
            self.failure_times.append(self.engine.now)
        self._update_idle()
        if fault.duration_ns is not None and kind is not FaultKind.STALL:
            self.engine.schedule_at(fault.end_ns, self._clear, fault,
                                    priority=FAULT_EVENT_PRIORITY)
        elif kind is FaultKind.STALL:
            # The stall itself already reserved the NPU; close the record.
            self.engine.schedule_at(fault.end_ns, self._mark_cleared, fault,
                                    priority=FAULT_EVENT_PRIORITY)

    def _clear(self, fault: FaultSpec) -> None:
        kind = fault.kind
        if kind is FaultKind.STRAGGLER:
            self._discard(self._stragglers, fault.npu, fault)
        elif kind is FaultKind.DEGRADE:
            self._discard(self._dim_faults, fault.dim, fault)
        elif kind is FaultKind.LINK_DOWN:
            self._discard(self._link_faults, (fault.dim, fault.npu), fault)
        self._update_idle()
        self._mark_cleared(fault)

    def _mark_cleared(self, fault: FaultSpec) -> None:
        self._record_of[id(fault)].cleared_ns = self.engine.now

    def _update_idle(self) -> None:
        self.idle = not (self._stragglers or self._dim_faults
                          or self._link_faults)

    @staticmethod
    def _discard(table: Dict, key, fault: FaultSpec) -> None:
        entries = table.get(key)
        if entries is None:
            return
        entries = [f for f in entries if f is not fault]
        if entries:
            table[key] = entries
        else:
            del table[key]

    # -- attribution -------------------------------------------------------------

    def _charge(self, faults: List[FaultSpec], extra_ns: float) -> None:
        if extra_ns <= 0.0 or not faults:
            return
        share = extra_ns / len(faults)
        for fault in faults:
            self._record_of[id(fault)].extra_ns += share

    # -- hot-path state queries (only reachable when installed) -------------------

    def compute_factor(self, npu: int) -> float:
        """Combined slowdown of active stragglers on ``npu`` (>= 1)."""
        if self.idle:
            return 1.0
        factor = 1.0
        for fault in self._stragglers.get(npu, ()):
            factor *= fault.factor
        return factor

    def bandwidth_scale(self, dim: int) -> float:
        """Remaining-bandwidth fraction of dimension ``dim`` (<= 1)."""
        if self.idle:
            return 1.0
        scale = 1.0
        for fault in self._dim_faults.get(dim, ()):
            scale *= fault.factor
        return scale

    def link_scale(self, dim: int, npu: int) -> float:
        """Remaining fraction of one NPU's egress link into ``dim``."""
        scale = 1.0
        for fault in self._link_faults.get((dim, npu), ()):
            scale *= fault.factor
        return scale

    def stretch_compute(self, npu: int, duration_ns: float) -> float:
        """Stretch one compute node on a (possibly) straggling NPU."""
        if self.idle:
            return duration_ns
        contributors = self._stragglers.get(npu)
        if not contributors:
            return duration_ns
        stretched = duration_ns * self.compute_factor(npu)
        self._charge(list(contributors), stretched - duration_ns)
        return stretched

    def stretch_p2p(self, src: int, dim: int, inject_ns: float) -> float:
        """Stretch a point-to-point injection from ``src`` into ``dim``.

        Covers the sender's straggler slowdown and its egress-link health;
        whole-dimension degradation is already folded into
        ``serialization_time`` via :meth:`bandwidth_scale`.
        """
        if self.idle:
            return inject_ns
        contributors = list(self._stragglers.get(src, ()))
        contributors += self._link_faults.get((dim, src), ())
        if not contributors:
            return inject_ns
        scale = self.compute_factor(src) / self.link_scale(dim, src)
        stretched = inject_ns * scale
        self._charge(contributors, stretched - inject_ns)
        return stretched

    def stretch_collective(
        self, dim: int, members: Optional[FrozenSet[int]], busy_ns: float
    ) -> float:
        """Stretch one collective phase on ``dim`` by its worst member.

        A synchronous ring/tree step finishes when its slowest participant
        does, so the *maximum* straggler slowdown and the *minimum* link
        health among the members pace every member — the straggler
        amplification effect.  ``members`` of ``None`` means the whole
        machine (conservative for directly-constructed operations).
        """
        if self.idle:
            return busy_ns
        worst = 1.0
        contributors: List[FaultSpec] = []

        for npu, faults in self._stragglers.items():
            if members is not None and npu not in members:
                continue
            factor = 1.0
            for fault in faults:
                factor *= fault.factor
            if factor > worst:
                worst = factor
                contributors = list(faults)

        weakest_link = 1.0
        link_contributors: List[FaultSpec] = []
        for (fault_dim, npu), faults in self._link_faults.items():
            if fault_dim != dim:
                continue
            if members is not None and npu not in members:
                continue
            scale = 1.0
            for fault in faults:
                scale *= fault.factor
            if scale < weakest_link:
                weakest_link = scale
                link_contributors = list(faults)

        dim_scale = 1.0
        dim_contributors = self._dim_faults.get(dim, ())
        for fault in dim_contributors:
            dim_scale *= fault.factor

        scale = worst / (weakest_link * dim_scale)
        if scale == 1.0:
            return busy_ns
        stretched = busy_ns * scale
        self._charge(contributors + link_contributors + list(dim_contributors),
                     stretched - busy_ns)
        return stretched

    # -- reporting ----------------------------------------------------------------

    def report(
        self,
        total_ns: float,
        checkpoint: Optional[CheckpointConfig] = None,
        baseline_ns: Optional[float] = None,
    ) -> ResilienceReport:
        """Summarize the finished run into a :class:`ResilienceReport`."""
        ckpts, ckpt_ns, restart_ns = resilience_overheads(
            checkpoint, total_ns, self.failure_times)
        return ResilienceReport(
            total_ns=total_ns,
            records=list(self.records),
            baseline_ns=baseline_ns,
            checkpoint_interval_ns=(
                checkpoint.interval_ns if checkpoint is not None else None),
            num_checkpoints=ckpts,
            checkpoint_overhead_ns=ckpt_ns,
            restart_lost_ns=restart_ns,
            num_failures=len(self.failure_times),
        )
