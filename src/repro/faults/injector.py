"""Runtime fault injection: capacity timelines priced by integration.

A :class:`~repro.faults.spec.FaultSchedule` is fixed before the run
starts, so the :class:`FaultInjector` turns it, once, into
piecewise-constant :class:`CapacityTimeline`\\ s, each a slowdown over
time for one resource:

- per NPU for compute (:meth:`FaultInjector.compute_timeline`): the
  product of its active stragglers, and zero capacity while it stalls;
- per dimension and member set for ports
  (:meth:`FaultInjector.port_timeline`): the worst member straggler over
  the weakest member link times the dimension's degrade.  A synchronous
  ring step finishes when its slowest participant does — the straggler
  amplification effect.  A collective's members are its group, a
  point-to-point injection's member is its sender, and a relay hop has
  no members (only its dimension's degrade).

Each resource that prices work — the compute unit
(:class:`~repro.core.engine.ExecutionEngine`), a dimension port
(:meth:`~repro.network.analytical.AnalyticalNetwork.reserve_port`, used
by collective phases, Themis's fluid loads and p2p sends) and a relay
hop — turns the work's nominal duration into an end time by integrating
over the timeline from the moment it actually starts the work.  A fault
thus costs what its window takes away, whatever was issued when.  The
injector schedules no events.

The priced layers (the analytical network and the execution engine)
receive the injector in their constructors; it holds no layer.  Each
site reserves the nominal work first and re-prices it only when it ends
after the injector's ``onset``, the first time any fault slows anything
(``inf`` without an injector).  An absent or empty schedule builds no
injector, and factor-1.0 faults slow nothing, so such work takes
exactly the fault-free code path and stays bit-identical.

Integration also *attributes*: the extra nanoseconds a segment adds are
charged to the faults acting in it (split evenly when several
contribute), producing the per-fault column of the
:class:`~repro.stats.resilience.ResilienceReport`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.checkpoint import CheckpointConfig, resilience_overheads
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec, FaultSpecError
from repro.stats.resilience import FaultRecord, ResilienceReport

_INF = float("inf")


class CapacityTimeline:
    """A resource's piecewise-constant slowdown over simulated time.

    Segment ``i`` spans ``[bounds[i], bounds[i + 1])`` (the last one runs
    forever) and stretches work by ``scales[i]`` (``inf`` while the
    resource makes no progress), charging the extra time to the records
    in ``causes[i]``.
    """

    __slots__ = ("bounds", "scales", "causes")

    def __init__(self, bounds: List[float], scales: List[float],
                 causes: List[Tuple[FaultRecord, ...]]) -> None:
        self.bounds = bounds
        self.scales = scales
        self.causes = causes

    def stretch(self, start: float, work: float) -> float:
        """Time from ``start`` until ``work`` ns of nominal work is done.

        One constant segment gives exactly ``work * scale``.
        """
        bounds, scales, causes = self.bounds, self.scales, self.causes
        last = len(bounds) - 1
        i = bisect_right(bounds, start) - 1
        t = start
        elapsed = 0.0
        while True:
            scale = scales[i]
            need = work * scale
            if i == last or t + need <= bounds[i + 1]:
                _charge(causes[i], need - work)
                return elapsed + need
            span = bounds[i + 1] - t
            done = span / scale
            _charge(causes[i], span - done)
            work -= done
            elapsed += span
            t = bounds[i + 1]
            i += 1


def _charge(causes: Tuple[FaultRecord, ...], extra_ns: float) -> None:
    if extra_ns <= 0.0 or not causes:
        return
    share = extra_ns / len(causes)
    for record in causes:
        record.extra_ns += share


def _product(faults: Iterable[FaultSpec]) -> float:
    value = 1.0
    for fault in faults:
        value *= fault.factor
    return value


def _compute_rate(active: List[FaultSpec]):
    """Stragglers multiply; a stall stops progress altogether."""
    if any(f.kind is FaultKind.STALL for f in active):
        return _INF, tuple(active)
    return _product(active), tuple(active)


def _port_rate(active: List[FaultSpec]):
    """Worst member straggler over weakest member link times degrade."""
    by_target: Dict[Tuple[FaultKind, Optional[int]], List[FaultSpec]] = {}
    for fault in active:
        by_target.setdefault((fault.kind, fault.npu), []).append(fault)
    worst, slow = 1.0, []
    weakest, weak = 1.0, []
    for (kind, _), faults in by_target.items():
        factor = _product(faults)
        if kind is FaultKind.STRAGGLER and factor > worst:
            worst, slow = factor, faults
        elif kind is FaultKind.LINK_DOWN and factor < weakest:
            weakest, weak = factor, faults
    degraded = by_target.get((FaultKind.DEGRADE, None), [])
    return (worst / (weakest * _product(degraded)),
            (*slow, *weak, *degraded))


class FaultInjector:
    """Prices a fault schedule into one simulation and tracks its impact."""

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
            id(r.fault): r for r in self.records}
        compute_faults: Dict[int, List[FaultSpec]] = {}
        for fault in schedule:
            if fault.kind is FaultKind.STRAGGLER or fault.kind is FaultKind.STALL:
                compute_faults.setdefault(fault.npu, []).append(fault)
        self._compute: Dict[int, Optional[CapacityTimeline]] = {
            npu: self._timeline(faults, _compute_rate)
            for npu, faults in compute_faults.items()}
        # Per dim, the faults that can slow its ports, in schedule order.
        self._port_faults: List[List[FaultSpec]] = [
            [f for f in schedule if f.kind is FaultKind.STRAGGLER or (
                f.dim == dim and f.kind in (FaultKind.DEGRADE,
                                            FaultKind.LINK_DOWN))]
            for dim in range(topology.num_dims)]
        self._ports: Dict[tuple, Optional[CapacityTimeline]] = {}
        # Before this no fault slows anything, so work that ends by then
        # is never re-priced.
        self.onset = min((f.start_ns for f in schedule
                          if f.kind is FaultKind.STALL or (
                              f.kind is not FaultKind.NPU_FAIL
                              and f.factor != 1.0)), default=_INF)

    # -- timelines ---------------------------------------------------------------

    def _timeline(self, faults: List[FaultSpec],
                  rate) -> Optional[CapacityTimeline]:
        """The timeline of ``rate(active faults) -> (scale, causes)``.

        ``None`` when no segment slows the resource.  A fault acts on
        ``[start_ns, end_ns)``: it affects work at its start, not at its
        end.
        """
        cuts = sorted({0.0, *(f.start_ns for f in faults),
                       *(f.end_ns for f in faults if f.end_ns < _INF)})
        bounds: List[float] = []
        scales: List[float] = []
        causes: List[Tuple[FaultRecord, ...]] = []
        last_why: Tuple[FaultSpec, ...] = ()
        for cut in cuts:
            scale, why = rate([f for f in faults
                               if f.start_ns <= cut < f.end_ns])
            if scale == 1.0:
                why = ()
            if scales and scales[-1] == scale and last_why == why:
                continue
            bounds.append(cut)
            scales.append(scale)
            causes.append(tuple(self._record_of[id(f)] for f in why))
            last_why = why
        if scales == [1.0]:
            return None
        return CapacityTimeline(bounds, scales, causes)

    def compute_timeline(self, npu: int) -> Optional[CapacityTimeline]:
        """Compute slowdown of ``npu``: its stragglers' product, and no
        progress while it stalls."""
        return self._compute.get(npu)

    def port_timeline(self, dim: int,
                      members=None) -> Optional[CapacityTimeline]:
        """Slowdown of a synchronous step on ``dim`` among ``members``.

        The worst member straggler over the weakest member link times
        the dimension's degrade.  ``members`` of ``None`` means the whole
        machine (conservative for directly-constructed operations).
        """
        key = (dim, members)
        if key not in self._ports:
            self._ports[key] = self._timeline(
                [f for f in self._port_faults[dim] if f.npu is None
                 or members is None or f.npu in members], _port_rate)
        return self._ports[key]

    # -- reporting ----------------------------------------------------------------

    def report(
        self,
        total_ns: float,
        checkpoint: Optional[CheckpointConfig] = None,
        baseline_ns: Optional[float] = None,
    ) -> ResilienceReport:
        """Summarize the finished run into a :class:`ResilienceReport`.

        Windows come from the schedule: a fault is active iff it starts
        by the run's end (a fault at ``t`` acts on work at ``t``), and
        its clearing shows only if that too falls by the end.
        """
        failure_times = []
        for record in self.records:
            fault = record.fault
            fired = fault.start_ns <= total_ns
            record.activated_ns = fault.start_ns if fired else None
            record.cleared_ns = (fault.end_ns if fired
                                 and fault.end_ns <= total_ns else None)
            if fired and fault.kind is FaultKind.NPU_FAIL:
                failure_times.append(fault.start_ns)
        ckpts, ckpt_ns, restart_ns = resilience_overheads(
            checkpoint, total_ns, failure_times)
        return ResilienceReport(
            total_ns=total_ns,
            records=list(self.records),
            baseline_ns=baseline_ns,
            checkpoint_interval_ns=(
                checkpoint.interval_ns if checkpoint is not None else None),
            num_checkpoints=ckpts,
            checkpoint_overhead_ns=ckpt_ns,
            restart_lost_ns=restart_ns,
            num_failures=len(failure_times),
        )
