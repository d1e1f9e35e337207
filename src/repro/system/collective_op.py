"""Chunked, scheduled collective operation.

A :class:`CollectiveOperation` models one collective (one ET node issued by
every member of a communicator) over the analytical backend:

1. the payload is split into ``num_chunks`` equal chunks;
2. with the Themis scheduler the whole collective executes in the **fluid
   limit**: the balanced per-dimension loads occupy the representative's
   ports directly, plus a pipeline-fill term;
3. with the baseline scheduler every chunk walks the active dimensions in
   ascending order — for All-Reduce that is the Reduce-Scatter pass, and
   the All-Gather pass replays it reversed.  The chunk steps through that
   order's phase table (:func:`repro.system.phases.phase_table`, memoised
   per run on the scheduler), each phase reserving the representative's
   egress port for the row's busy time and delaying the chunk by the
   row's latency.

Communicators may span *parts* of dimensions (``group_shape``): an MP
group of 16 NPUs inside a 512-wide wafer switch runs its phases with an
effective dimension size of 16 at the dimension's bandwidth.

Because members of a whole- or sub-dimension communicator are symmetric, a
single representative's ports stand in for every member's: concurrent
collectives contend exactly when they would contend on a real member (same
dims of the same group) and pipeline freely otherwise.  This is the
modeling choice that lets the simulator scale to thousands of NPUs (paper
Sec. IV-C).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.events import EventEngine
from repro.network.analytical import AnalyticalNetwork
from repro.network.topology import CommGroup, DimSpec
from repro.system.phases import FIRST_PASS_KIND, PhaseRows
from repro.system.scheduler import (BalancedPlan, ChunkScheduler,
                                    EffectiveComm)
from repro.trace.node import CollectiveType

DEFAULT_NUM_CHUNKS = 16


class CollectiveOperation:
    """One in-flight collective over a set of topology dimensions.

    Args:
        engine: Shared event engine.
        network: Analytical backend whose ports the phases occupy.
        scheduler: Planning policy: a fluid plan, or the chunk path.
        collective: Pattern (All-Reduce / All-Gather / RS / All-to-All).
        comm_dims: Topology dimension indices the communicator spans.
        rep_npu: Canonical representative NPU (lowest id in the group).
        payload_bytes: Per-NPU payload: the bytes each member holds at
            the start, except for All-Gather, where it is the gathered
            result (each member contributes ``payload / group_size``).
        num_chunks: Pipelining degree.
        group_shape: Effective group size per dimension for sub-dimension
            communicators; defaults to the physical dimension sizes.
        group_members: Member NPU ids, consulted by fault injection so a
            straggler slows only the collectives it participates in;
            ``None`` conservatively means "any NPU may be a member".
        on_complete: Fired once, when the last chunk finishes.
        comm: The scheduler's effective view of this communicator when
            the caller already holds it (the execution engine resolves
            one per communicator); otherwise looked up from
            ``comm_dims`` and ``group_shape``.
    """

    def __init__(
        self,
        engine: EventEngine,
        network: AnalyticalNetwork,
        scheduler: ChunkScheduler,
        collective: CollectiveType,
        comm_dims: Sequence[int],
        rep_npu: int,
        payload_bytes: float,
        num_chunks: int = DEFAULT_NUM_CHUNKS,
        group_shape: Optional[Mapping[int, int]] = None,
        group_members: Optional[Sequence[int]] = None,
        on_complete: Optional[Callable[[], None]] = None,
        comm: Optional[EffectiveComm] = None,
    ) -> None:
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if payload_bytes < 0:
            raise ValueError(f"negative payload {payload_bytes}")
        self.engine = engine
        self.network = network
        self.scheduler = scheduler
        self.collective = collective
        self.rep_npu = rep_npu
        self.on_complete = on_complete
        self.num_chunks = num_chunks
        self.payload_bytes = payload_bytes
        # Only membership tests are ever needed (fault scoping), so a
        # symbolic CommGroup is kept as-is — materializing a frozenset
        # here would reintroduce an O(group_size) cost per collective.
        if group_members is None or isinstance(group_members, CommGroup):
            self.group_members = group_members
        else:
            self.group_members = frozenset(group_members)
        # Training loops issue thousands of collectives over a handful of
        # communicators: the scheduler derives each effective view once.
        if comm is None:
            comm = scheduler.effective_comm(
                network.topology.dims, comm_dims, group_shape)
        self.comm = comm
        self.dim_specs: Dict[int, DimSpec] = comm.specs
        self.active_dims: Tuple[int, ...] = comm.active_dims
        self.group_size: int = comm.group_size
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.traffic_by_dim: Dict[int, float] = {d: 0.0 for d in self.active_dims}
        self._chunks_done = 0
        self._started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin the collective at the current simulation time."""
        if self._started:
            raise RuntimeError("collective started twice")
        self._started = True
        self.start_time = self.engine.now
        if not self.active_dims or self.payload_bytes == 0:
            # Degenerate communicator: complete asynchronously with no cost.
            self.engine.schedule(0.0, self._finish)
            return
        chunk_payload = self.payload_bytes / self.num_chunks
        if self.collective is CollectiveType.ALL_GATHER:
            # payload_bytes is the gathered result; chunks start as shards.
            chunk_payload /= self.group_size
        tables = self.scheduler.phase_tables(
            self.comm, FIRST_PASS_KIND[self.collective], chunk_payload,
            self.collective is CollectiveType.ALL_REDUCE)
        plan = self.scheduler.balanced_plan(tables, self.num_chunks)
        if plan is not None:
            self._start_fluid(plan)
            return
        # Chunk path: every chunk walks the active dims in ascending order.
        rows = tables[tables.dims][0]
        for _ in range(self.num_chunks):
            self._advance(rows, 0)

    def _start_fluid(self, plan: BalancedPlan) -> None:
        """Fluid-limit execution: occupy each dim port for its balanced load.

        The collective completes when the last port finishes its share plus
        the pipeline-fill ramp a chunked schedule pays.  The mix is solved
        on nominal bandwidths; faults stretch each dim's load as its port
        runs it.
        """
        finish_at = self.engine.now + plan.fill_ns
        telemetry = self.network.telemetry
        for dim, load in plan.loads_ns.items():
            if load <= 0.0:
                continue
            start, end = self.network.reserve_port(
                self.rep_npu, dim, load, self.group_members)
            finish_at = max(finish_at, end + plan.fill_ns)
            traffic = plan.traffic_bytes.get(dim, 0.0)
            self.traffic_by_dim[dim] += traffic
            if telemetry is not None and telemetry.chunk_spans:
                telemetry.record_phase(
                    self.rep_npu, dim, f"{self.collective.value}:fluid",
                    start, end)
        self._chunks_done = self.num_chunks
        self.engine.schedule_at(finish_at, self._finish)

    # -- chunk stepping ------------------------------------------------------------

    def _advance(self, rows: PhaseRows, i: int) -> None:
        """Run the chunk's phase ``rows[i]``, or retire the chunk."""
        if i == len(rows):
            self._chunk_done()
            return
        dim, _, _, busy, traffic, latency, label = rows[i]
        self.traffic_by_dim[dim] += traffic
        # The port serializes the traffic; the propagation latency delays
        # only this chunk (the next chunk's serialization overlaps it).  A
        # synchronous phase paces at its slowest member: faults stretch
        # the part of its port time that falls in their windows.
        start, end = self.network.reserve_port(
            self.rep_npu, dim, busy, self.group_members)
        telemetry = self.network.telemetry
        if telemetry is not None and telemetry.chunk_spans:
            telemetry.record_phase(self.rep_npu, dim, label, start, end)
        self.engine.schedule_at(end + latency, self._advance, rows, i + 1)

    def _chunk_done(self) -> None:
        self._chunks_done += 1
        if self._chunks_done == self.num_chunks:
            self._finish()

    def _finish(self) -> None:
        self.finish_time = self.engine.now
        if self.on_complete is not None:
            self.on_complete()

    # -- results ------------------------------------------------------------------

    @property
    def duration_ns(self) -> float:
        """Wall time of the collective; only valid after completion."""
        if self.start_time is None or self.finish_time is None:
            raise RuntimeError("collective has not completed")
        return self.finish_time - self.start_time
