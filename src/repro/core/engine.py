"""Graph-based execution engine (paper Sec. IV-A).

One engine instance drives every simulated NPU's execution trace: nodes
issue when their dependencies complete, run on the appropriate resource
(compute unit, local/remote memory channel, network dimension ports, or
the pooled memory fabric), and their completions release dependents.
Each NPU consumes its own trace, so different NPUs run different
operations at the same time — the property that enables pipeline and
arbitrary parallelism.

Collective nodes rendezvous: the i-th collective a trace issues on a given
communicator matches the i-th issue of every other *simulated* member of
that communicator (MPI ordering semantics).  Members without a trace are
symmetric replicas of a representative and need not arrive.

The engine drains each trace's compiled form
(:class:`~repro.trace.graph.ExecutionTrace`): a node is addressed by its
``(npu, position)`` and a run keeps only its own copy of each trace's
indegree list.  Cost fields are read from the :class:`ETNode` when it
issues.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import SystemConfig
from repro.core.results import CollectiveRecord
from repro.events import EventEngine
from repro.memory.api import MemoryRequest
from repro.network.analytical import AnalyticalNetwork, DimPort
from repro.network.topology import CommGroup, communicator
from repro.stats.breakdown import Activity, ActivityLog
from repro.system.collective_op import CollectiveOperation
from repro.system.executor import SendRecvCollectiveExecutor
from repro.system.scheduler import ChunkScheduler, EffectiveComm
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation
from repro.workload.generators import VIA_FABRIC

# The send/recv executor method each collective lowers to on a packet
# backend.  Ring RS and ring AG move the same (k-1) chunks of size/k.
_SENDRECV_LOWERING = {
    CollectiveType.ALL_REDUCE: SendRecvCollectiveExecutor.run_ring_allreduce,
    CollectiveType.ALL_GATHER: SendRecvCollectiveExecutor.run_ring_allgather,
    CollectiveType.REDUCE_SCATTER:
        SendRecvCollectiveExecutor.run_ring_allgather,
    CollectiveType.ALL_TO_ALL: SendRecvCollectiveExecutor.run_alltoall,
}


class DeadlockError(RuntimeError):
    """The event queue drained while trace nodes were still incomplete."""


class _Communicator:
    """One NPU's view of a communicator, derived on its first collective."""

    __slots__ = ("key", "group_shape", "participants", "issued", "effective",
                 "rendezvous")

    def __init__(self, key: Tuple, group_shape: Optional[Dict[int, int]],
                 participants: Set[int],
                 rendezvous: Dict[int, "_CollectiveRendezvous"]) -> None:
        self.key = key  # (rep, dims, group)
        self.group_shape = group_shape
        self.participants = participants
        self.issued = 0  # collectives this NPU has issued on it
        # Open instances by issue number, one table shared by every NPU's
        # view of this key: an issue looks up an int, never the key.
        self.rendezvous = rendezvous
        # The scheduler's effective view, resolved on the first phase-level
        # collective (packet backends never need it).
        self.effective: Optional[EffectiveComm] = None


class _CollectiveRendezvous:
    """Arrival tracking for one collective instance."""

    __slots__ = ("participants", "arrived")

    def __init__(self, participants: Set[int]) -> None:
        self.participants = participants
        self.arrived: Dict[int, int] = {}  # npu -> node position


class ExecutionEngine:
    """Executes a set of per-NPU traces over the configured system."""

    def __init__(
        self,
        engine: EventEngine,
        config: SystemConfig,
        network: AnalyticalNetwork,
        scheduler: ChunkScheduler,
        traces: Dict[int, ExecutionTrace],
        *,
        faults=None,
        telemetry=None,
        invariants=None,
    ) -> None:
        if not traces:
            raise ValueError("no traces to execute")
        for npu_id, trace in traces.items():
            if npu_id != trace.npu_id:
                raise ValueError(
                    f"trace for NPU {trace.npu_id} registered under id {npu_id}"
                )
            config.topology._check_id(npu_id)
        self.engine = engine
        self.config = config
        self.network = network
        self.scheduler = scheduler
        # The run's instruments; None keeps every hook on the exact
        # un-instrumented path.  Compute ending before the injector's
        # onset, when its first fault starts to slow anything, is not
        # re-priced.
        self.faults = faults  # repro.faults.FaultInjector
        self.fault_onset = float("inf") if faults is None else faults.onset
        self.telemetry = telemetry  # repro.telemetry.Telemetry
        self.invariants = invariants  # repro.validate.InvariantChecker
        self._inflight_collectives = 0
        self.traces = dict(traces)
        self.activity = ActivityLog()
        self.collective_records: List[CollectiveRecord] = []
        self.finish_time = 0.0
        self.nodes_executed = 0

        # Per-run copies of each trace's compiled indegree list: a count
        # drops as the node's parents complete and is -1 once it completed.
        self._indegree: Dict[int, List[int]] = {
            npu_id: list(trace.indegree)
            for npu_id, trace in self.traces.items()}
        self._remaining = sum(map(len, self.traces.values()))
        # An issue event calls its node kind's handler directly, with the
        # engine, the node's (npu, position) and the node itself.  The
        # table holds the class's functions: bound methods would tie the
        # engine into a reference cycle that keeps a finished run's state
        # alive until the next full garbage collection.
        cls = type(self)
        self._issuers = {
            NodeType.COMPUTE: cls._issue_compute,
            NodeType.MEMORY_LOAD: cls._issue_memory,
            NodeType.MEMORY_STORE: cls._issue_memory,
            NodeType.COMM_COLLECTIVE: cls._issue_collective,
            NodeType.COMM_SEND: cls._issue_send,
            NodeType.COMM_RECV: cls._issue_recv,
        }

        # Serializing resources per traced NPU.
        self._compute_unit = {npu: DimPort() for npu in self.traces}
        self._local_channel = {npu: DimPort() for npu in self.traces}
        self._remote_channel = {npu: DimPort() for npu in self.traces}
        self._fabric_port = {npu: DimPort() for npu in self.traces}

        # Per communicator key, its open instances by issue number.
        self._rendezvous: Dict[Tuple, Dict[int, _CollectiveRendezvous]] = {}
        self._communicators: Dict[Tuple, _Communicator] = {}
        # Lazily-built send/recv collective lowering for packet backends.
        self._sendrecv_executor = None

    # -- public ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule every trace's root nodes at the current time."""
        for npu_id, trace in self.traces.items():
            for pos in trace.root_positions:
                node = trace.nodes[pos]
                self.engine.schedule(0.0, self._issuers[node.node_type],
                                     self, npu_id, pos, node)

    def run(self) -> float:
        """Start and drain the simulation; returns the finish time.

        Raises :class:`DeadlockError` if nodes remain incomplete after the
        event queue drains (unmatched sends/recvs or collectives).
        """
        self.start()
        self.engine.run()
        if self._remaining > 0:
            raise DeadlockError(self.diagnostics())
        return self.finish_time

    def diagnostics(self) -> str:
        """Human-readable report of why the simulation is stuck.

        Classifies incomplete nodes into: receives with no matching send,
        collectives whose rendezvous is missing members, and nodes still
        blocked on incomplete dependencies.
        """
        lines = [f"{self._remaining} nodes never completed:"]
        blocked = []
        issued_stuck = []
        for npu in sorted(self.traces):
            trace, indegree = self.traces[npu], self._indegree[npu]
            for node_id, pos in sorted(trace.position.items()):
                deg = indegree[pos]
                if deg < 0:
                    continue
                node = trace.nodes[pos]
                label = f"npu {npu} node {node_id} {node.node_type.value}"
                if node.name:
                    label += f" ({node.name!r})"
                if deg > 0:
                    blocked.append(f"  {label}: waiting on {deg} dependencies")
                elif node.node_type is NodeType.COMM_RECV:
                    issued_stuck.append(
                        f"  {label}: no matching send from npu {node.peer} "
                        f"tag {node.tag}")
                else:
                    issued_stuck.append(
                        f"  {label}: issued but never completed")
        lines.extend(issued_stuck[:10])
        waiting = self.open_rendezvous()
        if waiting:
            lines.append("incomplete collective rendezvous:")
            for key, rendezvous in waiting[:5]:
                missing = sorted(rendezvous.participants
                                 - set(rendezvous.arrived))
                lines.append(
                    f"  rep {key[0]}: arrived {sorted(rendezvous.arrived)}, "
                    f"missing {missing}")
        lines.extend(blocked[:10])
        if self.network.pending_receives():
            lines.append(
                f"{self.network.pending_receives()} receives still posted, "
                f"{self.network.undelivered_arrivals()} arrivals unclaimed "
                "(check send/recv tags)")
        return "\n".join(lines)

    def open_rendezvous(self) -> List[Tuple[Tuple, _CollectiveRendezvous]]:
        """``(communicator key, rendezvous)`` of every collective instance
        that some participant has issued and another has not."""
        return [(key, rendezvous)
                for key, table in self._rendezvous.items()
                for rendezvous in table.values()]

    # -- node dispatch -----------------------------------------------------------------

    def _issue_compute(self, npu: int, pos: int, node: ETNode) -> None:
        duration = self.config.compute.compute_time_ns(node.flops, node.tensor_bytes)
        unit = self._compute_unit[npu]
        start, end = unit.reserve(self.engine.now, duration)
        if end > self.fault_onset:
            # Stragglers and stalls price the op from when the unit
            # actually starts it.
            timeline = self.faults.compute_timeline(npu)
            if timeline is not None:
                end, _ = unit.reprice(start, duration, timeline)
        self.activity.record(npu, start, end, Activity.COMPUTE, node.name)
        self.engine.schedule_at(end, self._complete, npu, pos)

    def _issue_memory(self, npu: int, pos: int, node: ETNode) -> None:
        request = MemoryRequest(
            size_bytes=node.tensor_bytes,
            is_store=node.node_type is NodeType.MEMORY_STORE,
            location=node.location,
        )
        if node.location is TensorLocation.REMOTE:
            if node.attrs.get("via") == VIA_FABRIC:
                # In-switch gather-load / scatter-store: the collective is
                # fused into the memory access (Sec. IV-D model 3), hiding
                # the communication inside the memory path.
                model = self.config.fabric_collectives
                if model is None:
                    raise ValueError(
                        f"node {node.name!r} requests an in-switch memory "
                        "access but no fabric_collectives model is configured"
                    )
            else:
                model = self.config.remote_memory
                if model is None:
                    raise ValueError(
                        f"node {node.name!r} accesses remote memory but no "
                        "remote_memory model is configured"
                    )
            channel = self._remote_channel[npu]
            activity = Activity.MEM_REMOTE
        else:
            model = self.config.local_memory
            channel = self._local_channel[npu]
            activity = Activity.MEM_LOCAL
        duration = model.access_time_ns(request)
        # Memory models are shared, run-independent timing functions: the
        # run's own observers read each access here, never through them.
        if self.invariants is not None:
            self.invariants.check_memory_access(model, request, duration)
        start, end = channel.reserve(self.engine.now, duration)
        self.activity.record(npu, start, end, activity, node.name)
        if self.telemetry is not None:
            model.telemetry_access(self.telemetry, request)
            self.telemetry.record_memory(
                "remote" if activity is Activity.MEM_REMOTE else "local",
                node.tensor_bytes, duration,
                fabric=node.attrs.get("via") == VIA_FABRIC)
        self.engine.schedule_at(end, self._complete, npu, pos)

    def _issue_fabric_collective(self, npu: int, pos: int,
                                 node: ETNode) -> None:
        fabric = self.config.fabric_collectives
        if fabric is None:
            raise ValueError(
                f"node {node.name!r} requests in-switch collectives but no "
                "fabric_collectives model is configured"
            )
        duration = fabric.collective_time_ns(node.collective, node.tensor_bytes)
        start, end = self._fabric_port[npu].reserve(self.engine.now, duration)
        self.activity.record(npu, start, end, Activity.COMM, node.name)
        self.engine.schedule_at(end, self._complete, npu, pos)

    # -- collectives -----------------------------------------------------------------

    def _issue_collective(self, npu: int, pos: int, node: ETNode) -> None:
        if node.attrs.get("via") == VIA_FABRIC:
            self._issue_fabric_collective(npu, pos, node)
            return
        comm_id = (npu, node.comm_dims, node.involved_npus)
        comm = self._communicators.get(comm_id)
        if comm is None:
            # Derived once per NPU and listing: valid for the engine's
            # lifetime because the trace set is fixed.  Listings that
            # normalize alike share one issue counter, kept under
            # (npu, key) in the same map.
            key, shape, participants = communicator(
                self.config.topology, npu, node, self.traces)
            comm = self._communicators.get((npu, key))
            if comm is None:
                comm = self._communicators[npu, key] = _Communicator(
                    key, shape, participants,
                    self._rendezvous.setdefault(key, {}))
            self._communicators[comm_id] = comm
        seq = comm.issued
        comm.issued = seq + 1

        table = comm.rendezvous
        rendezvous = table.get(seq)
        if rendezvous is None:
            rendezvous = table[seq] = _CollectiveRendezvous(comm.participants)
        arrived = rendezvous.arrived
        arrived[npu] = pos

        # The issuer is always a participant and arrives once per
        # instance, so a full count means every participant is in.
        if len(arrived) == len(rendezvous.participants):
            del table[seq]
            if isinstance(self.network, AnalyticalNetwork):
                self._start_collective(node, comm, rendezvous)
            else:
                # Packet-modeling backends have no phase-level collective
                # abstraction: run the collective as explicit send/recv
                # traffic (paper Sec. IV-C's validation apparatus), so
                # the same traces execute unmodified on every backend.
                rep, dims, group = comm.key
                self._start_collective_sendrecv(node, dims, rep, group,
                                                rendezvous)

    def _start_collective(self, node: ETNode, comm: _Communicator,
                          rendezvous: _CollectiveRendezvous) -> None:
        rep, dims, group = comm.key
        effective = comm.effective
        if effective is None:
            effective = comm.effective = self.scheduler.effective_comm(
                self.network.topology.dims, dims, comm.group_shape)
        op = CollectiveOperation(
            engine=self.engine,
            network=self.network,
            scheduler=self.scheduler,
            collective=node.collective,
            comm_dims=dims,
            rep_npu=rep,
            payload_bytes=node.tensor_bytes,
            num_chunks=self.config.collective_chunks,
            group_shape=comm.group_shape,
            group_members=group,
            comm=effective,
        )
        op.on_complete = lambda: self._finish_collective(
            node, comm.key, rendezvous, op.start_time, op)
        self._inflight_collectives += 1
        op.start()

    def _start_collective_sendrecv(
        self,
        node: ETNode,
        dims: Tuple[int, ...],
        rep: int,
        group: Tuple[int, ...],
        rendezvous: _CollectiveRendezvous,
    ) -> None:
        """Run a collective as explicit p2p traffic on a packet backend.

        A flat ring (All-Reduce / All-Gather / Reduce-Scatter) or direct
        personalized exchange (All-to-All) over the communicator's member
        list — the executor drives traffic for *every* member, so
        representative-trace workloads exercise the full group's packets.
        """
        if isinstance(group, CommGroup):
            # The executor addresses individual members; packet backends
            # run at scales where materializing is cheap by construction.
            group = group.members()
        executor = self._sendrecv_executor
        if executor is None:
            executor = self._sendrecv_executor = SendRecvCollectiveExecutor(
                self.engine, self.network, tag_base=1 << 30)
        start_ns = self.engine.now
        self._inflight_collectives += 1
        _SENDRECV_LOWERING[node.collective](
            executor, group, int(node.tensor_bytes),
            on_complete=lambda _elapsed_ns: self._finish_collective(
                node, (rep, dims, group), rendezvous, start_ns))

    def _finish_collective(
        self,
        node: ETNode,
        comm_key: Tuple,
        rendezvous: _CollectiveRendezvous,
        start_ns: float,
        op: Optional[CollectiveOperation] = None,
    ) -> None:
        """Record a finished collective and complete every member's node.

        ``op`` is the phase-level operation, when there is one: it
        carries the per-dimension traffic the invariants check.
        """
        rep, _dims, group = comm_key
        record = CollectiveRecord(
            name=node.name,
            collective=node.collective.value,
            payload_bytes=node.tensor_bytes,
            rep_npu=rep,
            group_size=len(group),
            start_ns=start_ns,
            finish_ns=self.engine.now,
            traffic_by_dim={} if op is None else dict(op.traffic_by_dim),
            members=tuple(sorted(rendezvous.arrived)),
        )
        self.collective_records.append(record)
        self._inflight_collectives -= 1
        if self.invariants is not None and op is not None:
            self.invariants.check_collective(record, op)
        if self.telemetry is not None:
            self.telemetry.record_collective(record, comm_key=comm_key)
        for member, pos in rendezvous.arrived.items():
            self.activity.record(
                member, start_ns, self.engine.now, Activity.COMM, node.name)
            self._complete(member, pos)

    # -- telemetry ---------------------------------------------------------------------

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Periodic scheduler-occupancy sampling (see Telemetry._sample)."""
        metrics = telemetry.metrics
        metrics.gauge("system", "scheduler_occupancy").sample(
            now, self._inflight_collectives)
        metrics.gauge("system", "rendezvous_waiting").sample(
            now, len(self.open_rendezvous()))
        metrics.gauge("system", "nodes_remaining").sample(
            now, self._remaining)

    # -- point-to-point ---------------------------------------------------------------

    def _issue_send(self, npu: int, pos: int, node: ETNode) -> None:
        issue_time = self.engine.now

        def on_sent() -> None:
            self.activity.record(npu, issue_time, self.engine.now,
                                 Activity.COMM, node.name)
            self._complete(npu, pos)

        self.network.sim_send(
            npu, node.peer, node.tensor_bytes, tag=node.tag, callback=on_sent
        )

    def _issue_recv(self, npu: int, pos: int, node: ETNode) -> None:
        def on_received(_message) -> None:
            self._complete(npu, pos)

        self.network.sim_recv(
            npu, node.peer, node.tensor_bytes, tag=node.tag, callback=on_received
        )

    # -- completion --------------------------------------------------------------------

    def _complete(self, npu: int, pos: int) -> None:
        indegree = self._indegree[npu]
        if indegree[pos] < 0:
            node_id = self.traces[npu].nodes[pos].node_id
            raise RuntimeError(f"node {(npu, node_id)} completed twice")
        indegree[pos] = -1
        self._remaining -= 1
        self.nodes_executed += 1
        self.finish_time = max(self.finish_time, self.engine.now)
        trace = self.traces[npu]
        for child in trace.child_positions[pos]:
            deg = indegree[child] - 1
            indegree[child] = deg
            if deg == 0:
                node = trace.nodes[child]
                self.engine.schedule(0.0, self._issuers[node.node_type],
                                     self, npu, child, node)
