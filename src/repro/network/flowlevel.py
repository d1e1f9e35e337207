"""Flow-level network backend with max-min fair bandwidth sharing.

The third point on the fidelity/speed spectrum, standing in for the
astra-sim + ns3 coupling the paper cites ([12]): messages are *flows*
that share link capacity under progressive-filling (max-min) fairness,
re-solved whenever the set of flows changes.  Unlike the analytical
backend (no cross-flow contention beyond ports) and Garnet-lite (per
packet, expensive), the flow model captures time-varying rates — a flow
slows down when a competitor joins mid-transfer and speeds back up when
it leaves — at one event per rate change instead of one per packet-hop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.events import EventEngine
from repro.network.api import Message, NetworkBackend
from repro.network.linkgraph import LazyLinkGraph
from repro.network.topology import MultiDimTopology


class _FlowLink:
    """A directed link: capacity shared by the flows crossing it."""

    __slots__ = ("capacity", "latency_ns", "flows", "key", "residual",
                 "unfrozen")

    def __init__(self, bandwidth_gbps: float, latency_ns: float) -> None:
        self.capacity = bandwidth_gbps  # GB/s == bytes/ns
        self.latency_ns = latency_ns
        # Insertion-ordered (dict-as-set): _Flow objects hash by identity,
        # so a plain set would iterate in allocator-dependent order and
        # same-timestamp completions would drain nondeterministically.
        self.flows: Dict["_Flow", None] = {}
        # Graph key, filled in by backends that need to name links in
        # telemetry (the lazy graph's on_create hook sets it).
        self.key = None
        # Progressive-filling scratch, reset by every solve: capacity not
        # yet handed out, and how many of ``flows`` still await a rate.
        self.residual = 0.0
        self.unfrozen = 0


class _Flow:
    """One in-flight message.

    An escalated message (see :mod:`repro.network.adaptive`) is one flow
    that steps through its packet segments in place: ``sizes`` lists
    them, ``size`` is the live segment's and ``next_idx`` indexes its
    successor.  A fluid flow has ``sizes`` None.
    """

    __slots__ = ("message", "on_sent", "links", "size", "remaining", "rate",
                 "prop_latency_ns", "finish_threshold", "sizes", "next_idx")

    def __init__(self, message: Message, on_sent: Optional[Callable[[], None]],
                 links: Tuple[_FlowLink, ...], size_bytes: Optional[float] = None,
                 sizes: Optional[List[int]] = None) -> None:
        self.message = message
        self.on_sent = on_sent
        self.links = links
        self.sizes = sizes
        self.next_idx = 1
        if sizes is not None:
            size_bytes = sizes[0]
        self.size = float(max(
            1, message.size_bytes if size_bytes is None else size_bytes))
        self.remaining = self.size
        self.rate = 0.0
        self.prop_latency_ns = sum(link.latency_ns for link in links)
        # Rate * time accumulates relative float error; declare the flow
        # done once the residue is negligible for its size, or the
        # scheduler grinds through microscopic remainders forever.
        self.finish_threshold = max(1e-6, 1e-9 * self.remaining)

    @property
    def finished(self) -> bool:
        return self.remaining <= self.finish_threshold


class FlowLevelNetwork(NetworkBackend):
    """Max-min fair flow simulation over the explicit link graph.

    When the set of flows changes the rate allocation is re-solved with
    progressive filling: repeatedly saturate the most-constrained link
    (fair share = residual capacity / unfrozen flows), freeze its flows
    at that rate, and continue.  Between events every flow progresses
    linearly at its rate, so only the earliest completion needs an event.

    A solve runs once per instant, not once per change: every change
    registers the solve at the event engine's end-of-instant step, and a
    flow stepping from one packet segment to the next on the same route
    keeps every rate as it is.

    Args:
        engine: The shared event engine.
        topology: Physical topology, expanded into the explicit link graph.
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: MultiDimTopology,
        **instruments,
    ) -> None:
        super().__init__(engine, topology, **instruments)
        # Links materialize on first touch (LazyLinkGraph); construction
        # cost is independent of topology size.
        self._links = LazyLinkGraph(topology, lambda bw, lat: _FlowLink(bw, lat))
        # Insertion-ordered for deterministic drain order (see _FlowLink).
        self._flows: Dict[_Flow, None] = {}
        self._last_update = 0.0
        self._completion_event: Optional[list] = None
        self.rate_recomputations = 0
        self.granularity_escalations = 0
        # Byte attribution: every byte a message delivers is accounted to
        # exactly one granularity, fluid or escalated (packet segments).
        self.fluid_bytes = 0.0
        self.escalated_bytes = 0.0

    # -- NetworkBackend -----------------------------------------------------------

    def _transmit(self, message: Message, on_sent: Optional[Callable[[], None]]) -> None:
        links = self._links.path(message.src, message.dest)
        self._advance_to_now()
        self._add_flow(_Flow(message, on_sent, links))
        self._resolve()

    def _add_flow(self, flow: _Flow) -> None:
        self._flows[flow] = None
        for link in flow.links:
            link.flows[flow] = None

    def _remove_flow(self, flow: _Flow) -> None:
        del self._flows[flow]
        for link in flow.links:
            del link.flows[flow]

    def _resolve(self) -> None:
        # Rates depend only on the set of flows, and no time passes within
        # an instant, so one solve after its last change is all it needs.
        self.engine.at_instant_end(self._reallocate)

    # -- fluid dynamics -----------------------------------------------------------

    def _advance_to_now(self) -> None:
        """Drain progress linearly since the last rate change."""
        elapsed = self.engine.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._last_update = self.engine.now

    def _reallocate(self) -> None:
        """Progressive-filling max-min allocation, then reschedule.

        Counted filling: every link keeps its residual capacity and its
        number of unfrozen flows, so a round finds the bottleneck with
        one division per active link, and freezing a flow touches only
        that flow's hops.  Rates are bit-identical to recounting each
        link's unfrozen flows every round, because the arithmetic and
        its order are the same: links are visited in creation order, the
        first link with the strictly smallest share wins, the
        bottleneck's flows freeze in insertion order, and each frozen
        flow's hops are debited in route order under the same clamp.
        """
        self.rate_recomputations += 1
        # Only links currently carrying flows can constrain the
        # allocation (max-min rates are unique, so skipping idle links
        # cannot change the result).
        active = [link for link in self._links.values() if link.flows]
        for link in active:
            link.residual = link.capacity
            link.unfrozen = len(link.flows)
        unfrozen = set(self._flows)
        while unfrozen:
            # Most-constrained link among those carrying unfrozen flows.
            best_share = None
            bottleneck = None
            for link in active:
                if link.unfrozen:
                    share = link.residual / link.unfrozen
                    if best_share is None or share < best_share:
                        best_share = share
                        bottleneck = link
            if bottleneck is None:
                break
            for flow in bottleneck.flows:
                if flow in unfrozen:
                    unfrozen.discard(flow)
                    flow.rate = best_share
                    for link in flow.links:
                        # max(0.0, left) for every float, NaN included,
                        # without a builtin call on the hottest line.
                        left = link.residual - best_share
                        link.residual = left if left > 0.0 else 0.0
                        link.unfrozen -= 1
        if self.invariants is not None:
            self.invariants.check_flow_rates(active, self.engine.now)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        if self._completion_event is not None:
            self.engine.cancel(self._completion_event)
            self._completion_event = None
        soonest = None
        for flow in self._flows:
            if flow.rate <= 0:
                continue
            eta = flow.remaining / flow.rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is not None:
            self._completion_event = self.engine.schedule(
                soonest, self._complete_due_flows)

    def _complete_due_flows(self) -> Tuple[List[_Flow], bool]:
        """Retire finished flows; return them, and whether any departed.

        One pass drains every flow linearly since the last rate change
        and collects the finished ones.  A finished flow with a packet
        segment left takes it in place: it keeps its rate and route and
        moves to the end of the flow order, where a newly launched flow
        would land.  A departure, and every send issued from
        ``on_sent``, registers the instant's one solve.  When nothing
        departed (every finished flow only stepped to its next segment)
        the flow set is unchanged as a multiset of routes, which is all
        progressive filling reads, so every rate stands and no solve
        runs.
        """
        self._completion_event = None
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        flows = self._flows
        if elapsed > 0:
            finished = []
            for flow in flows:
                left = flow.remaining - flow.rate * elapsed
                # max(0.0, left) for every float, NaN included.
                flow.remaining = left = left if left > 0.0 else 0.0
                if left <= flow.finish_threshold:
                    finished.append(flow)
        else:
            finished = [f for f in flows if f.remaining <= f.finish_threshold]
        departed = False
        for flow in finished:
            sizes = flow.sizes
            if sizes is None:
                self.fluid_bytes += flow.size
            else:
                self.escalated_bytes += flow.size
                idx = flow.next_idx
                if idx < len(sizes):
                    # The constructor's float(max(1, s)) and
                    # max(1e-6, 1e-9 * size), without builtin calls.
                    flow.next_idx = idx + 1
                    size = sizes[idx]
                    size = float(size) if size > 1 else 1.0
                    flow.size = flow.remaining = size
                    threshold = 1e-9 * size
                    flow.finish_threshold = (threshold if threshold > 1e-6
                                             else 1e-6)
                    del flows[flow]
                    flows[flow] = None
                    for link in flow.links:
                        del link.flows[flow]
                        link.flows[flow] = None
                    continue
            self._remove_flow(flow)
            departed = True
            self._resolve()
            if flow.on_sent is not None:
                flow.on_sent()
            self._record_flow_span(flow.message)
            self.engine.schedule(flow.prop_latency_ns, self._deliver,
                                 flow.message)
        if not departed:
            self._schedule_next_completion()
        return finished, departed

    # -- introspection ------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # -- telemetry and invariants -------------------------------------------------

    def _record_flow_span(self, message: Message) -> None:
        """One span per fully-serialized message on a shared flow track."""
        telemetry = self.telemetry
        if telemetry is not None and telemetry.chunk_spans:
            telemetry.spans.add(
                "flows", f"{message.src}->{message.dest}", "flow",
                message.send_time, self.engine.now,
                {"size_bytes": message.size_bytes})

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Sample concurrency: flows in flight drive solver cost."""
        super().telemetry_sample(telemetry, now)
        telemetry.metrics.gauge("network", "active_flows").sample(
            now, len(self._flows))

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        """Solver iterations and fidelity escalations (HyGra-style)."""
        super().telemetry_finalize(telemetry, total_ns)
        metrics = telemetry.metrics
        metrics.counter("network", "solver_iterations").value = float(
            self.rate_recomputations)
        metrics.counter("network", "granularity_escalations").value = float(
            self.granularity_escalations)
        metrics.counter("network", "links_total").value = float(
            self._links.total_count())

    def invariants_finalize(self, checker, total_ns: float) -> None:
        """Every flow drained: no link carries one, none is in flight."""
        super().invariants_finalize(checker, total_ns)
        for key, link in self._links.items():
            checker.checks += 1
            if link.flows:
                checker.record(
                    "network", "leak",
                    f"link {key!r} still carries {len(link.flows)} flows "
                    "at end of run", time_ns=total_ns, flows=len(link.flows))
        if self._flows:
            checker.checks += 1
            checker.record(
                "network", "leak",
                f"{len(self._flows)} flows still in flight at end of run",
                time_ns=total_ns, flows=len(self._flows))
