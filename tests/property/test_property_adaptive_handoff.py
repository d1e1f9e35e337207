"""Property test: an escalated message as one flow moves no bit of output.

``AdaptiveFlowNetwork`` keeps an escalated message as one ``_Flow`` that
steps through its packet segments in place, and each completion drains
the flows and collects the finished ones in one pass.  ``SeedAdaptive``
below keeps the earlier path as the oracle: a ``_SeedSubFlowGroup`` per
escalated message, a new ``_SeedFlow`` for every segment
(``_launch_next_subflow``), separate advance, ``finished`` and ETA
scans, and the byte attribution after the completion loop.  Do not
"fix" or optimise it; its value is that it never changes.  Both are run
on the same sends and must agree with ``==`` on every arrival and
``on_sent`` time and the order they fire in (equal sizes on shared
routes make segments finish in lockstep, so ties are common), the total
time, the engine's processed and scheduled events and cancels, the
solve count, the controller's escalations, de-escalations and handoffs,
the fluid and escalated byte attribution, and, where telemetry or
invariant checking is on, their reports.  After every completion both
must also hold the same flows, with the same size, residue, rate and
finish threshold, in the same order, in the backend and on every link:
a flow stepping to its next segment moves to the end, where the
oracle's new object lands.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AdaptiveFlowNetwork, parse_topology
from repro.telemetry import Telemetry, TelemetryConfig, TraceLevel
from repro.validate import InvariantChecker, InvariantConfig
from tests.property.test_property_maxmin import CAPACITIES, DIMS

KiB = 1 << 10
# Follow-up sends (issued from on_sent) use tags from here up.
FOLLOW_UP_TAG = 1 << 20


class _SeedFlow:
    """One in-flight message (or one packet-granularity sub-flow)."""

    __slots__ = ("message", "on_sent", "links", "size", "remaining", "rate",
                 "prop_latency_ns", "finish_threshold", "group")

    def __init__(self, message, on_sent, links, size_bytes=None, group=None):
        self.message = message
        self.on_sent = on_sent
        self.links = links
        self.size = float(max(
            1, message.size_bytes if size_bytes is None else size_bytes))
        self.remaining = self.size
        self.rate = 0.0
        self.prop_latency_ns = (group.prop_latency_ns if group is not None
                                else sum(link.latency_ns for link in links))
        self.finish_threshold = max(1e-6, 1e-9 * self.remaining)
        self.group = group

    @property
    def finished(self):
        return self.remaining <= self.finish_threshold


class _SeedSubFlowGroup:
    """An escalated message: packet-granularity sub-flows run in sequence."""

    __slots__ = ("message", "on_sent", "links", "sizes", "next_idx",
                 "prop_latency_ns")

    def __init__(self, message, on_sent, links, sizes):
        self.message = message
        self.on_sent = on_sent
        self.links = links
        self.sizes = sizes
        self.next_idx = 0
        self.prop_latency_ns = sum(link.latency_ns for link in links)


class SeedAdaptive(AdaptiveFlowNetwork):
    """The per-segment-object path before in-place handoff (oracle)."""

    def _launch_next_subflow(self, group):
        size = group.sizes[group.next_idx]
        group.next_idx += 1
        sub = _SeedFlow(group.message, None, group.links,
                        size_bytes=size, group=group)
        self._flows[sub] = None
        for link in group.links:
            link.flows[sub] = None
        return sub

    def _remove_flow(self, flow):
        self._flows.pop(flow, None)
        for lnk in flow.links:
            lnk.flows.pop(flow, None)

    def _advance_to_now(self):
        elapsed = self.engine.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._last_update = self.engine.now

    def _schedule_next_completion(self):
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

    def _segments(self, size_bytes):
        total = max(1, int(math.ceil(size_bytes)))
        packet = self.escalation_packet_bytes
        sizes = []
        remaining = total
        while remaining > 0:
            step = min(packet, remaining)
            sizes.append(step)
            remaining -= step
        return sizes

    def _escalate(self, link, state):
        self._flip_mode(state, "packet")
        self._packet_links.add(id(link))
        self.escalations += 1
        self.granularity_escalations += 1
        invariants = self.invariants
        now = self.engine.now
        for flow in list(link.flows):
            if flow.group is not None or flow.finished:
                continue
            before = flow.remaining
            sizes = self._segments(before)
            if invariants is not None:
                invariants.check_granularity_handoff(
                    flow.message, before, float(sum(sizes)), now)
            self.handoffs += 1
            self.fluid_bytes += flow.size - before
            self._remove_flow(flow)
            group = _SeedSubFlowGroup(flow.message, flow.on_sent, flow.links,
                                      sizes)
            self.escalated_messages += 1
            self._launch_next_subflow(group)

    def _deescalate(self, link, state):
        self._flip_mode(state, "fluid")
        self._packet_links.discard(id(link))
        self.deescalations += 1
        invariants = self.invariants
        packet_links = self._packet_links
        now = self.engine.now
        for flow in list(link.flows):
            group = flow.group
            if group is None or flow.finished:
                continue
            if any(id(lnk) in packet_links for lnk in group.links):
                continue
            before = flow.remaining + float(sum(group.sizes[group.next_idx:]))
            if invariants is not None:
                invariants.check_granularity_handoff(
                    group.message, before, before, now)
            self.handoffs += 1
            self.escalated_bytes += flow.size - flow.remaining
            self._remove_flow(flow)
            merged = _SeedFlow(group.message, group.on_sent, group.links,
                               size_bytes=before)
            self._flows[merged] = None
            for lnk in merged.links:
                lnk.flows[merged] = None

    def _transmit(self, message, on_sent):
        links = self._links.path(message.src, message.dest)
        self._advance_to_now()
        if self._packet_links and any(
                id(link) in self._packet_links for link in links):
            group = _SeedSubFlowGroup(message, on_sent, links,
                                      self._segments(float(message.size_bytes)))
            self.escalated_messages += 1
            self._launch_next_subflow(group)
        else:
            flow = _SeedFlow(message, on_sent, links)
            self._flows[flow] = None
            for link in links:
                link.flows[flow] = None
        for link in links:
            n = len(link.flows)
            if self._should_escalate(n):
                state = self._state_for(link)
                if state.mode == "fluid" and not state.pending:
                    self._pend_transition(link, state)
        self._flush_transitions()
        self._resolve()

    def _complete_due_flows(self):
        self._completion_event = None
        self._advance_to_now()
        finished = [f for f in self._flows if f.finished]
        departed = False
        for flow in finished:
            self._flows.pop(flow, None)
            for link in flow.links:
                link.flows.pop(flow, None)
            group = flow.group
            if group is not None and group.next_idx < len(group.sizes):
                self._launch_next_subflow(group).rate = flow.rate
                continue
            departed = True
            self._resolve()
            on_sent = flow.on_sent if group is None else group.on_sent
            if on_sent is not None:
                on_sent()
            self._record_flow_span(flow.message)
            self.engine.schedule(flow.prop_latency_ns, self._deliver,
                                 flow.message)
        if not departed:
            self._schedule_next_completion()
        for flow in finished:
            if flow.group is not None:
                self.escalated_bytes += flow.size
            else:
                self.fluid_bytes += flow.size
        if departed and self._gran:
            for flow in finished:
                for link in flow.links:
                    state = self._gran.get(id(link))
                    if (state is not None and state.mode == "packet"
                            and not state.pending
                            and self._should_deescalate(len(link.flows))):
                        self._pend_transition(link, state)
            self._flush_transitions()
        return finished, departed


@st.composite
def scenarios(draw):
    """A 1-3-dim topology, controller settings and delayed sends."""
    ndims = draw(st.integers(min_value=1, max_value=3))
    dims = [(draw(st.sampled_from(DIMS)), draw(st.integers(2, 4)))
            for _ in range(ndims)]
    notation = "_".join(f"{kind}({size})" for kind, size in dims)
    bandwidths = [draw(st.sampled_from(CAPACITIES)) for _ in dims]
    latencies = [draw(st.sampled_from((0.0, 50.0))) for _ in dims]
    npus = 1
    for _, size in dims:
        npus *= size
    node = st.integers(min_value=0, max_value=npus - 1)
    size = st.sampled_from((1 * KiB, 4 * KiB, 16 * KiB)) | st.integers(
        1, 48 * KiB)
    send = st.tuples(st.sampled_from((0.0, 0.0, 300.0, 2500.0)), node, node,
                     size, st.booleans()).filter(lambda s: s[1] != s[2])
    sends = draw(st.lists(send, min_size=1, max_size=14))
    controller = {
        "escalation_threshold": draw(st.sampled_from(
            (0.0, 1.0, 4.0, math.inf))),
        "deescalation_hysteresis": draw(st.sampled_from((0.0, 1.0, 2.0))),
        "escalation_packet_bytes": draw(st.sampled_from(
            (1000, 1 * KiB, 4 * KiB))),
    }
    return (notation, bandwidths, latencies, sends, controller,
            draw(st.booleans()), draw(st.booleans()))


def _flow_order(net):
    """Every live flow's identity and state, in drain order, per link."""
    def state(flow):
        message = flow.message
        return (message.src, message.dest, message.tag, flow.size,
                flow.remaining, flow.rate, flow.finish_threshold)
    return ([state(flow) for flow in net._flows],
            [[state(flow) for flow in link.flows]
             for link in net._links.values()])


def _run(cls, case):
    """Run the sends; return everything the run observably did."""
    notation, bandwidths, latencies, sends, controller, traced, checked = case
    telemetry = (Telemetry(TelemetryConfig(trace_level=TraceLevel.CHUNK))
                 if traced else None)
    checker = InvariantChecker(InvariantConfig()) if checked else None
    engine = EventEngine(invariants=checker)
    net = cls(engine, parse_topology(notation, bandwidths,
                                     latencies_ns=latencies),
              telemetry=telemetry, invariants=checker, **controller)
    arrivals, sent = [], []

    def record(tag):
        return lambda message: arrivals.append((tag, message.arrival_time))

    def on_sent(src, dst, size, tag, follow):
        def sent_():
            sent.append((tag, engine.now))
            if follow:
                follow_tag = FOLLOW_UP_TAG + tag
                net.sim_recv(src, dst, size, tag=follow_tag,
                             callback=record(follow_tag))
                net.sim_send(dst, src, size, tag=follow_tag)
        return sent_

    def send(tag, src, dst, size, follow):
        net.sim_recv(dst, src, size, tag=tag, callback=record(tag))
        net.sim_send(src, dst, size, tag=tag, callback=on_sent(
            src, dst, size // 2 + 1, tag, follow))

    trajectory = []
    complete = net._complete_due_flows

    def traced_complete():
        finished, departed = complete()
        trajectory.append((engine.now, departed, _flow_order(net)))
        return finished, departed

    # The completion event looks the bound method up on the instance.
    net._complete_due_flows = traced_complete
    for tag, (delay, src, dst, size, follow) in enumerate(sends):
        engine.schedule(delay, send, tag, src, dst, size, follow)
    engine.run()
    observed = {
        "arrivals": arrivals,
        "sent": sent,
        "trajectory": trajectory,
        "total_ns": engine.now,
        "events_processed": engine.events_processed,
        "events_scheduled": engine.events_scheduled,
        "cancels": engine.cancels,
        "rate_recomputations": net.rate_recomputations,
        "escalations": net.escalations,
        "deescalations": net.deescalations,
        "handoffs": net.handoffs,
        "escalated_messages": net.escalated_messages,
        "fluid_bytes": net.fluid_bytes,
        "escalated_bytes": net.escalated_bytes,
    }
    if traced:
        observed["telemetry"] = telemetry.finalize(
            engine.now, engine, net).to_dict(include_profile=False)
    if checked:
        observed["invariants"] = checker.finalize(
            engine.now, engine=engine, network=net).to_dict()
    return observed


@settings(max_examples=150, deadline=None)
@given(case=scenarios())
def test_in_place_handoff_matches_per_segment_oracle(case):
    new = _run(AdaptiveFlowNetwork, case)
    assert len(new["arrivals"]) == sum(
        1 + follow for *_, follow in case[3])
    assert new == _run(SeedAdaptive, case)
