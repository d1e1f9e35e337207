"""Property tests: the flow backends solve max-min once per change set.

Two shortcuts keep the solve count down without moving a single bit of
output:

1. Every change registers the solve at the event engine's end-of-instant
   step, so the joins of one instant share one solve.  Issuing the same
   wave of sends from one callback or from one event per send at the
   same timestamp must give ``==`` arrival times, total time, event
   counts (net of the events that issue the sends), escalations and
   handoffs, and each wave's instant must cost exactly one solve either
   way.
2. A completion in which every finished flow is a packet segment
   handing off to its successor skips the solve.  At every such skip
   the plain progressive-filling loop (the oracle from
   ``test_property_maxmin``) must return ``==`` rates for every live
   flow, and the adaptive de-escalation scan it skips could not have
   pended a transition.
"""

from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AdaptiveFlowNetwork, FlowLevelNetwork, parse_topology
from tests.property.test_property_maxmin import (
    CAPACITIES,
    DIMS,
    reference_reallocate,
)

KiB = 1 << 10
# Follow-up sends (issued from on_sent) use tags from here up.
FOLLOW_UP_TAG = 1 << 20


@st.composite
def scenarios(draw):
    """A backend, a 1-3-dim topology, and waves of same-instant sends."""
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
    send = st.tuples(node, node, st.integers(1, 48 * KiB), st.booleans()
                     ).filter(lambda s: s[0] != s[1])
    waves = draw(st.lists(
        st.tuples(st.sampled_from((0.0, 0.0, 500.0, 4000.0)),
                  st.lists(send, min_size=1, max_size=12)),
        min_size=1, max_size=3))
    backend = draw(st.sampled_from(("flow", "adaptive")))
    adaptive = {
        "escalation_threshold": draw(st.sampled_from((0.0, 1.0, 2.0, 4.0))),
        "deescalation_hysteresis": draw(st.sampled_from((0.0, 1.0))),
        "escalation_packet_bytes": draw(st.sampled_from((1 * KiB, 4 * KiB))),
    }
    return notation, bandwidths, latencies, waves, backend, adaptive


def _network(case):
    notation, bandwidths, latencies, _, backend, adaptive = case
    engine = EventEngine()
    topo = parse_topology(notation, bandwidths, latencies_ns=latencies)
    if backend == "flow":
        return engine, FlowLevelNetwork(engine, topo)
    return engine, AdaptiveFlowNetwork(engine, topo, **adaptive)


def _run(case, per_send):
    """Fire every wave from one callback, or from one event per send;
    return what the run observably did."""
    engine, net = _network(case)
    waves = case[3]
    arrivals = {}
    solve_times = []
    reallocate = net._reallocate

    def counted_reallocate():
        solve_times.append(engine.now)
        reallocate()

    # The solve is registered through the instance, so this counts each.
    net._reallocate = counted_reallocate

    def record(tag):
        return lambda message: arrivals.__setitem__(tag, message.arrival_time)

    def follow_up(src, dst, size, tag):
        def on_sent():
            net.sim_recv(src, dst, size, tag=tag, callback=record(tag))
            net.sim_send(dst, src, size, tag=tag)
        return on_sent

    def send(tag, src, dst, size, follow):
        net.sim_recv(dst, src, size, tag=tag, callback=record(tag))
        net.sim_send(src, dst, size, tag=tag, callback=follow_up(
            src, dst, size // 2 + 1, FOLLOW_UP_TAG + tag)
            if follow else None)

    def fan_out(calls):
        for call in calls:
            send(*call)

    issuing_events = 0
    first_tag = 0
    for delay, sends in waves:
        calls = [(first_tag + offset, *s) for offset, s in enumerate(sends)]
        if per_send:
            for call in calls:
                engine.schedule(delay, send, *call)
        else:
            engine.schedule(delay, fan_out, calls)
        issuing_events += len(calls) if per_send else 1
        first_tag += len(sends)
    engine.run()
    return {
        "arrivals": arrivals,
        "total_ns": engine.now,
        "events": engine.events_processed - issuing_events,
        "escalations": getattr(net, "escalations", 0),
        "handoffs": getattr(net, "handoffs", 0),
        "solves": [solve_times.count(delay)
                   for delay in sorted({delay for delay, _ in waves})],
    }


@settings(max_examples=120, deadline=None)
@given(case=scenarios())
def test_a_wave_costs_one_solve_from_one_callback_or_one_event_per_send(case):
    together = _run(case, per_send=False)
    apart = _run(case, per_send=True)
    waves = case[3]
    assert together["solves"] == [1] * len({delay for delay, _ in waves})
    # Every message and every follow-up arrived.
    assert len(together["arrivals"]) == sum(
        1 + follow for _, sends in waves for *_, follow in sends)
    assert together == apart


def _audit_skipped_solves(net):
    """Check the oracle at every completion that skipped its solve."""
    complete = net._complete_due_flows
    skipped = []

    def audited():
        finished, departed = complete()
        if not departed:
            live = list(net._flows)
            kept = [flow.rate for flow in live]
            reference_reallocate(net)
            assert [flow.rate for flow in live] == kept
            gran = getattr(net, "_gran", {})
            for flow in finished:
                for link in flow.links:
                    state = gran.get(id(link))
                    if state is not None and state.mode == "packet":
                        assert state.pending or not net._should_deescalate(
                            len(link.flows))
            skipped.append(len(live))
        return finished, departed

    # The completion event looks the bound method up on the instance.
    net._complete_due_flows = audited
    return skipped


@settings(max_examples=120, deadline=None)
@given(case=scenarios())
def test_skipped_solves_match_the_plain_loop(case):
    engine, net = _network(case)
    _audit_skipped_solves(net)
    tag = 0
    for delay, sends in case[3]:
        for src, dst, size, _ in sends:
            engine.schedule(delay, net.sim_send, src, dst, size, tag)
            tag += 1
    engine.run()
    assert net.messages_delivered == tag


def test_segment_handoffs_skip_the_solve():
    # Two 16 KiB messages on one Ring(4) link at threshold 1: the link
    # escalates and 1 KiB segments hand off to their successors.
    engine = EventEngine()
    topo = parse_topology("Ring(4)", [100.0], latencies_ns=[0.0])
    net = AdaptiveFlowNetwork(engine, topo, escalation_threshold=1.0,
                              escalation_packet_bytes=1 * KiB)
    skipped = _audit_skipped_solves(net)
    for tag in (0, 1):
        net.sim_send(0, 1, 16 * KiB, tag=tag)
    engine.run()
    assert net.escalations == 1
    # The two groups' 16 segments finish in lockstep: 15 completions
    # only hand off, and the last one delivers both messages.
    assert len(skipped) == 15
    assert net.rate_recomputations < engine.events_processed
