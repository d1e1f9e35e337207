"""Property test: the counted max-min solver against the plain loop.

``FlowLevelNetwork._reallocate`` keeps per-link residual and unfrozen
counts instead of recounting every link's unfrozen flows each filling
round.  The pinned benchmark digests depend on its rates to the last
bit, so this suite keeps the plain progressive-filling loop as the
oracle and requires exactly equal rates (``==``, not approx) over
random multi-dimensional topologies, per-link capacities and flow sets,
including equal-share ties and links debited to a zero residual.
"""

from typing import Dict

from hypothesis import example, given, settings, strategies as st

from repro.events import EventEngine
from repro.network import parse_topology
from repro.network.api import Message
from repro.network.flowlevel import FlowLevelNetwork, _Flow, _FlowLink
from repro.validate import InvariantChecker

DIMS = ("Ring", "FC", "Switch")
# Few distinct capacities so that equal shares, and links that saturate
# together, are common; 3.0 makes the shares non-dyadic, so a saturated
# link's residual can round below zero and exercise the clamp.
CAPACITIES = (3.0, 12.5, 25.0, 50.0, 100.0)


def reference_reallocate(net: FlowLevelNetwork) -> None:
    """Plain progressive filling: every round recounts each link's
    unfrozen flows (the solver before counted filling, without the
    reschedule)."""
    unfrozen: Dict[_Flow, None] = dict.fromkeys(net._flows)
    residual: Dict[int, float] = {
        id(link): link.capacity
        for link in net._links.values() if link.flows
    }
    link_objects: Dict[int, _FlowLink] = {
        id(link): link for link in net._links.values() if link.flows
    }
    while unfrozen:
        best_share = None
        best_link_id = None
        for link_id, link in link_objects.items():
            active = [f for f in link.flows if f in unfrozen]
            if not active:
                continue
            share = residual[link_id] / len(active)
            if best_share is None or share < best_share:
                best_share = share
                best_link_id = link_id
        if best_link_id is None:
            break
        bottleneck = link_objects[best_link_id]
        for flow in [f for f in bottleneck.flows if f in unfrozen]:
            flow.rate = best_share
            unfrozen.pop(flow, None)
            for link in flow.links:
                residual[id(link)] = max(
                    0.0, residual[id(link)] - best_share)


@st.composite
def networks(draw):
    """A topology of 1-3 dimensions, its flows, and per-link capacities."""
    ndims = draw(st.integers(min_value=1, max_value=3))
    dims = [(draw(st.sampled_from(DIMS)), draw(st.integers(2, 4)))
            for _ in range(ndims)]
    notation = "_".join(f"{kind}({size})" for kind, size in dims)
    bandwidths = [draw(st.sampled_from(CAPACITIES)) for _ in dims]
    npus = 1
    for _, size in dims:
        npus *= size
    node = st.integers(min_value=0, max_value=npus - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=24))
    # Per-link overrides, applied in link creation order (None keeps the
    # dimension's bandwidth).
    overrides = draw(st.lists(st.none() | st.sampled_from(CAPACITIES)
                              | st.floats(min_value=0.5, max_value=400.0),
                              max_size=48))
    # Which flows leave before the second solve.
    leave = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    return notation, bandwidths, pairs, overrides, leave


def _solve_both(net: FlowLevelNetwork):
    flows = list(net._flows)
    net._reallocate()
    counted = [flow.rate for flow in flows]
    for flow in flows:
        flow.rate = -1.0
    reference_reallocate(net)
    return counted, [flow.rate for flow in flows]


@settings(max_examples=200, deadline=None)
@given(case=networks())
# Three equal flows on one link: shares of 100/3 leave a rounding residue.
@example(case=("Ring(4)", [100.0], [(0, 1)] * 3, [], [True, False, False]))
# Links 0->1 and 1->2 tie and both saturate in one round.
@example(case=("Ring(4)", [3.0], [(0, 1), (1, 2), (0, 2)], [],
               [False, True, False]))
# Links 0->1 and 1->2 tie at 100/3; whichever freezes first leaves the
# other 100 - 100/3 for two flows, which rounds to a different share.
@example(case=("Ring(4)", [100.0], [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2)],
               [], [False] * 5))
def test_counted_filling_is_bit_identical_to_plain_loop(case):
    notation, bandwidths, pairs, overrides, leave = case
    topo = parse_topology(notation, bandwidths,
                          latencies_ns=[0.0] * len(bandwidths))
    checker = InvariantChecker()
    engine = EventEngine(invariants=checker)
    net = FlowLevelNetwork(engine, topo, invariants=checker)
    flows = []
    for src, dst in pairs:
        links = net._links.path(src, dst)
        flow = _Flow(Message(src, dst, 1 << 20), None, links)
        flows.append(flow)
        net._flows[flow] = None
        for link in links:
            link.flows[flow] = None
    for link, capacity in zip(net._links.values(), overrides):
        if capacity is not None:
            link.capacity = capacity

    counted, reference = _solve_both(net)
    assert counted == reference

    # A second solve after departures: the per-link scratch must not
    # carry anything over from the first.
    for flow, gone in zip(flows, leave):
        if gone:
            net._flows.pop(flow)
            for link in flow.links:
                link.flows.pop(flow)
    if net._flows:
        counted, reference = _solve_both(net)
        assert counted == reference

    # The checker audited every counted solve above.
    assert checker.violations_total == 0, checker.violations
