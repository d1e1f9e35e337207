"""Property test: garnet-lite's segment plan moves no bit of output.

``GarnetLiteNetwork._transmit`` plans a message's segments once (full
trains, then at most one tail) and ``_hop``/``_Link.transmit`` take the
later of ``now`` and ``free_at`` with a comparison.  ``SeedGarnetLite``
below keeps the earlier per-segment ``_transmit``/``_hop`` and the
``max``-based link reservation as the oracle; do not "fix" or
optimise it, its value is that it never changes.  Both are run on the
same sends (every size >= 1 B: the oracle charged a 0 B message a full
packet) and must agree with ``==`` on arrival and ``on_sent`` times,
every link's ``free_at`` and ``bytes_carried``, ``packet_hops``, the
engine's processed and scheduled event counts and the packet span list.
"""

from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import GarnetLiteNetwork, parse_topology
from repro.network.garnetlite import _PacketFlow
from repro.telemetry import Telemetry, TelemetryConfig, TraceLevel

# (notation, bandwidths, latencies): 1-hop and multi-hop routes on a ring,
# and routes through a switch's fabric node.
TOPOLOGIES = (
    ("Ring(8)", [50.0], [500.0]),
    ("Ring(2)_Switch(4)", [100.0, 50.0], [500.0, 100.0]),
)


def _seed_transmit(link, now, size_bytes):
    start = max(now, link.free_at)
    done = start + size_bytes / link.bandwidth
    link.free_at = done
    link.bytes_carried += size_bytes
    return done, done + link.latency_ns


class SeedGarnetLite(GarnetLiteNetwork):
    """The per-segment send path before the segment plan (oracle)."""

    def _transmit(self, message, on_sent):
        links = self._links.path(message.src, message.dest)
        n_packets = max(1, -(-message.size_bytes // self.packet_bytes))
        unit = self.packet_bytes * self.train_packets
        n_segments = max(1, -(-message.size_bytes // unit))
        flow = _PacketFlow(message, on_sent, n_packets)
        remaining = message.size_bytes
        for _ in range(n_segments):
            size = min(unit, remaining) if remaining else self.packet_bytes
            remaining -= size
            count = max(1, -(-size // self.packet_bytes))
            self._hop(flow, links, 0, max(1, size), count)

    def _hop(self, flow, links, hop_idx, size, count):
        link = links[hop_idx]
        departed, arrived = _seed_transmit(link, self.engine.now, size)
        self.packet_hops += count
        telemetry = self.telemetry
        if telemetry is not None and telemetry.packet_spans:
            telemetry.spans.add(
                f"link {link.key[0]}->{link.key[1]}",
                f"pkt x{count}", "packet",
                departed - size / link.bandwidth, departed)
        if hop_idx == 0:
            flow.packets_injected += count
            if flow.packets_injected == flow.packets_total and flow.on_sent:
                self.engine.schedule_at(departed, flow.on_sent)
        if hop_idx + 1 == len(links):
            self.engine.schedule_at(arrived, self._segment_arrived, flow, count)
        else:
            self.engine.schedule_at(
                arrived, self._hop, flow, links, hop_idx + 1, size, count
            )


@st.composite
def sizes(draw, packet, train):
    """1, packet - 1, packet, k trains, or k trains plus a tail."""
    unit = packet * train
    k = draw(st.integers(1, 3))
    tail = draw(st.integers(1, unit - 1))
    return draw(st.sampled_from((1, packet - 1, packet, k * unit,
                                 k * unit + tail)))


@st.composite
def scenarios(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    npus = 8
    packet = draw(st.sampled_from((1000, 4096)))
    train = draw(st.sampled_from((1, 3, 16)))
    src = draw(st.integers(0, npus - 1))
    dest = draw(st.integers(0, npus - 1).filter(lambda n: n != src))
    messages = draw(st.lists(sizes(packet, train), min_size=1, max_size=4))
    competitor = draw(st.none() | st.tuples(
        st.integers(0, npus - 1).filter(lambda n: n not in (src, dest)),
        sizes(packet, train),
        st.sampled_from((0.0, 250.0, 2000.0))))
    return (topology, packet, train, src, dest, messages, competitor,
            draw(st.booleans()))


def _run(cls, scenario):
    (notation, bws, lats), packet, train, src, dest, messages, competitor, \
        traced = scenario
    engine = EventEngine()
    telemetry = (Telemetry(TelemetryConfig(trace_level=TraceLevel.PACKET))
                 if traced else None)
    net = cls(engine, parse_topology(notation, bws, latencies_ns=lats),
              packet_bytes=packet, train_packets=train, telemetry=telemetry)
    arrived, sent = [], []
    for tag, size in enumerate(messages):
        net.sim_recv(dest, src, size, tag=tag,
                     callback=lambda m, tag=tag: arrived.append(
                         (tag, engine.now)))
        net.sim_send(src, dest, size, tag=tag,
                     callback=lambda tag=tag: sent.append((tag, engine.now)))
    if competitor is not None:
        other, size, delay = competitor
        tag = len(messages)
        net.sim_recv(dest, other, size, tag=tag,
                     callback=lambda m: arrived.append((tag, engine.now)))
        engine.schedule(delay, net.sim_send, other, dest, size, tag,
                        lambda: sent.append((tag, engine.now)))
    engine.run()
    links = [(key, link.free_at, link.bytes_carried)
             for key, link in net._links.items()]
    spans = list(telemetry.spans.spans) if traced else None
    return (arrived, sent, links, net.packet_hops, engine.events_processed,
            engine.events_scheduled, spans)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_segment_plan_matches_per_segment_oracle(scenario):
    new = _run(GarnetLiteNetwork, scenario)
    assert len(new[0]) == len(scenario[5]) + (scenario[6] is not None)
    assert new == _run(SeedGarnetLite, scenario)
