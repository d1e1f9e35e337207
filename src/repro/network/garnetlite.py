"""Garnet-lite: a packet-level, cycle-driven network backend.

This is the detailed (and deliberately slow) reference backend standing in
for gem5's Garnet in the paper's speedup study (Sec. IV-C).  Messages are
segmented into fixed-size packets; every packet is routed hop-by-hop with
dimension-order routing through an explicit link graph, with
store-and-forward serialization and per-link contention.  Every packet hop
is one simulator event — exactly the per-packet cost that makes
cycle-level network simulation three orders of magnitude slower than the
analytical backend.

A send splits its message once into full trains and at most one shorter
tail (a 0-byte message is one 1-byte packet).  Every segment-hop is one
call of the shared :meth:`GarnetLiteNetwork._hop` step, serialized by
:meth:`_Link.transmit`: hop 0 is called at send time, every later hop is
an event that step schedules.

Unlike :class:`~repro.network.analytical.AnalyticalNetwork`, this backend
models link oversubscription and congestion, so it doubles as a ground
truth for the analytical model's accuracy on congestion-free collective
traffic.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.events import EventEngine
from repro.network.api import Message, NetworkBackend
from repro.network.linkgraph import (
    LazyLinkGraph,
    NodeId,
    dimension_order_route,
)
from repro.network.topology import MultiDimTopology

DEFAULT_PACKET_BYTES = 4096


class _Link:
    """A directed link: serializing resource with latency."""

    __slots__ = ("bandwidth", "latency_ns", "free_at", "bytes_carried", "key")

    def __init__(self, bandwidth_gbps: float, latency_ns: float) -> None:
        self.bandwidth = bandwidth_gbps  # GB/s == bytes/ns
        self.latency_ns = latency_ns
        self.free_at = 0.0
        self.bytes_carried = 0
        self.key: Tuple[NodeId, NodeId] = ((), ())  # set by _build_links

    def transmit(self, now: float, size_bytes: int) -> Tuple[float, float]:
        """Serialize a packet; returns (departure_complete, arrival)."""
        free_at = self.free_at
        done = (free_at if free_at > now else now) + size_bytes / self.bandwidth
        self.free_at = done
        self.bytes_carried += size_bytes
        return done, done + self.latency_ns


class _PacketFlow:
    """Book-keeping for one message's packets in flight."""

    __slots__ = ("message", "on_sent", "packets_total", "packets_arrived",
                 "packets_injected")

    def __init__(self, message: Message, on_sent: Optional[Callable[[], None]],
                 packets_total: int) -> None:
        self.message = message
        self.on_sent = on_sent
        self.packets_total = packets_total
        self.packets_arrived = 0
        self.packets_injected = 0


class GarnetLiteNetwork(NetworkBackend):
    """Packet-level backend with per-link contention.

    Args:
        engine: The shared event engine.
        topology: Physical topology; links are derived per building block
            (ring: two directed neighbor links at half the dim bandwidth
            each; fully-connected: k-1 links at bw/(k-1); switch: one
            uplink/downlink pair at full dim bandwidth through a fabric
            node with zero internal serialization).
        packet_bytes: Packet segmentation size.
        train_packets: Packets coalesced per simulator event (a packet
            *train*).  At the default of 1 every packet hop is its own
            event — the exact reference behaviour.  Larger values trade
            granularity for speed: a train serializes as one burst, so
            from the second hop on, interleaving with competing traffic
            is resolved at train rather than packet granularity (event
            count drops by ~the train length; per-message completion
            times shift by at most one train's serialization per hop).
            The first hop interleaves nothing at any train length:
            ``_transmit`` calls the shared ``_hop`` step for hop 0 of
            every segment at send time, so a source's messages leave it
            whole, in send order.
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: MultiDimTopology,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        train_packets: int = 1,
        **instruments,
    ) -> None:
        super().__init__(engine, topology, **instruments)
        if packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
        if train_packets < 1:
            raise ValueError(f"train_packets must be >= 1, got {train_packets}")
        self.packet_bytes = packet_bytes
        self.train_packets = train_packets
        # Links materialize on first touch (LazyLinkGraph), so topology
        # size costs nothing until a route actually crosses a link; each
        # (src, dst) route resolves to its links once (LazyLinkGraph.path).
        self._links = LazyLinkGraph(
            topology, lambda bw, lat: _Link(bw, lat),
            on_create=lambda key, link: setattr(link, "key", key))
        self.packet_hops = 0
        telemetry = self.telemetry  # packet spans are on or off per run
        self._packet_spans = (telemetry.spans if telemetry is not None
                              and telemetry.packet_spans else None)

    def route(self, src: int, dst: int) -> List[NodeId]:
        """Dimension-order route from src to dst (inclusive of endpoints)."""
        return dimension_order_route(self.topology, src, dst)

    # -- transmission ------------------------------------------------------------

    def _transmit(self, message: Message, on_sent: Optional[Callable[[], None]]) -> None:
        """Plan the message's segments once and send each over hop 0 now."""
        links = self._links.path(message.src, message.dest)
        packet = self.packet_bytes
        train = self.train_packets
        unit = packet * train
        full, tail = divmod(message.size_bytes, unit)
        tail_packets = -(-tail // packet)
        flow = _PacketFlow(message, on_sent, full * train + tail_packets or 1)
        hop = self._hop
        for _ in range(full):
            hop(flow, links, 0, unit, train)
        if tail or not full:
            hop(flow, links, 0, tail or 1, tail_packets or 1)

    def _hop(self, flow: _PacketFlow, links: Tuple[_Link, ...], hop_idx: int,
             size: int, count: int) -> None:
        """Advance one segment (``count`` packets) across ``links[hop_idx]``."""
        link = links[hop_idx]
        engine = self.engine
        departed, arrived = link.transmit(engine.now, size)
        self.packet_hops += count
        spans = self._packet_spans
        if spans is not None:
            # One span per segment-hop on the link's own track: the
            # serialization window just reserved on the link.
            spans.add(f"link {link.key[0]}->{link.key[1]}", f"pkt x{count}",
                      "packet", departed - size / link.bandwidth, departed)
        if hop_idx == 0:
            flow.packets_injected += count
            if flow.packets_injected == flow.packets_total and flow.on_sent:
                engine.schedule_at(departed, flow.on_sent)
        hop_idx += 1
        if hop_idx == len(links):
            engine.schedule_at(arrived, self._segment_arrived, flow, count)
        else:
            engine.schedule_at(arrived, self._hop, flow, links, hop_idx,
                               size, count)

    def _segment_arrived(self, flow: _PacketFlow, count: int) -> None:
        flow.packets_arrived += count
        if self.invariants is not None:
            self.invariants.check_packet_flow(flow, self.engine.now)
        if flow.packets_arrived == flow.packets_total:
            self._deliver(flow.message)

    # -- telemetry and invariants ------------------------------------------------

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Sample router-queue pressure: per-link serialization backlog."""
        super().telemetry_sample(telemetry, now)
        deepest = 0.0
        queued = 0
        for link in self._links.values():
            backlog = link.free_at - now
            if backlog > 0:
                queued += 1
                if backlog > deepest:
                    deepest = backlog
        metrics = telemetry.metrics
        metrics.gauge("network", "max_link_backlog_ns").sample(now, deepest)
        metrics.gauge("network", "busy_links").sample(now, queued)

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        """Per-link bytes and utilisation (heaviest links first) + hops."""
        super().telemetry_finalize(telemetry, total_ns)
        metrics = telemetry.metrics
        metrics.counter("network", "packet_hops").value = float(
            self.packet_hops)
        links = sorted(self._links.values(), key=lambda l: -l.bytes_carried)
        cap = telemetry.config.max_link_metrics
        for link in links[:cap]:
            label = f"{link.key[0]}->{link.key[1]}"
            metrics.counter("network", "link_bytes",
                            link=label).value = float(link.bytes_carried)
            if total_ns > 0:
                metrics.gauge("network", "link_utilization", link=label).set(
                    min(1.0, link.bytes_carried / link.bandwidth / total_ns))
        total = self._links.total_count()
        metrics.counter("network", "links_total").value = float(total)
        metrics.counter("network", "links_dropped").value = float(
            max(0, total - min(cap, len(links))))

    def invariants_finalize(self, checker, total_ns: float) -> None:
        """No link serialized more traffic than its busy span holds."""
        super().invariants_finalize(checker, total_ns)
        for key, link in self._links.items():
            checker.checks += 1
            serialized = link.bytes_carried / link.bandwidth
            if (link.bytes_carried < 0 or not math.isfinite(link.free_at)
                    or serialized > link.free_at + 1e-6):
                checker.record(
                    "network", "capacity",
                    f"link {key!r} serialized {serialized:.6g} ns of "
                    f"traffic in a [0, {link.free_at:.6g}] ns busy span",
                    time_ns=total_ns, bytes_carried=link.bytes_carried,
                    free_at=link.free_at)
