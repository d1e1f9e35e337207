"""Unit tests for the packet-level Garnet-lite backend."""

import pytest

from repro.events import EventEngine
from repro.network import (
    AnalyticalNetwork,
    GarnetLiteNetwork,
    make_network,
    parse_topology,
)


def _net(notation="Ring(4)_Ring(4)", bws=(100, 100), lats=(100, 100), packet=1024):
    engine = EventEngine()
    topo = parse_topology(notation, list(bws), latencies_ns=list(lats))
    return engine, GarnetLiteNetwork(engine, topo, packet_bytes=packet)


class TestRouting:
    def test_dimension_order_route_on_torus(self):
        engine, net = _net()
        # 0 -> 5: coords (0,0) -> (1,1): dim0 first then dim1.
        assert net.route(0, 5) == [0, 1, 5]

    def test_ring_takes_shortest_direction(self):
        engine, net = _net("Ring(8)", (100,), (100,))
        assert net.route(0, 7) == [0, 7]
        assert net.route(0, 2) == [0, 1, 2]

    def test_switch_route_via_fabric_node(self):
        engine, net = _net("Switch(4)", (100,), (100,))
        path = net.route(0, 3)
        assert len(path) == 3
        assert path[0] == 0 and path[-1] == 3
        assert path[1][0] == "sw"

    def test_fc_is_direct(self):
        engine, net = _net("FC(6)", (100,), (100,))
        assert net.route(1, 4) == [1, 4]


class TestLinkGraph:
    def test_bad_packet_size_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100])
        with pytest.raises(ValueError):
            GarnetLiteNetwork(engine, topo, packet_bytes=0)


class TestTransfer:
    def test_matches_analytical_on_unloaded_single_hop(self):
        size = 8192
        engine_a = EventEngine()
        topo = parse_topology("Ring(4)", [100], latencies_ns=[100])
        analytical = AnalyticalNetwork(engine_a, topo)
        t_analytical = analytical.transfer_time(0, 1, size)

        engine_g, garnet = _net("Ring(4)", (100,), (100,), packet=8192)
        done = []
        garnet.sim_recv(1, 0, size, callback=lambda m: done.append(engine_g.now))
        garnet.sim_send(0, 1, size)
        engine_g.run()
        assert done[0] == pytest.approx(t_analytical)

    def test_packet_pipelining_beats_store_and_forward(self):
        # Over 2 hops, many small packets pipeline: faster than 2x full
        # serialization, slower than 1x.
        size = 64 * 1024
        engine, net = _net("Ring(8)", (100,), (0,), packet=1024)
        done = []
        net.sim_recv(2, 0, size, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 2, size)
        engine.run()
        one_serialization = size / 100
        assert one_serialization < done[0] < 2 * one_serialization

    def test_congestion_two_flows_share_a_link(self):
        # Flows 0->1 and 0->1 (same link) take twice as long as one flow.
        size = 10240
        engine, net = _net("Ring(4)", (100,), (0,), packet=1024)
        done = []
        net.sim_recv(1, 0, size, tag=0, callback=lambda m: done.append(engine.now))
        net.sim_recv(1, 0, size, tag=1, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, size, tag=0)
        net.sim_send(0, 1, size, tag=1)
        engine.run()
        assert max(done) == pytest.approx(2 * size / 100, rel=0.05)

    def test_cross_traffic_on_disjoint_links_is_parallel(self):
        size = 10240
        engine, net = _net("Ring(4)", (100,), (0,), packet=1024)
        done = []
        net.sim_recv(1, 0, size, callback=lambda m: done.append(engine.now))
        net.sim_recv(3, 2, size, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, size)
        net.sim_send(2, 3, size)
        engine.run()
        assert max(done) == pytest.approx(size / 100, rel=0.05)

    def test_packet_hop_count_grows_with_distance(self):
        engine, net = _net("Ring(8)", (100,), (0,), packet=1024)
        net.sim_recv(3, 0, 4096, callback=lambda m: None)
        net.sim_send(0, 3, 4096)
        engine.run()
        assert net.packet_hops == 4 * 3  # 4 packets x 3 hops

    def test_on_sent_fires_after_first_link_serialization(self):
        engine, net = _net("Ring(8)", (100,), (0,), packet=1024)
        sent = []
        net.sim_send(0, 2, 4096, callback=lambda: sent.append(engine.now))
        engine.run()
        assert sent[0] == pytest.approx(4096 / 100)

    def test_max_link_bytes_tracks_heaviest_link(self):
        engine, net = _net("Ring(4)", (100,), (0,), packet=1024)
        net.sim_recv(1, 0, 2048, callback=lambda m: None)
        net.sim_send(0, 1, 2048)
        engine.run()
        assert max(link.bytes_carried for link in net._links.values()) == 2048


class TestZeroByteMessage:
    """A 0 B message is one 1-byte packet, not a full packet."""

    def _arrival(self, backend, size):
        engine = EventEngine()
        topo = parse_topology("Ring(8)", [50], latencies_ns=[500])
        net = make_network(backend, engine, topo)
        done = []
        net.sim_recv(1, 0, size, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, size)
        engine.run()
        return done[0], net

    @pytest.mark.parametrize("backend",
                             ["analytical", "flow", "garnet", "adaptive"])
    def test_zero_bytes_never_arrive_after_one_byte(self, backend):
        assert self._arrival(backend, 0)[0] <= self._arrival(backend, 1)[0]

    def test_zero_bytes_arrive_with_flow(self):
        arrived, net = self._arrival("garnet", 0)
        assert arrived == self._arrival("flow", 0)[0]
        assert arrived < self._arrival("garnet", 4096)[0]
        assert [link.bytes_carried for link in net._links.values()] == [1]
        assert net.packet_hops == 1


class TestPacketTrains:
    """Opt-in coalescing: train_packets > 1 trades granularity for events."""

    def _trained(self, train, **kw):
        engine = EventEngine()
        topo = parse_topology("Ring(8)", [100.0], latencies_ns=[100.0])
        return engine, GarnetLiteNetwork(
            engine, topo, packet_bytes=1024, train_packets=train, **kw)

    def test_default_train_of_one_is_exact(self):
        engine, net = self._trained(1)
        assert net.train_packets == 1

    def test_trains_cut_event_count(self):
        times, events = {}, {}
        for train in (1, 4):
            engine, net = self._trained(train)
            done = []
            net.sim_recv(2, 0, 64 * 1024, callback=lambda m: done.append(engine.now))
            net.sim_send(0, 2, 64 * 1024)
            engine.run()
            times[train], events[train] = done[0], engine.events_processed
        # ~4x fewer events, completion within one train per hop.
        assert events[4] <= events[1] / 3
        assert times[4] == pytest.approx(times[1], rel=0.2)

    def test_train_preserves_packet_hop_accounting(self):
        engine, net = self._trained(4)
        net.sim_recv(3, 0, 4096, callback=lambda m: None)
        net.sim_send(0, 3, 4096)
        engine.run()
        assert net.packet_hops == 4 * 3  # 4 packets x 3 hops, 1 train event each

    def test_uneven_tail_train_carries_remainder(self):
        engine, net = self._trained(4)
        done = []
        net.sim_recv(1, 0, 5 * 1024, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, 5 * 1024)  # one full train + one single-packet tail
        engine.run()
        assert done and net.packet_hops == 5

    def test_invalid_train_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100.0])
        with pytest.raises(ValueError):
            GarnetLiteNetwork(engine, topo, train_packets=0)


class TestLinkPathCache:
    def test_repeated_pairs_resolve_once(self):
        engine, net = _net("Ring(8)", (100,), (0,))
        for tag in range(3):
            net.sim_recv(3, 0, 2048, tag=tag, callback=lambda m: None)
            net.sim_send(0, 3, 2048, tag=tag)
        engine.run()
        assert list(net._links._paths) == [(0, 3)]
        assert net._links.path(0, 3) is net._links._paths[(0, 3)]
        assert len(net._links.path(0, 3)) == 3
