"""Unit tests for the adaptive granularity controller
(:class:`repro.network.adaptive.AdaptiveFlowNetwork`)."""

import math

import pytest

from repro.events import EventEngine
from repro.network import (
    AdaptiveFlowNetwork,
    FlowLevelNetwork,
    GarnetLiteNetwork,
    flowlevel,
    parse_topology,
)
from repro.system import SendRecvCollectiveExecutor
from repro.validate import InvariantChecker, InvariantConfig


def _net(threshold=1.0, hysteresis=1.0, packet=1024, notation="Ring(4)",
         bws=(100,), lats=(0,), invariants=False):
    checker = InvariantChecker(InvariantConfig()) if invariants else None
    engine = EventEngine(invariants=checker)
    topo = parse_topology(notation, list(bws), latencies_ns=list(lats))
    net = AdaptiveFlowNetwork(
        engine, topo, escalation_threshold=threshold,
        deescalation_hysteresis=hysteresis, escalation_packet_bytes=packet,
        invariants=checker)
    return engine, net, checker


def _collective(net_cls, notation, bws, lats, algorithm, payload, **kw):
    engine = EventEngine()
    topo = parse_topology(notation, list(bws), latencies_ns=list(lats))
    net = net_cls(engine, topo, **kw)
    executor = SendRecvCollectiveExecutor(engine, net)
    out = {}
    getattr(executor, f"run_{algorithm}")(
        list(range(topo.num_npus)), payload,
        on_complete=lambda t: out.update(t=t))
    engine.run()
    return out["t"], engine.events_processed, net


class TestControllerStateMachine:
    def test_uncontended_link_stays_fluid(self):
        engine, net, _ = _net(threshold=1.0)
        net.sim_recv(1, 0, 64 * 1024, callback=lambda m: None)
        net.sim_send(0, 1, 64 * 1024)
        engine.run()
        assert net.escalations == 0
        assert net.deescalations == 0
        assert engine.events_processed < 10

    def test_contended_link_escalates(self):
        engine, net, _ = _net(threshold=1.0, packet=1024)
        done = []
        for tag in (0, 1):
            net.sim_recv(1, 0, 16 * 1024, tag=tag,
                         callback=lambda m: done.append(engine.now))
            net.sim_send(0, 1, 16 * 1024, tag=tag)
        engine.run()
        assert net.escalations == 1
        assert len(done) == 2
        # Packet granularity: many more events than 2 fluid flows.
        # (Solves are no proxy: segment handoffs keep every rate.)
        assert engine.events_processed >= 16

    def test_deescalates_after_drain(self):
        engine, net, _ = _net(threshold=1.0, hysteresis=1.0)
        for tag in (0, 1):
            net.sim_recv(1, 0, 16 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 16 * 1024, tag=tag)
        engine.run()
        assert net.escalations >= 1
        assert net.deescalations == net.escalations
        # End of run: every link back in fluid mode.
        assert not net._packet_links
        for state in net._gran.values():
            assert state.mode == "fluid"

    def test_hysteresis_blocks_reescalation_churn(self):
        # threshold 2, hysteresis 2: de-escalate only when the link is
        # fully drained (n <= 0), so a 3->2 drain cannot oscillate.
        engine, net, _ = _net(threshold=2.0, hysteresis=2.0)
        for tag in range(3):
            net.sim_recv(1, 0, 8 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 8 * 1024, tag=tag)
        engine.run()
        assert net.escalations == 1
        assert net.deescalations == 1

    def test_threshold_zero_always_packet(self):
        engine, net, _ = _net(threshold=0.0, packet=1024)
        net.sim_recv(1, 0, 8 * 1024, callback=lambda m: None)
        net.sim_send(0, 1, 8 * 1024)
        engine.run()
        assert net.escalations == 1
        # threshold - hysteresis < 0: the link legitimately never
        # de-escalates (pure-packet work-alike).
        assert net.deescalations == 0

    def test_threshold_inf_never_escalates(self):
        engine, net, _ = _net(threshold=math.inf)
        for tag in range(8):
            net.sim_recv(1, 0, 64 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 64 * 1024, tag=tag)
        engine.run()
        assert net.escalations == 0
        assert net._gran == {}

    def test_messages_joining_escalated_route_start_as_packets(self):
        engine, net, _ = _net(threshold=1.0, packet=1024)
        for tag in (0, 1):
            net.sim_recv(1, 0, 64 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 64 * 1024, tag=tag)
        # Join mid-flight, after the link has escalated.
        engine.run(until=5.0)
        assert net.escalations == 1
        before = net.escalated_messages
        net.sim_recv(1, 0, 4 * 1024, tag=9, callback=lambda m: None)
        net.sim_send(0, 1, 4 * 1024, tag=9)
        engine.run()
        assert net.escalated_messages > before

    def test_invalid_parameters_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100.0])
        with pytest.raises(ValueError):
            AdaptiveFlowNetwork(engine, topo, escalation_threshold=-1.0)
        with pytest.raises(ValueError):
            AdaptiveFlowNetwork(engine, topo,
                                escalation_threshold=float("nan"))
        with pytest.raises(ValueError):
            AdaptiveFlowNetwork(engine, topo,
                                deescalation_hysteresis=float("inf"))
        with pytest.raises(ValueError):
            AdaptiveFlowNetwork(engine, topo, escalation_packet_bytes=0)


class TestSegmentHandoff:
    def test_one_flow_per_message_and_per_escalation(self, monkeypatch):
        """An escalated message steps through its segments in place.

        Two 16 KiB messages on one Ring(4) link at threshold 1 with 1 KiB
        packets: two fluid flows, then one segmented flow per escalation
        handoff, and none per segment (a flow per segment made 34).  One
        1-layer Mixtral EP=8 point on Ring(8) at threshold 4 builds 896
        flows this way, against 57,792 with a flow per segment.
        """
        built = []
        init = flowlevel._Flow.__init__

        def counted(flow, *args, **kwargs):
            built.append(flow)
            init(flow, *args, **kwargs)

        monkeypatch.setattr(flowlevel._Flow, "__init__", counted)
        engine, net, _ = _net(threshold=1.0, packet=1024)
        for tag in (0, 1):
            net.sim_send(0, 1, 16 * 1024, tag=tag)
        engine.run()
        assert (net.messages_delivered, net.escalations, net.handoffs) \
            == (2, 1, 2)
        assert len(built) == 4


class TestIdentityAndParity:
    def test_threshold_inf_bit_identical_to_fluid(self):
        t_f, e_f, _ = _collective(
            FlowLevelNetwork, "Ring(8)", (100,), (100,), "alltoall",
            1 << 20)
        t_a, e_a, net = _collective(
            AdaptiveFlowNetwork, "Ring(8)", (100,), (100,), "alltoall",
            1 << 20, escalation_threshold=math.inf)
        assert t_a == t_f
        assert e_a == e_f
        assert net.escalations == 0

    def test_threshold_zero_matches_garnet_on_neighbor_ring(self):
        # Neighbor-ring steps have no extra store-and-forward links, so
        # the sub-flow model must land exactly on garnet-lite.
        t_g, e_g, _ = _collective(
            GarnetLiteNetwork, "Ring(4)", (150,), (50,), "ring_allreduce",
            64 * 1024)
        t_a, e_a, net = _collective(
            AdaptiveFlowNetwork, "Ring(4)", (150,), (50,), "ring_allreduce",
            64 * 1024, escalation_threshold=0.0)
        assert t_a == pytest.approx(t_g, rel=1e-9)
        assert e_a < e_g
        assert net.escalations > 0

    def test_contended_time_within_packet_band_at_fewer_events(self):
        t_g, e_g, _ = _collective(
            GarnetLiteNetwork, "Ring(8)", (100,), (100,), "alltoall",
            2 << 20)
        t_a, e_a, net = _collective(
            AdaptiveFlowNetwork, "Ring(8)", (100,), (100,), "alltoall",
            2 << 20, escalation_threshold=1.0)
        assert abs(t_a - t_g) / t_g <= 0.02
        assert e_a * 3 <= e_g
        assert net.escalations > 0


class TestByteConservation:
    """Satellite: the granularity-handoff byte-conservation invariant."""

    def test_clean_contended_run_attributes_every_byte(self):
        engine, net, checker = _net(threshold=1.0, invariants=True)
        payload = 64 * 1024
        for tag in range(4):
            net.sim_recv(1, 0, payload, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, payload, tag=tag)
        engine.run()
        report = checker.finalize(engine.now, engine=engine, network=net)
        assert report.ok, report.to_dict()
        assert net.handoffs > 0
        total = net.fluid_bytes + net.escalated_bytes
        assert total == pytest.approx(net.bytes_delivered, rel=1e-6)

    def test_escalate_deescalate_cycle_conserves(self):
        engine, net, checker = _net(threshold=1.0, hysteresis=1.0,
                                    invariants=True)
        # Staggered sizes force a mid-flight escalation, a drain, a
        # de-escalation, and a second wave re-escalation.
        for tag, size in enumerate((96 * 1024, 32 * 1024, 64 * 1024)):
            net.sim_recv(1, 0, size, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, size, tag=tag)
        engine.run()
        report = checker.finalize(engine.now, engine=engine, network=net)
        assert report.ok, report.to_dict()
        assert net.escalations >= 1 and net.deescalations >= 1
        total = net.fluid_bytes + net.escalated_bytes
        assert total == pytest.approx(net.bytes_delivered, rel=1e-6)

    def test_dropped_handoff_bytes_flagged(self):
        """A controller that loses in-flight bytes at the switch must be
        caught by check_granularity_handoff and the finalize sweep."""
        engine, net, checker = _net(threshold=1.0, invariants=True)

        original = net._segments
        net._segments = lambda size: original(size * 0.5)  # drop half

        for tag in (0, 1):
            net.sim_recv(1, 0, 64 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 64 * 1024, tag=tag)
        engine.run()
        report = checker.finalize(engine.now, engine=engine, network=net)
        assert not report.ok
        assert any(v.name == "conservation" for v in report.violations)

    def test_finalize_flags_missed_deescalation(self):
        engine, net, checker = _net(threshold=1.0, hysteresis=1.0,
                                    invariants=True)
        net._deescalate = lambda link, state: None  # controller bug

        for tag in (0, 1):
            net.sim_recv(1, 0, 32 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 32 * 1024, tag=tag)
        engine.run()
        report = checker.finalize(engine.now, engine=engine, network=net)
        assert any(v.name == "leak" and "escalated" in v.message
                   for v in report.violations)


def _symmetric_traces(topo, payload=1 << 20):
    """Per-rank replicas of one All-Reduce (fold-eligible workload)."""
    import copy

    from repro.trace.graph import ExecutionTrace
    from repro.trace.node import CollectiveType, ETNode, NodeType

    base = [ETNode(0, NodeType.COMM_COLLECTIVE, name="sync",
                   tensor_bytes=payload,
                   collective=CollectiveType.ALL_REDUCE)]
    return {rank: ExecutionTrace(rank, [copy.deepcopy(n) for n in base])
            for rank in range(topo.num_npus)}


class TestTelemetry:
    def test_escalation_counters_and_residency(self):
        from repro.core.config import SystemConfig
        from repro.core.simulator import simulate
        from repro.telemetry.config import TelemetryConfig

        topo = parse_topology("Ring(8)", [100.0], latencies_ns=[100.0])
        config = SystemConfig(
            topology=topo, granularity="adaptive",
            escalation_threshold=1.0, packet_bytes=4096,
            telemetry=TelemetryConfig())
        result = simulate(_symmetric_traces(topo), config)
        metrics = result.telemetry.metrics
        assert metrics.value("network", "escalations") >= 0
        assert metrics.get("network", "granularity_handoffs") is not None
        assert metrics.get("network", "fluid_bytes") is not None
        assert metrics.get("network", "escalated_bytes") is not None
        residency = [
            entry for entry in metrics.to_list()
            if entry["layer"] == "network"
            and entry["name"].startswith("granularity_residency_ns")
        ]
        if metrics.value("network", "escalations") > 0:
            assert residency


class TestFoldingInteraction:
    def test_adaptive_granularity_disables_folding(self):
        from repro.core.config import SystemConfig
        from repro.core.simulator import Simulator

        topo = parse_topology("Ring(8)", [100.0], latencies_ns=[100.0])
        config = SystemConfig(topology=topo, granularity="adaptive")
        sim = Simulator(_symmetric_traces(topo), config)
        assert not sim.folding.active
        assert (sim.folding.report.reason
                == "adaptive granularity observes per-link contention")

    def test_fluid_granularity_keeps_folding(self):
        from repro.core.config import SystemConfig
        from repro.core.simulator import Simulator

        topo = parse_topology("Ring(8)", [100.0], latencies_ns=[100.0])
        config = SystemConfig(topology=topo, granularity="fluid")
        sim = Simulator(_symmetric_traces(topo), config)
        assert sim.folding.active


class TestConfigWiring:
    def test_backend_alias_pairs(self):
        # All 16 (network_backend, granularity) pairs: the alias resolves
        # into network_backend, which alone picks the backend class.
        from repro.core import Simulator
        from repro.core.config import SystemConfig
        from repro.network import AnalyticalNetwork
        from repro.trace import CollectiveType
        from repro.workload import generate_single_collective

        builds = {
            ("analytical", ""): AnalyticalNetwork,
            ("analytical", "fluid"): FlowLevelNetwork,
            ("analytical", "packet"): GarnetLiteNetwork,
            ("analytical", "adaptive"): AdaptiveFlowNetwork,
            ("flow", ""): FlowLevelNetwork,
            ("flow", "fluid"): FlowLevelNetwork,
            ("flow", "adaptive"): AdaptiveFlowNetwork,
            ("garnet", ""): GarnetLiteNetwork,
            ("garnet", "packet"): GarnetLiteNetwork,
            ("adaptive", ""): AdaptiveFlowNetwork,
            ("adaptive", "adaptive"): AdaptiveFlowNetwork,
        }
        topo = parse_topology("Ring(4)", [100.0])
        traces = generate_single_collective(
            topo, CollectiveType.ALL_REDUCE, 1 << 16)
        names = {AnalyticalNetwork: "analytical", FlowLevelNetwork: "flow",
                 GarnetLiteNetwork: "garnet",
                 AdaptiveFlowNetwork: "adaptive"}
        rejected = 0
        for backend in ("analytical", "flow", "garnet", "adaptive"):
            for granularity in ("", "fluid", "packet", "adaptive"):
                pair = (backend, granularity)
                if pair not in builds:
                    with pytest.raises(ValueError) as exc_info:
                        SystemConfig(topology=topo, network_backend=backend,
                                     granularity=granularity)
                    assert (f"granularity {granularity!r} conflicts with "
                            f"network_backend {backend!r}"
                            in str(exc_info.value)), pair
                    rejected += 1
                    continue
                config = SystemConfig(topology=topo, network_backend=backend,
                                      granularity=granularity)
                cls = builds[pair]
                assert config.network_backend == names[cls], pair
                assert type(Simulator(traces, config).network) is cls, pair
        assert rejected == 5

    def test_conflicting_granularity_backend_rejected(self):
        from repro.core.config import SystemConfig

        topo = parse_topology("Ring(4)", [100.0])
        with pytest.raises(ValueError):
            SystemConfig(topology=topo, granularity="adaptive",
                         network_backend="garnet")
        with pytest.raises(ValueError):
            SystemConfig(topology=topo, granularity="packet",
                         network_backend="flow")
        with pytest.raises(ValueError):
            SystemConfig(topology=topo, escalation_threshold=-2.0)
        with pytest.raises(ValueError):
            SystemConfig(topology=topo,
                         deescalation_hysteresis=float("inf"))

    def test_cli_adaptive_run(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--topology", "Ring(8)", "--bandwidths", "100",
            "--workload", "allreduce", "--payload-mib", "1",
            "--granularity", "adaptive", "--escalation-threshold", "1",
            "--deescalation-hysteresis", "1",
        ])
        assert code == 0
        assert "total    :" in capsys.readouterr().out
