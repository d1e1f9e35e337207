"""Unit tests for the flow-level (max-min fair) network backend."""

import json

import pytest

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.network.flowlevel import FlowLevelNetwork
from repro.system import SendRecvCollectiveExecutor


def _net(notation="Ring(4)", bws=(100,), lats=(0,)):
    engine = EventEngine()
    topo = parse_topology(notation, list(bws), latencies_ns=list(lats))
    return engine, FlowLevelNetwork(engine, topo)


class TestSingleFlow:
    def test_full_rate_and_latency(self):
        engine, net = _net(lats=(100,))
        done = []
        net.sim_recv(1, 0, 10_000, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, 10_000)
        engine.run()
        assert done == [pytest.approx(10_000 / 100 + 100)]

    def test_on_sent_fires_at_serialization_end(self):
        engine, net = _net(lats=(100,))
        sent = []
        net.sim_send(0, 1, 10_000, callback=lambda: sent.append(engine.now))
        engine.run()
        assert sent == [pytest.approx(100.0)]

    def test_multihop_latency_accumulates(self):
        engine, net = _net("Ring(8)", (100,), (50,))
        done = []
        net.sim_recv(3, 0, 1000, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 3, 1000)
        engine.run()
        # 3 hops x 50 ns latency; fluid serialization happens once.
        assert done == [pytest.approx(1000 / 100 + 150)]


class TestFairSharing:
    def test_two_flows_share_a_link_equally(self):
        engine, net = _net()
        done = []
        for tag in range(2):
            net.sim_recv(1, 0, 10_000, tag=tag,
                         callback=lambda m: done.append(engine.now))
            net.sim_send(0, 1, 10_000, tag=tag)
        engine.run()
        # Each runs at 50 GB/s throughout: both end at 200 ns.
        assert done == [pytest.approx(200.0), pytest.approx(200.0)]

    def test_late_joiner_slows_then_releases(self):
        engine, net = _net()
        done = {}
        net.sim_recv(1, 0, 10_000, tag=0, callback=lambda m: done.update(a=engine.now))
        net.sim_send(0, 1, 10_000, tag=0)
        # Second flow joins halfway through the first.

        def join():
            net.sim_recv(1, 0, 10_000, tag=1,
                         callback=lambda m: done.update(b=engine.now))
            net.sim_send(0, 1, 10_000, tag=1)

        engine.schedule(50.0, join)
        engine.run()
        # Flow A: 5000 bytes at 100, then shares at 50: 50 + 5000/50 = 150.
        assert done["a"] == pytest.approx(150.0)
        # Flow B: 5000 left when A finishes; 100 ns shared + 50 at full rate.
        assert done["b"] == pytest.approx(200.0)

    def test_max_min_gives_unbottlenecked_flow_the_residue(self):
        # Flows: X crosses links L01 and L12; Y crosses only L01... use a
        # ring: X: 0->2 (links 0-1, 1-2), Y: 0->1 (link 0-1), Z: 1->2.
        engine, net = _net("Ring(8)", (100,), (0,))
        done = {}
        net.sim_recv(2, 0, 10_000, tag=0, callback=lambda m: done.update(x=engine.now))
        net.sim_send(0, 2, 10_000, tag=0)
        net.sim_recv(1, 0, 10_000, tag=1, callback=lambda m: done.update(y=engine.now))
        net.sim_send(0, 1, 10_000, tag=1)
        net.sim_recv(2, 1, 10_000, tag=2, callback=lambda m: done.update(z=engine.now))
        net.sim_send(1, 2, 10_000, tag=2)
        engine.run()
        # Both links carry two flows -> everyone gets 50 GB/s initially.
        # X is bottlenecked on both; Y and Z speed to 100 once X/partner
        # finish.  All complete, fairness preserved.
        assert set(done) == {"x", "y", "z"}
        assert done["x"] >= done["y"] - 1e-6
        assert done["x"] >= done["z"] - 1e-6

    def test_disjoint_flows_run_at_line_rate(self):
        engine, net = _net()
        done = []
        net.sim_recv(1, 0, 10_000, callback=lambda m: done.append(engine.now))
        net.sim_recv(3, 2, 10_000, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, 10_000)
        net.sim_send(2, 3, 10_000)
        engine.run()
        assert done == [pytest.approx(100.0), pytest.approx(100.0)]


class TestCollectivesOnFlows:
    def test_ring_allreduce_matches_analytical(self):
        """Neighbor-only ring traffic never shares links: the flow model
        reduces to the closed form."""
        payload = 1 << 20
        times = {}
        for cls in (AnalyticalNetwork, FlowLevelNetwork):
            engine = EventEngine()
            topo = parse_topology("Ring(4)", [150], latencies_ns=[100])
            net = cls(engine, topo)
            executor = SendRecvCollectiveExecutor(engine, net)
            out = {}
            executor.run_ring_allreduce([0, 1, 2, 3], payload,
                                        on_complete=lambda t: out.update(t=t))
            engine.run()
            times[cls.__name__] = out["t"]
        assert times["FlowLevelNetwork"] == pytest.approx(
            times["AnalyticalNetwork"], rel=1e-9)

    def test_events_scale_with_rate_changes_not_packets(self):
        engine, net = _net()
        net.sim_recv(1, 0, 1 << 24, callback=lambda m: None)
        net.sim_send(0, 1, 1 << 24)
        engine.run()
        # One flow: a couple of events regardless of the 16 MiB size.
        assert engine.events_processed < 10


class TestValidation:
    def test_send_to_self_rejected(self):
        engine, net = _net()
        with pytest.raises(ValueError):
            net.sim_send(2, 2, 100)

    def test_active_flow_accounting(self):
        engine, net = _net()
        net.sim_send(0, 1, 1000)
        assert net.active_flows == 1
        engine.run()
        assert net.active_flows == 0


class TestPureFluidContract:
    """The base backend is pure fluid: escalation moved to the runtime
    controller in ``repro.network.adaptive`` (see
    tests/test_network_adaptive.py for the controller suite)."""

    def test_no_static_escalation_params(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100.0])
        with pytest.raises(TypeError):
            FlowLevelNetwork(engine, topo, escalation_threshold=1)

    def test_never_escalates(self):
        engine, net = _net()
        for tag in (0, 1, 2):
            net.sim_recv(1, 0, 64 * 1024, tag=tag, callback=lambda m: None)
            net.sim_send(0, 1, 64 * 1024, tag=tag)
        engine.run()
        assert net.granularity_escalations == 0


class TestKernelCounterPins:
    """Characterization: a flow-backend run solves max-min once per
    instant and re-plans its single pending completion event there, so
    its telemetry pins how the event kernel counts fired events,
    cancellations and compactions, and how often the solver runs.  The
    telemetry sampler's firings are scheduled but not processed events,
    so ``events_processed`` is the uninstrumented run's."""

    SOLVES = {"alltoall": 3, "allreduce": 28}
    SCHEDULED = {"alltoall": 76, "allreduce": 154}

    @pytest.mark.parametrize("workload, processed, cancels", [
        ("alltoall", 59, 0),
        ("allreduce", 127, 0),
    ])
    def test_ring8_flow_event_counters(self, tmp_path, capsys, monkeypatch,
                                       workload, processed, cancels):
        from repro.cli import main

        instants = []
        reallocate = FlowLevelNetwork._reallocate

        def recorded(net):
            instants.append(net.engine.now)
            reallocate(net)

        monkeypatch.setattr(FlowLevelNetwork, "_reallocate", recorded)
        path = tmp_path / "metrics.json"
        assert main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                     "--workload", workload, "--payload-mib", "1",
                     "--backend", "flow", "--trace-level", "collective",
                     "--metrics-out", str(path)]) == 0
        assert f"(1 nodes, {processed} events)" in capsys.readouterr().out
        metrics = json.loads(path.read_text())["metrics"]
        counters = {m["name"]: m["value"] for m in metrics
                    if m["layer"] == "events" and m["type"] == "counter"}
        assert counters == {
            "events_processed": processed,
            "events_scheduled": self.SCHEDULED[workload],
            "cancels": cancels,
            "compactions": 0,
        }
        solves = next(m["value"] for m in metrics
                      if (m["layer"], m["name"])
                      == ("network", "solver_iterations"))
        assert solves == len(instants) == self.SOLVES[workload]
        # One solve per instant: no instant solves twice.
        assert len(set(instants)) == len(instants)
