"""Unit tests for the runtime fault injector and the checkpoint model."""

import math

import pytest

from repro.events import EventEngine
from repro.faults import (
    CheckpointConfig,
    FaultInjector,
    FaultSchedule,
    FaultSpecError,
    checkpoint_overhead_ns,
    num_checkpoints,
    optimal_interval_ns,
    restart_cost_ns,
)
from repro.faults.checkpoint import DEFAULT_RESTART_OVERHEAD_NS
from repro.memory.capacity import TransformerSpec, transformer_footprint
from repro.network import AnalyticalNetwork, parse_topology
from repro.workload import ParallelismSpec


def make_injector(spec_text, topo_text="Ring(8)_Switch(2)"):
    topology = parse_topology(topo_text, [100] * len(topo_text.split("_")))
    return FaultInjector(FaultSchedule.parse(spec_text), topology)


class TestTargetValidation:
    def test_npu_out_of_range(self):
        topology = parse_topology("Ring(4)", [100])
        with pytest.raises(FaultSpecError, match="npu 9"):
            FaultInjector(FaultSchedule.parse("fail@npu9@t=0"), topology)

    def test_dim_out_of_range(self):
        topology = parse_topology("Ring(4)", [100])
        with pytest.raises(FaultSpecError, match="dim 1"):
            FaultInjector(
                FaultSchedule.parse("degrade@dim1:0.5x@t=0"), topology)

    def test_valid_targets_accepted(self):
        topology = parse_topology("Ring(4)_Switch(2)", [100, 50])
        FaultInjector(
            FaultSchedule.parse(
                "fail@npu7@t=0; degrade@dim1:0.5x@t=0; linkdown@dim0:link3@t=0"),
            topology)


class TestActivationWindows:
    """A fault acts on ``[start, end)`` of its resource's timeline."""

    def test_straggler_active_only_in_window(self):
        injector = make_injector("straggler@npu3:2x@t=100@for=100")
        timeline = injector.compute_timeline(3)
        assert timeline.stretch(0.0, 50.0) == 50.0  # done before it starts
        assert timeline.stretch(100.0, 50.0) == 100.0  # inside: 2x
        assert timeline.stretch(200.0, 50.0) == 50.0  # cleared at 200
        assert injector.compute_timeline(4) is None

    def test_open_ended_fault_never_clears(self):
        injector = make_injector("degrade@dim0:0.5x@t=100")
        assert injector.port_timeline(0).stretch(1e9, 10.0) == 20.0

    def test_overlapping_faults_compose(self):
        injector = make_injector(
            "straggler@npu0:2x@t=0@for=1000; straggler@npu0:3x@t=0@for=1000")
        assert injector.compute_timeline(0).stretch(10.0, 10.0) == 60.0

    def test_linkdown_scale(self):
        injector = make_injector("linkdown@dim1:link2@t=0@for=500")
        assert injector.port_timeline(1, (2,)).stretch(10.0, 10.0) == 20.0
        assert injector.port_timeline(1, (3,)) is None
        assert injector.port_timeline(0, (2,)) is None

    def test_records_track_lifecycle(self):
        injector = make_injector("straggler@npu0:2x@t=100@for=50")
        (record,) = injector.report(total_ns=99.0).records
        assert record.activated_ns is None and not record.fired
        injector.report(total_ns=1000.0)
        assert record.activated_ns == 100
        assert record.cleared_ns == 150

    def test_failure_times_recorded(self):
        injector = make_injector("fail@npu1@t=250; fail@npu2@t=750")
        assert injector.report(total_ns=1000.0).num_failures == 2
        assert injector.report(total_ns=500.0).num_failures == 1


class TestStretchHooks:
    """Each resource integrates its work over its timeline."""

    def test_stretch_compute_charges_straggler(self):
        injector = make_injector("straggler@npu5:1.5x@t=0@for=1e6")
        assert injector.compute_timeline(5).stretch(10.0, 1000.0) == 1500.0
        assert injector.compute_timeline(6) is None
        (record,) = injector.records
        assert record.extra_ns == pytest.approx(500.0)

    def test_stretch_p2p_combines_straggler_and_link(self):
        injector = make_injector(
            "straggler@npu2:2x@t=0@for=1e6; linkdown@dim0:link2@t=0@for=1e6")
        # 2x slower sender through a half-bandwidth link: 4x injection time.
        timeline = injector.port_timeline(0, (2,))
        assert timeline.stretch(10.0, 100.0) == pytest.approx(400.0)
        # Even attribution split between the two contributing faults.
        extras = sorted(r.extra_ns for r in injector.records)
        assert extras == pytest.approx([150.0, 150.0])

    def test_stretch_collective_uses_worst_member(self):
        injector = make_injector(
            "straggler@npu1:1.2x@t=0@for=1e6; straggler@npu4:1.5x@t=0@for=1e6")
        assert injector.port_timeline(0, None).stretch(10.0, 1000.0) == \
            pytest.approx(1500.0)
        slow, fast = injector.records[1], injector.records[0]
        assert slow.extra_ns == pytest.approx(500.0) and fast.extra_ns == 0.0

    def test_stretch_collective_respects_membership(self):
        injector = make_injector("straggler@npu4:1.5x@t=0@for=1e6")
        # Straggler not in the group: the phase takes the fault-free path.
        assert injector.port_timeline(0, frozenset({0, 1, 2})) is None
        timeline = injector.port_timeline(0, frozenset({3, 4, 5}))
        assert timeline.stretch(10.0, 1000.0) == pytest.approx(1500.0)

    def test_stretch_collective_dim_degrade(self):
        injector = make_injector("degrade@dim1:0.5x@t=0@for=1e6")
        assert injector.port_timeline(1, None).stretch(10.0, 1000.0) == \
            pytest.approx(2000.0)
        assert injector.port_timeline(0, None) is None

    def test_serialization_time_scales_with_degrade(self):
        injector = make_injector("degrade@dim0:0.5x@t=0")
        topology = injector.topology
        network = AnalyticalNetwork(EventEngine(), topology, faults=injector)
        base = network.serialization_time(1000, 0)
        # A relay hop has no members: only its dimension's degrade acts.
        relay = network.faults.port_timeline(0, ())
        assert relay.stretch(10.0, base) == pytest.approx(2 * base)

    def test_straggler_times_link_within_a_collective(self):
        injector = make_injector(
            "straggler@npu2:2x@t=0; linkdown@dim0:link5:0.5x@t=0")
        # Worst member straggler over the weakest member link.
        timeline = injector.port_timeline(0, frozenset({2, 5}))
        assert timeline.stretch(0.0, 100.0) == pytest.approx(400.0)
        assert injector.port_timeline(0, frozenset({5})).stretch(
            0.0, 100.0) == pytest.approx(200.0)


class TestIntegration:
    """Work is priced by the time it spends inside each window."""

    def test_straddling_work_pays_only_its_overlap(self):
        injector = make_injector("straggler@npu0:2x@t=100@for=100")
        timeline = injector.compute_timeline(0)
        # 50 ns at full rate, then the rest at half rate until 200 ns.
        assert timeline.stretch(50.0, 100.0) == 150.0
        # 200 ns of work from t=0: 100 before, 50 inside (100 ns), 50 after.
        assert timeline.stretch(0.0, 200.0) == 250.0
        (record,) = injector.records
        assert record.extra_ns == pytest.approx(50.0 + 50.0)

    def test_constant_factor_is_exactly_busy_times_scale(self):
        injector = make_injector("degrade@dim0:0.3x@t=0")
        busy = 1234.5678
        assert injector.port_timeline(0, None).stretch(17.0, busy) == \
            busy * (1.0 / (1.0 * 0.3))

    def test_stall_is_a_zero_capacity_window(self):
        injector = make_injector("stall@npu0@t=100@for=50")
        timeline = injector.compute_timeline(0)
        # 20 ns before the stall, frozen for 50 ns, 20 ns after it.
        assert timeline.stretch(80.0, 40.0) == 90.0
        # Work started inside the stall waits for its end.
        assert timeline.stretch(120.0, 10.0) == 40.0
        assert timeline.stretch(150.0, 10.0) == 10.0
        (record,) = injector.records
        assert record.extra_ns == pytest.approx(50.0 + 30.0)

    def test_unit_factor_builds_no_timeline(self):
        injector = make_injector(
            "straggler@npu1:1.0x@t=0; degrade@dim0:1.0x@t=5; "
            "linkdown@dim1:link3:1.0x@t=0@for=9")
        assert injector.compute_timeline(1) is None
        assert injector.port_timeline(0, None) is None
        assert injector.port_timeline(1, None) is None

    def test_overlapping_segments_split_attribution(self):
        injector = make_injector(
            "degrade@dim0:0.5x@t=0@for=100; degrade@dim0:0.5x@t=50@for=100")
        timeline = injector.port_timeline(0, None)
        # [0,50) 2x, [50,100) 4x, [100,150) 2x, then full rate.
        assert timeline.stretch(0.0, 25.0 + 12.5 + 25.0 + 10.0) == \
            pytest.approx(160.0)
        first, second = (r.extra_ns for r in injector.records)
        assert first == pytest.approx(25.0 + 18.75)
        assert second == pytest.approx(18.75 + 25.0)


class TestReport:
    def test_report_counts_failures_and_restarts(self):
        injector = make_injector("fail@npu0@t=1e6")
        config = CheckpointConfig(interval_ns=1e5, snapshot_bytes=1e6,
                                  write_bandwidth_gbps=100.0,
                                  restart_overhead_ns=1e6)
        report = injector.report(total_ns=2e6, checkpoint=config)
        assert report.num_failures == 1
        assert report.num_checkpoints == 20
        assert report.checkpoint_overhead_ns == pytest.approx(20 * 1e4)
        # Failure at exactly a boundary: replay 0, overhead + reload only.
        assert report.restart_lost_ns == pytest.approx(1e6 + 1e4)

    def test_report_baseline_degradation(self):
        injector = make_injector("straggler@npu0:2x@t=0@for=1e6")
        report = injector.report(total_ns=1.5e6, baseline_ns=1.0e6)
        assert report.degradation_ns == pytest.approx(0.5e6)
        assert report.effective_total_ns == pytest.approx(1.5e6)

    def test_format_renders(self):
        injector = make_injector(
            "straggler@npu0:2x@t=0@for=100; fail@npu1@t=500")
        text = injector.report(total_ns=1000.0).format()
        assert "straggler" in text
        assert "fail" in text
        assert "permanent failure" in text

    def test_windows_follow_the_run_end(self):
        """A fault is active iff it starts by the run's end (a fault at t
        acts on work at t); its clearing shows iff it is by the end too."""
        injector = make_injector(
            "straggler@npu0:2x@t=100@for=900; straggler@npu1:2x@t=100@for=901;"
            " straggler@npu2:2x@t=1000; straggler@npu3:2x@t=1000.5")
        report = injector.report(total_ns=1000.0)
        windows = [(r.activated_ns, r.cleared_ns) for r in report.records]
        assert windows == [(100, 1000), (100, None), (1000, None),
                           (None, None)]
        text = report.format()
        assert "0.000 -> 0.001 ms" in text
        assert text.count("ms -> end") == 2
        assert "never fired" in text


class TestCheckpointModel:
    def test_snapshot_ns(self):
        config = CheckpointConfig(interval_ns=1e9, snapshot_bytes=2.5e9,
                                  write_bandwidth_gbps=25.0)
        assert config.snapshot_ns == pytest.approx(1e8)

    def test_num_checkpoints_and_overhead(self):
        config = CheckpointConfig(interval_ns=1e6, snapshot_bytes=100.0,
                                  write_bandwidth_gbps=1.0)
        assert num_checkpoints(config, 5.5e6) == 5
        assert checkpoint_overhead_ns(config, 5.5e6) == pytest.approx(500.0)
        assert num_checkpoints(config, 0.0) == 0

    def test_no_interval_means_no_checkpoints(self):
        config = CheckpointConfig(interval_ns=None)
        assert num_checkpoints(config, 1e9) == 0
        assert checkpoint_overhead_ns(config, 1e9) == 0.0

    def test_restart_cost_replays_since_last_checkpoint(self):
        config = CheckpointConfig(interval_ns=1e6, snapshot_bytes=1e3,
                                  write_bandwidth_gbps=1.0,
                                  restart_overhead_ns=5e5)
        # Failure at 3.25e6: last checkpoint at 3e6, replay 0.25e6.
        cost = restart_cost_ns(config, 3.25e6)
        assert cost == pytest.approx(5e5 + 1e3 + 0.25e6)

    def test_restart_cost_without_config_loses_prefix(self):
        assert restart_cost_ns(None, 7e6) == \
            pytest.approx(DEFAULT_RESTART_OVERHEAD_NS + 7e6)

    def test_restart_cost_without_interval_loses_prefix(self):
        config = CheckpointConfig(interval_ns=None, restart_overhead_ns=1e6)
        assert restart_cost_ns(config, 7e6) == pytest.approx(1e6 + 7e6)

    def test_restart_cost_rejects_negative_time(self):
        with pytest.raises(ValueError):
            restart_cost_ns(None, -1.0)

    def test_from_footprint_uses_model_state(self):
        model = TransformerSpec(name="toy", num_layers=12, hidden=2048,
                                seq_len=2048)
        footprint = transformer_footprint(model, ParallelismSpec(dp=8))
        config = CheckpointConfig.from_footprint(footprint, interval_ns=1e9)
        assert config.snapshot_bytes == float(footprint.model_state)
        assert config.snapshot_ns > 0

    def test_optimal_interval_is_youngs_formula(self):
        assert optimal_interval_ns(1e8, 1e12) == \
            pytest.approx(math.sqrt(2 * 1e8 * 1e12))
        with pytest.raises(ValueError):
            optimal_interval_ns(1e8, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval_ns=0.0)
        with pytest.raises(ValueError):
            CheckpointConfig(interval_ns=1.0, snapshot_bytes=-1.0)
        with pytest.raises(ValueError):
            CheckpointConfig(interval_ns=1.0, write_bandwidth_gbps=0.0)
