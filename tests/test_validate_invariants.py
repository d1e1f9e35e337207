"""Unit tests for the runtime invariant checker (repro.validate pillar 1)."""

import json
import math

import pytest

from repro.core import SystemConfig, simulate
from repro.events import EventEngine, SimulationError
from repro.network import parse_topology
from repro.stats.export import result_to_dict
from repro.telemetry import Telemetry, TelemetryConfig
from repro.trace.node import CollectiveType
from repro.validate import (
    InvariantChecker,
    InvariantConfig,
    InvariantError,
    InvariantReport,
    InvariantViolation,
    expected_collective_traffic,
)

MiB = 1 << 20


def _simulate(payload=4 * MiB, invariants=None, telemetry=None,
              scheduler="themis"):
    from repro.workload.generators import generate_single_collective

    topo = parse_topology("Ring(2)_Switch(4)", [200.0, 50.0])
    traces = generate_single_collective(
        topo, CollectiveType.ALL_REDUCE, payload_bytes=payload)
    config = SystemConfig(topology=topo, scheduler=scheduler,
                          invariants=invariants, telemetry=telemetry)
    return simulate(traces, config)


class TestExpectedTraffic:
    def test_allreduce_telescopes(self):
        # 2p(1 - 1/G), independent of how the dims were ordered.
        assert expected_collective_traffic(
            CollectiveType.ALL_REDUCE, 1024.0, 8) == pytest.approx(
                2 * 1024 * (1 - 1 / 8))

    def test_reduce_scatter_and_allgather_match(self):
        rs = expected_collective_traffic(
            CollectiveType.REDUCE_SCATTER, 4096.0, 4)
        ag = expected_collective_traffic(
            CollectiveType.ALL_GATHER, 4096.0, 4)
        assert rs == ag == pytest.approx(4096 * (1 - 1 / 4))

    def test_trivial_group_is_free(self):
        assert expected_collective_traffic(
            CollectiveType.ALL_REDUCE, 1024.0, 1) == 0.0
        assert expected_collective_traffic(
            CollectiveType.ALL_REDUCE, 0.0, 8) == 0.0

    def test_alltoall_sums_active_dims(self):
        topo = parse_topology("Ring(4)_Switch(2)", [100.0, 50.0])
        specs = {i: d for i, d in enumerate(topo.dims)}
        total = expected_collective_traffic(
            CollectiveType.ALL_TO_ALL, 1024.0, 8,
            dim_specs=specs, active_dims=(0, 1))
        assert total > 0
        # Each dim contributes payload * fraction(block, size).
        one = expected_collective_traffic(
            CollectiveType.ALL_TO_ALL, 1024.0, 8,
            dim_specs=specs, active_dims=(0,))
        two = expected_collective_traffic(
            CollectiveType.ALL_TO_ALL, 1024.0, 8,
            dim_specs=specs, active_dims=(1,))
        assert total == pytest.approx(one + two)

    def test_unsupported_collective_rejected(self):
        with pytest.raises(ValueError):
            expected_collective_traffic("broadcast", 1024.0, 8)


class TestRecording:
    def test_record_appends_and_counts(self):
        inv = InvariantChecker()
        inv.record("events", "causality", "went backwards", time_ns=5.0,
                   scheduled=3.0)
        assert inv.violations_total == 1
        v = inv.violations[0]
        assert (v.layer, v.name) == ("events", "causality")
        assert dict(v.context) == {"scheduled": 3.0}

    def test_strict_raises(self):
        inv = InvariantChecker(InvariantConfig(strict=True))
        with pytest.raises(InvariantError, match="events/causality"):
            inv.record("events", "causality", "boom")

    def test_max_violations_bounds_memory_but_not_count(self):
        inv = InvariantChecker(InvariantConfig(max_violations=3))
        for i in range(10):
            inv.record("network", "leak", f"leak {i}")
        assert inv.violations_total == 10
        assert len(inv.violations) == 3

    def test_counts_by_name(self):
        report = InvariantReport(checks=5, violations_total=3, violations=[
            InvariantViolation("network", "leak", "a", 0.0),
            InvariantViolation("network", "leak", "b", 0.0),
            InvariantViolation("events", "causality", "c", 0.0),
        ])
        assert report.counts_by_name() == {
            "network/leak": 2, "events/causality": 1}
        assert not report.ok

    def test_report_to_dict_roundtrips_json(self):
        report = InvariantReport(checks=2, violations_total=1, violations=[
            InvariantViolation("memory", "conservation", "chunks", 7.0,
                               context=(("stages", 3),)),
        ])
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema_version"] == 1
        assert doc["checks"] == 2
        assert doc["ok"] is False
        assert doc["violations"][0]["context"] == {"stages": 3}


class _Port:
    """A port whose reservations run backwards: the bug the guard catches."""

    def reserve(self, now, duration):
        return now + duration, now


def _reserve(busy_ns, port=None):
    """One ``reserve_port`` on a checked analytical network."""
    from repro.network.analytical import AnalyticalNetwork

    inv = InvariantChecker()
    net = AnalyticalNetwork(EventEngine(), parse_topology("Ring(4)", [100.0]),
                            invariants=inv)
    if port is not None:
        net.port = lambda npu, dim: port
    net.reserve_port(0, 0, busy_ns)
    return inv


class TestHotHooks:
    """The guards the event kernel and ``reserve_port`` inline."""

    def test_event_time_nan_and_inf_caught(self):
        inv = InvariantChecker()
        engine = EventEngine(invariants=inv)
        engine.schedule(float("nan"), lambda: None)
        engine.schedule_at(math.inf, lambda: None)
        engine.schedule_many([(math.inf, lambda: None)])
        assert inv.violations_total == 3
        assert all(v.name == "finite_time" for v in inv.violations)

    def test_event_time_causality(self):
        inv = InvariantChecker()
        engine = EventEngine(invariants=inv)
        engine.schedule(10.0, lambda: None)
        engine.run()
        # The kernel refuses time travel itself, before the checker.
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)
        engine.schedule_at(10.0, lambda: None)  # equal is fine
        assert inv.violations_total == 0

    def test_reservation_backwards(self):
        inv = _reserve(5.0, port=_Port())
        assert [v.name for v in inv.violations] == ["causality"]

    def test_reservation_nonfinite(self):
        for busy_ns in (math.inf, float("nan")):
            inv = _reserve(busy_ns)
            assert [v.name for v in inv.violations] == ["finite_time"]

    def test_clean_reservation(self):
        assert _reserve(5.0).violations_total == 0


class TestSimulatorIntegration:
    def test_clean_run_has_zero_violations(self):
        result = _simulate(invariants=InvariantConfig())
        assert result.invariants is not None
        assert result.invariants.ok
        assert result.invariants.checks > 0

    def test_baseline_scheduler_also_clean(self):
        result = _simulate(invariants=InvariantConfig(), scheduler="baseline")
        assert result.invariants.ok
        # The chunked baseline path exercises far more hooks than the
        # fluid-limit themis path.
        assert result.invariants.checks > 50

    def test_disabled_run_has_no_report_and_identical_result(self):
        checked = _simulate(invariants=InvariantConfig())
        plain = _simulate()
        assert plain.invariants is None
        checked_doc = result_to_dict(checked)
        assert checked_doc.pop("invariants")["ok"] is True
        assert json.dumps(checked_doc, sort_keys=True) == json.dumps(
            result_to_dict(plain), sort_keys=True)

    def test_violations_surface_in_telemetry_registry(self):
        result = _simulate(invariants=InvariantConfig(),
                           telemetry=TelemetryConfig())
        assert result.telemetry.metric_value(
            "validate", "checks") == result.invariants.checks
        assert result.telemetry.metric_value("validate", "violations") == 0.0

    def test_finalize_exports_counters_to_metrics(self):
        telemetry = Telemetry(TelemetryConfig())
        inv = InvariantChecker()
        inv.checks = 4
        inv.record("network", "leak", "posted receives")
        report = inv.finalize(total_ns=100.0, telemetry=telemetry)
        assert report.violations_total == 1
        reg = telemetry.metrics
        assert reg.counter("validate", "checks").value == 4.0
        assert reg.counter("validate", "violations").value == 1.0
        assert reg.counter("validate", "violation", subsystem="network",
                           invariant="leak").value == 1.0
