"""Unit and integration tests for the repro.telemetry subsystem."""

import json
from dataclasses import replace

import pytest

import repro
from repro.events import EventEngine
from repro.memory.inswitch import InSwitchCollectiveMemory
from repro.memory.pools import MultiLevelSwitchPool
from repro.memory.remote import HierarchicalRemoteMemory, HierMemConfig
from repro.memory.zero_infinity import ZeroInfinityConfig, ZeroInfinityMemory
from repro.telemetry import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    TelemetryConfig,
    TelemetryError,
    TimeSeries,
    TimeWeightedHistogram,
    TraceLevel,
    WallClockProfiler,
    dump_metrics_json,
    load_metrics_json,
)
from repro.trace.graph import ExecutionTrace
from repro.trace.node import ETNode, NodeType, TensorLocation
from repro.validate import InvariantConfig


def _run(telemetry=None, topology="Ring(4)_Switch(2)", bandwidths=(200, 50),
         payload=1 << 24, **config_kwargs):
    topo = repro.parse_topology(topology, list(bandwidths))
    traces = repro.generate_single_collective(
        topo, repro.CollectiveType.ALL_REDUCE, payload)
    config = repro.SystemConfig(topology=topo, telemetry=telemetry,
                                **config_kwargs)
    return repro.simulate(traces, config)


class TestTraceLevel:
    def test_parse_valid_names(self):
        assert TraceLevel.parse("off") is TraceLevel.OFF
        assert TraceLevel.parse("  Chunk ") is TraceLevel.CHUNK
        assert TraceLevel.parse("PACKET") is TraceLevel.PACKET

    def test_parse_invalid_name_lists_choices(self):
        with pytest.raises(TelemetryError) as exc_info:
            TraceLevel.parse("verbose")
        message = str(exc_info.value)
        assert "'verbose'" in message
        for name in ("off", "phase", "collective", "chunk", "packet"):
            assert name in message

    def test_levels_are_ordered(self):
        assert TraceLevel.OFF < TraceLevel.PHASE < TraceLevel.COLLECTIVE
        assert TraceLevel.COLLECTIVE < TraceLevel.CHUNK < TraceLevel.PACKET


class TestTelemetryConfig:
    def test_defaults_valid(self):
        config = TelemetryConfig()
        assert config.trace_level is TraceLevel.PHASE

    @pytest.mark.parametrize("kwargs", [
        {"trace_level": "chunk"},
        {"sample_interval_ns": -1.0},
        {"samples_per_doubling": 0},
        {"max_series_samples": 1},
        {"max_spans": -1},
        {"max_link_metrics": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(TelemetryError):
            TelemetryConfig(**kwargs)


class TestMetricPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.to_payload() == {"type": "counter", "value": 3.5}

    def test_gauge_series(self):
        gauge = Gauge()
        gauge.sample(0.0, 1.0)
        gauge.sample(10.0, 4.0)
        gauge.set(7.0)
        assert gauge.value == 7.0
        payload = gauge.to_payload()
        assert payload["series"]["t_ns"] == [0.0, 10.0]
        assert payload["series"]["value"] == [1.0, 4.0]

    def test_series_decimation_preserves_horizon(self):
        series = TimeSeries(max_samples=8)
        for i in range(100):
            series.append(float(i), float(i))
        assert len(series) <= 8
        assert series.times[0] == 0.0
        assert series.times[-1] >= 90.0  # still covers the tail
        assert series.decimations > 0

    def test_time_weighted_histogram_mean(self):
        hist = TimeWeightedHistogram()
        hist.update(0.0, 10.0)   # 10 held for 100 ns
        hist.update(100.0, 2.0)  # 2 held for 300 ns
        hist.close(400.0)
        assert hist.mean == pytest.approx((10 * 100 + 2 * 300) / 400)
        assert hist.min == 2.0
        assert hist.max == 10.0
        assert hist.observations == 2

    def test_registry_keying_and_lookup(self):
        registry = MetricsRegistry()
        a = registry.counter("network", "bytes", dim=0)
        b = registry.counter("network", "bytes", dim=1)
        assert a is not b
        assert registry.counter("network", "bytes", dim=0) is a
        a.inc(5)
        assert registry.value("network", "bytes", dim=0) == 5.0
        assert registry.value("network", "bytes", dim=9) == 0.0
        assert registry.get("network", "missing") is None

    def test_registry_to_list_is_sorted_and_labeled(self):
        registry = MetricsRegistry()
        registry.counter("system", "z").inc()
        registry.counter("events", "a").inc()
        registry.gauge("network", "depth", link="x").set(2.0)
        entries = registry.to_list()
        assert [e["layer"] for e in entries] == ["events", "network", "system"]
        link_entry = entries[1]
        assert link_entry["labels"] == {"link": "x"}
        assert link_entry["type"] == "gauge"


class TestSpanRecorder:
    def test_add_and_summary(self):
        recorder = SpanRecorder()
        recorder.add("track-a", "op", "chunk", 0.0, 5.0)
        recorder.add("track-b", "op2", "collective", 5.0, 9.0, {"k": 1})
        recorder.flow("track-a", 5.0, "track-b", 5.0)
        summary = recorder.summary()
        assert summary == {"count": 2, "flows": 1, "dropped": 0,
                           "by_category": {"chunk": 1, "collective": 1}}
        assert recorder.tracks() == ["track-a", "track-b"]

    def test_backwards_span_rejected(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            recorder.add("t", "bad", "chunk", 10.0, 5.0)

    def test_cap_counts_dropped(self):
        recorder = SpanRecorder(max_spans=2)
        for i in range(5):
            recorder.add("t", f"s{i}", "chunk", float(i), float(i + 1))
        assert len(recorder.spans) == 2
        assert recorder.dropped == 3
        assert recorder.summary()["dropped"] == 3


class TestWallClockProfiler:
    def test_sections_accumulate(self):
        profiler = WallClockProfiler()
        with profiler.section("work"):
            pass
        with profiler.section("work"):
            pass
        profiler.record("other", 0.5)
        data = profiler.to_dict()
        assert data["work"]["calls"] == 2
        assert data["work"]["wall_s"] >= 0.0
        assert data["other"] == {"wall_s": 0.5, "calls": 1}


class TestSampler:
    def test_sampler_never_keeps_queue_alive(self):
        """With telemetry on, the engine drains exactly like without it."""
        result = _run(TelemetryConfig(sample_interval_ns=10.0))
        baseline = _run(None)
        assert result.total_time_ns == baseline.total_time_ns

    def test_adaptive_doubling_bounds_samples(self):
        telemetry = TelemetryConfig(sample_interval_ns=1.0,
                                    samples_per_doubling=4)
        result = _run(telemetry)
        series = result.telemetry.metrics.gauge("events", "heap_size").series
        # A fixed 1 ns cadence over a ~127 us horizon would take >100k
        # samples; doubling every 4 keeps it logarithmic.
        assert 0 < len(series) < 200

    def test_sampling_disabled_with_zero_interval(self):
        result = _run(TelemetryConfig(sample_interval_ns=0.0))
        series = result.telemetry.metrics.gauge("events", "heap_size").series
        assert len(series) == 0


class TestZeroCostContract:
    def test_result_identical_with_and_without_telemetry(self):
        baseline = _run(None)
        for level in (TraceLevel.OFF, TraceLevel.PHASE, TraceLevel.CHUNK):
            result = _run(TelemetryConfig(trace_level=level))
            assert result.total_time_ns == baseline.total_time_ns
            assert result.nodes_executed == baseline.nodes_executed
            assert [c.finish_ns for c in result.collectives] == [
                c.finish_ns for c in baseline.collectives]

    def test_no_config_installs_nothing(self):
        topo = repro.parse_topology("Ring(4)", [100])
        traces = repro.generate_single_collective(
            topo, repro.CollectiveType.ALL_REDUCE, 1 << 20)
        sim = repro.Simulator(traces, repro.SystemConfig(topology=topo))
        assert sim.telemetry is None
        assert not hasattr(sim.engine, "telemetry")
        assert sim.network.telemetry is None
        assert sim.execution.telemetry is None
        assert sim.run().telemetry is None


class TestTraceLevelGating:
    def test_off_records_metrics_but_no_spans(self):
        result = _run(TelemetryConfig(trace_level=TraceLevel.OFF))
        report = result.telemetry
        assert report.metric_value("system", "collectives_completed") == 1.0
        assert report.spans.summary()["count"] == 0

    def test_level_monotonically_adds_spans(self):
        counts = {}
        for level in (TraceLevel.PHASE, TraceLevel.COLLECTIVE,
                      TraceLevel.CHUNK):
            result = _run(TelemetryConfig(trace_level=level))
            counts[level] = result.telemetry.spans.summary()["count"]
        assert counts[TraceLevel.PHASE] < counts[TraceLevel.COLLECTIVE]
        assert counts[TraceLevel.COLLECTIVE] < counts[TraceLevel.CHUNK]

    def test_chunk_spans_live_on_port_tracks(self):
        result = _run(TelemetryConfig(trace_level=TraceLevel.CHUNK))
        tracks = result.telemetry.spans.tracks()
        assert any(track.startswith("port npu") for track in tracks)
        assert "collectives" in tracks


class TestDifferentialTraffic:
    """Acceptance criterion: telemetry per-dim byte counters must equal
    the analytical backend's per-collective traffic records exactly."""

    @pytest.mark.parametrize("scheduler", ["baseline", "themis"])
    @pytest.mark.parametrize("topology,bandwidths", [
        ("Ring(4)_Switch(2)", (200, 50)),
        ("Ring(2)_FC(4)_Switch(2)", (250, 100, 50)),
    ])
    def test_dim_counters_match_collective_records(self, scheduler,
                                                   topology, bandwidths):
        result = _run(TelemetryConfig(trace_level=TraceLevel.COLLECTIVE),
                      topology=topology, bandwidths=bandwidths,
                      scheduler=scheduler, collective_chunks=8)
        report = result.telemetry
        by_dim = {}
        for record in result.collectives:
            for dim, traffic in record.traffic_by_dim.items():
                by_dim[dim] = by_dim.get(dim, 0.0) + traffic
        for dim, expected in by_dim.items():
            counted = report.metric_value("network", "dim_traffic_bytes",
                                          dim=dim)
            assert counted == pytest.approx(expected, rel=1e-12)

    def test_counter_totals_match_backend_bytes_delivered(self):
        topo = repro.parse_topology("Ring(8)", [100])
        model_traces = {}
        from repro.workload.models import TransformerSpec
        from repro.workload import ParallelismSpec, generate_pipeline_parallel
        model = TransformerSpec("t", num_layers=4, hidden=64, seq_len=32)
        model_traces = generate_pipeline_parallel(
            model, topo, ParallelismSpec(pp=8, dp=1), microbatches=2)
        config = repro.SystemConfig(
            topology=topo, telemetry=TelemetryConfig())
        result = repro.simulate(model_traces, config)
        report = result.telemetry
        assert report.metric_value("network", "messages_delivered") > 0
        assert report.metric_value("network", "bytes_delivered") > 0


class TestBackendMetrics:
    def _p2p_traces(self, topo):
        from repro.workload.models import TransformerSpec
        from repro.workload import ParallelismSpec, generate_pipeline_parallel
        model = TransformerSpec("t", num_layers=4, hidden=64, seq_len=32)
        return generate_pipeline_parallel(
            model, topo, ParallelismSpec(pp=8, dp=1), microbatches=2)

    def test_analytical_port_metrics(self):
        result = _run(TelemetryConfig())
        report = result.telemetry
        assert report.metric_value("network", "ports_total") > 0
        entries = [e for e in report.metrics.to_list()
                   if e["name"] == "port_busy_ns"]
        assert entries and all(e["value"] > 0 for e in entries)
        utils = [e for e in report.metrics.to_list()
                 if e["name"] == "port_utilization"]
        assert utils and all(0.0 < e["value"] <= 1.0 for e in utils)

    def test_garnet_link_metrics_and_packet_spans(self):
        topo = repro.parse_topology("Ring(8)", [100])
        config = repro.SystemConfig(
            topology=topo, network_backend="garnet",
            telemetry=TelemetryConfig(trace_level=TraceLevel.PACKET))
        result = repro.simulate(self._p2p_traces(topo), config)
        report = result.telemetry
        assert report.metric_value("network", "packet_hops") > 0
        link_bytes = [e for e in report.metrics.to_list()
                      if e["name"] == "link_bytes"]
        assert link_bytes
        assert report.spans.by_category().get("packet", 0) > 0

    def test_flow_solver_metrics(self):
        topo = repro.parse_topology("Ring(8)", [100])
        config = repro.SystemConfig(
            topology=topo, network_backend="flow",
            telemetry=TelemetryConfig(trace_level=TraceLevel.CHUNK))
        result = repro.simulate(self._p2p_traces(topo), config)
        report = result.telemetry
        assert report.metric_value("network", "solver_iterations") > 0
        assert report.spans.by_category().get("flow", 0) > 0

    def test_link_metric_cap_exports_drop_count(self):
        topo = repro.parse_topology("Ring(8)", [100])
        config = repro.SystemConfig(
            topology=topo, network_backend="garnet",
            telemetry=TelemetryConfig(max_link_metrics=2))
        result = repro.simulate(self._p2p_traces(topo), config)
        report = result.telemetry
        kept = [e for e in report.metrics.to_list()
                if e["name"] == "link_bytes"]
        assert len(kept) == 2
        assert report.metric_value("network", "links_dropped") > 0


def _remote_io_traces(*accesses):
    """One NPU running a chain of remote (size_bytes, is_store) accesses."""
    nodes = [
        ETNode(i, NodeType.MEMORY_STORE if is_store else NodeType.MEMORY_LOAD,
               name=f"io{i}", tensor_bytes=size, deps=(i - 1,) if i else (),
               location=TensorLocation.REMOTE)
        for i, (size, is_store) in enumerate(accesses)
    ]
    return {0: ExecutionTrace(0, nodes)}


_HIERMEM_COUNTERS = (
    # 64 MiB per GPU over 256 groups x 16 out-switches: 4 MiB per link,
    # i.e. four 1 MiB chunks down every link.
    ("hiermem_transfers", {}, 1.0),
    ("hiermem_pipeline_beats", {}, 4.0),
    ("hiermem_max_pipeline_depth", {}, 4.0),
)


class TestMemoryMetrics:
    @pytest.mark.parametrize("model, accesses, expected", [
        pytest.param(
            ZeroInfinityMemory(ZeroInfinityConfig()),
            ((1 << 20, False), (1 << 10, True)),
            (("zero_infinity_offload_bytes", {"direction": "load"},
              float(1 << 20)),
             ("zero_infinity_accesses", {"direction": "store"}, 1.0)),
            id="zero-infinity"),
        pytest.param(
            HierarchicalRemoteMemory(HierMemConfig()),
            ((1 << 26, False),), _HIERMEM_COUNTERS, id="hiermem"),
        pytest.param(
            # A zero-byte access costs the request latency but moves no
            # chunk, so it records no transfer.
            HierarchicalRemoteMemory(HierMemConfig()),
            ((0, False), (1 << 26, False)), _HIERMEM_COUNTERS,
            id="hiermem-zero-byte"),
        pytest.param(
            MultiLevelSwitchPool(HierMemConfig()),
            ((1 << 26, False),),
            (("pool_transfers", {"design": "MultiLevelSwitchPool"}, 1.0),),
            id="multi-level-switch-pool"),
    ])
    def test_model_counters_through_simulate(self, model, accesses,
                                             expected):
        topo = repro.parse_topology("Ring(4)", [100])
        config = repro.SystemConfig(topology=topo, remote_memory=model,
                                    telemetry=TelemetryConfig())
        report = repro.simulate(_remote_io_traces(*accesses),
                                config).telemetry
        for name, labels, value in expected:
            assert report.metric_value("memory", name, **labels) == value

    def test_inswitch_model_records_no_hiermem_counters(self):
        # It shares the hiermem chunk pipeline, not its telemetry.
        topo = repro.parse_topology("Ring(4)", [100])
        config = repro.SystemConfig(
            topology=topo,
            remote_memory=InSwitchCollectiveMemory(HierMemConfig()),
            telemetry=TelemetryConfig())
        report = repro.simulate(_remote_io_traces((1 << 26, False)),
                                config).telemetry
        names = json.dumps(report.to_dict(include_profile=False))
        assert report.metric_value("memory", "accesses",
                                   location="remote") == 1.0
        assert "hiermem_" not in names

    def test_simulate_never_mutates_memory_models(self):
        from repro.workload import generate_moe, moe_1t
        topo = repro.parse_topology("Ring(4)_Switch(2)", [200, 50])
        remote = HierarchicalRemoteMemory(HierMemConfig())
        pristine = dict(vars(remote))
        plain = repro.SystemConfig(topology=topo, remote_memory=remote)
        traces = generate_moe(moe_1t(), topo, remote_parameters=True)

        checked = repro.Simulator(
            traces, replace(plain, invariants=InvariantConfig()))
        assert checked.run().invariants.checks > 0
        assert vars(remote) == pristine
        checks = checked.invariants.checks
        repro.simulate(traces, plain)
        assert checked.invariants.checks == checks

        # In-switch traces without a fabric model raise mid-run, before
        # telemetry finalizes; the shared model must still be untouched.
        inswitch = generate_moe(moe_1t(), topo, remote_parameters=True,
                                inswitch_collectives=True)
        with pytest.raises(ValueError, match="fabric_collectives"):
            repro.simulate(inswitch,
                           replace(plain, telemetry=TelemetryConfig()))
        assert vars(remote) == pristine

    def test_engine_memory_hooks_count_accesses(self):
        from repro.workload import generate_moe, moe_1t
        topo = repro.parse_topology("Ring(4)_Switch(2)", [200, 50])
        traces = generate_moe(moe_1t(), topo, remote_parameters=True)
        config = repro.SystemConfig(
            topology=topo,
            remote_memory=HierarchicalRemoteMemory(HierMemConfig()),
            telemetry=TelemetryConfig())
        result = repro.simulate(traces, config)
        report = result.telemetry
        assert report.metric_value(
            "memory", "accesses", location="remote") > 0
        assert report.metric_value(
            "memory", "bytes", location="remote") > 0


class TestFinalize:
    def test_finalize_twice_rejected(self):
        telemetry = Telemetry(TelemetryConfig())
        engine = EventEngine()
        telemetry.install(engine)
        telemetry.finalize(0.0)
        with pytest.raises(RuntimeError):
            telemetry.finalize(0.0)

    def test_engine_counters_swept(self):
        result = _run(TelemetryConfig())
        report = result.telemetry
        assert report.metric_value("events", "events_processed") == float(
            result.events_processed)
        assert report.metric_value("events", "events_scheduled") >= (
            report.metric_value("events", "events_processed"))

    def test_breakdown_swept_into_gauges(self):
        result = _run(TelemetryConfig())
        report = result.telemetry
        comm = report.metric_value("system", "exposed_ns", activity="comm")
        assert comm == pytest.approx(result.breakdown.exposed_comm_ns)


class TestMetricsJson:
    def _report(self):
        return _run(TelemetryConfig(trace_level=TraceLevel.CHUNK)).telemetry

    def test_schema_version_and_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "metrics.json"
        dump_metrics_json(report, path)
        loaded = load_metrics_json(path)
        assert loaded["schema_version"] == METRICS_SCHEMA_VERSION
        assert loaded["trace_level"] == "chunk"
        assert loaded["spans"]["count"] == report.spans.summary()["count"]
        assert loaded["metrics"] == report.metrics.to_list()
        assert "profile" in loaded and "run" in loaded["profile"]

    def test_result_dict_embeds_telemetry_without_profile(self):
        from repro.stats.export import result_to_dict
        result = _run(TelemetryConfig())
        doc = result_to_dict(result)
        assert doc["telemetry"]["schema_version"] == METRICS_SCHEMA_VERSION
        assert "profile" not in doc["telemetry"]
        json.dumps(doc)  # JSON-serializable end to end

    def test_metric_value_helper(self):
        report = self._report()
        assert report.metric_value("system", "collectives_completed") == 1.0
        assert report.metric_value("system", "nope") == 0.0


class TestCollectiveFlows:
    def test_dependent_collectives_get_flow_arrows(self):
        from repro.workload import generate_data_parallel, gpt3_175b
        topo = repro.parse_topology("Ring(8)", [100])
        traces = generate_data_parallel(gpt3_175b(), topo)
        config = repro.SystemConfig(
            topology=topo,
            telemetry=TelemetryConfig(trace_level=TraceLevel.COLLECTIVE))
        result = repro.simulate(traces, config)
        report = result.telemetry
        assert len(result.collectives) > 1
        # Same communicator reused -> comm-order arrows between successive
        # collectives on it.
        assert report.spans.summary()["flows"] >= 1
        assert all(flow[5] == "comm-order" for flow in report.spans.flows)

    def test_members_recorded_on_collective_records(self):
        result = _run(TelemetryConfig())
        record = result.collectives[0]
        assert record.members == (0,)  # single-trace representative run
