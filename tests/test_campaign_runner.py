"""Unit tests for the campaign runner (serial path, errors, cache)."""

import argparse

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignError,
    PointConfigError,
    RunCache,
    SweepSpec,
    canonical_json,
    normalize_point,
    run_point,
)

SMALL_BASE = {
    "topology": "Ring(4)", "bandwidths": "100",
    "workload": "allreduce", "payload_mib": 1,
}


def echo_executor(point):
    """Trivial executor: the 'simulation' result is the payload value."""
    return {"total_time_ns": float(point["payload_mib"]) * 10.0}


def failing_executor(point):
    if point["payload_mib"] >= 2:
        raise RuntimeError("boom at %s" % point["payload_mib"])
    return {"total_time_ns": 1.0}


class TestNormalization:
    def test_string_and_native_values_normalize_identically(self):
        from_cli = normalize_point(dict(SMALL_BASE, payload_mib="64",
                                        chunks="8"))
        from_api = normalize_point(dict(SMALL_BASE, payload_mib=64,
                                        chunks=8))
        assert from_cli == from_api
        assert from_cli["payload_mib"] == 64.0
        assert from_cli["chunks"] == 8

    def test_defaults_track_the_cli_parser(self):
        resolved = normalize_point(SMALL_BASE)
        assert resolved["scheduler"] == "themis"
        assert resolved["chunks"] == 16
        assert resolved["memory_model"] == "local"

    def test_unknown_field_rejected(self):
        with pytest.raises(PointConfigError, match="unknown sweep field"):
            normalize_point(dict(SMALL_BASE, no_such_flag=1))

    def test_topology_and_bandwidths_required(self):
        with pytest.raises(PointConfigError, match="topology"):
            normalize_point({"workload": "allreduce"})

    def test_uninterpretable_value_rejected(self):
        with pytest.raises(PointConfigError, match="chunks"):
            normalize_point(dict(SMALL_BASE, chunks="many"))

    def test_normalized_point_is_pinned(self):
        # The normalized point is the run-cache key and the merged
        # document's config: a drifted default or type changes both.
        assert canonical_json(normalize_point(SMALL_BASE)) == (
            '{"backend":"analytical","bandwidths":"100","batch":0,'
            '"check_invariants":false,"checkpoint_gib":16.0,'
            '"checkpoint_interval_ms":0.0,"chunks":16,'
            '"deescalation_hysteresis":1.0,"dp":0,"ep":0,'
            '"escalation_threshold":4.0,"fabric_bw_gbps":256.0,'
            '"fault_seed":null,"faults":null,"granularity":"",'
            '"group_bw_gbps":100.0,"hbm_gbps":2039.0,"inswitch":false,'
            '"latencies":"","memory_model":"local","microbatches":4,'
            '"model":"","model_json":"","mp":0,"packet_bytes":0,'
            '"payload_mib":1.0,"peak_tflops":234.0,"pp":0,'
            '"remote_path_gbps":100.0,"scheduler":"themis","seq_len":0,'
            '"topology":"Ring(4)","trace_level":"off","train_packets":1,'
            '"workload":"allreduce"}')
        assert len(normalize_point(SMALL_BASE)) == 35

    def test_run_point_leaves_frontend_point_unchanged(self):
        point = {"topology": "Ring(4)", "bandwidths": "100",
                 "model": "llama3-8b", "seq_len": 256}
        before = dict(point)
        run_point(point)
        assert point == before
        resolved = normalize_point(point)
        run_point(resolved)
        assert resolved["workload"] == "allreduce"

    def test_run_point_builds_no_argument_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        run_point(SMALL_BASE)
        with pytest.raises(PointConfigError):
            run_point(dict(SMALL_BASE, scheduler="nope"))
        assert built == []


class TestSerialExecution:
    def test_results_merge_in_spec_order(self):
        spec = SweepSpec(base=SMALL_BASE,
                         grid={"payload_mib": [3, 1, 2]})
        campaign = CampaignRunner(jobs=0, executor=echo_executor).run(spec)
        assert [p["index"] for p in campaign.points] == [0, 1, 2]
        assert [r["total_time_ns"] for r in campaign.results] == [
            30.0, 10.0, 20.0]
        assert campaign.errors == []

    def test_telemetry_counters(self):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 2]})
        campaign = CampaignRunner(jobs=0, executor=echo_executor).run(spec)
        counters = {m["name"]: m["value"]
                    for m in campaign.telemetry.to_list()}
        assert counters["points_total"] == 2
        assert counters["points_executed"] == 2
        assert counters.get("points_failed", 0) == 0

    def test_default_executor_matches_cli_run(self):
        from repro.cli import build_parser
        from repro.campaign import run_point
        from repro.runsim import simulate_from_args
        from repro.stats import result_to_dict

        args = build_parser().parse_args([
            "run", "--topology", "Ring(4)", "--bandwidths", "100",
            "--workload", "allreduce", "--payload-mib", "1"])
        _topology, result, _resilience = simulate_from_args(args)
        assert run_point(SMALL_BASE) == result_to_dict(result)

    def test_default_executor_flags_bad_config(self):
        with pytest.raises(PointConfigError):
            from repro.campaign import run_point

            run_point(dict(SMALL_BASE, scheduler="nope"))


class TestErrorRecords:
    def test_failed_point_becomes_structured_record(self):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 2]})
        campaign = CampaignRunner(jobs=0, executor=failing_executor).run(spec)
        ok, bad = campaign.points
        assert ok["error"] is None
        assert bad["result"] is None
        assert bad["error"]["type"] == "RuntimeError"
        assert "boom at 2" in bad["error"]["message"]
        assert "RuntimeError" in bad["error"]["traceback"]
        assert bad["config"]["payload_mib"] == 2
        counters = {m["name"]: m["value"]
                    for m in campaign.telemetry.to_list()}
        assert counters["points_failed"] == 1

    def test_fail_fast_serial_aborts(self):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [2, 1]})
        runner = CampaignRunner(jobs=0, executor=failing_executor,
                                fail_fast=True)
        with pytest.raises(CampaignError, match="point 0 failed"):
            runner.run(spec)

    def test_fail_fast_pool_aborts(self):
        # the default executor is importable in spawn workers; a missing
        # topology/bandwidths pair fails inside normalize-free pool path
        spec = SweepSpec(base=SMALL_BASE,
                         grid={"scheduler": ["nope", "baseline"]})
        runner = CampaignRunner(jobs=1, fail_fast=True)
        with pytest.raises(CampaignError, match="failed"):
            runner.run(spec)


class TestExecutorResolution:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignRunner(jobs=-1)


class TestStreaming:
    def test_stream_yields_records_in_spec_order(self):
        spec = SweepSpec(base=SMALL_BASE,
                         grid={"payload_mib": [3, 1, 2]})
        stream = CampaignRunner(jobs=0, executor=echo_executor).stream(spec)
        records = []
        while True:
            try:
                records.append(next(stream))
            except StopIteration as stop:
                result = stop.value
                break
        assert [r["index"] for r in records] == [0, 1, 2]
        # the generator's return value is the full merged result
        assert result.points == records
        assert [r["total_time_ns"] for r in result.results] == [
            30.0, 10.0, 20.0]

    def test_invalid_point_raises_at_the_call(self):
        # Validation happens before the generator exists, so a caller
        # can reject a bad spec before committing to stream anything.
        spec = SweepSpec(base=SMALL_BASE, grid={"no_such_field": [1, 2]})
        with pytest.raises(PointConfigError, match="no_such_field"):
            CampaignRunner(jobs=0).stream(spec)

    def test_cached_points_stream_before_execution(self, tmp_path):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 2]})
        CampaignRunner(jobs=0, executor=echo_executor,
                       cache=RunCache(tmp_path)).run(spec)
        warm = CampaignRunner(jobs=0, executor=echo_executor,
                              cache=RunCache(tmp_path)).stream(spec)
        first = next(warm)
        assert first["cached"] is True and first["index"] == 0
        warm.close()

    def test_shared_cache_instance_dedups_across_runners(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1]})
        CampaignRunner(jobs=0, executor=echo_executor, cache=cache).run(spec)
        again = CampaignRunner(jobs=0, executor=echo_executor,
                               cache=cache).run(spec)
        assert all(p["cached"] for p in again.points)
        assert cache.counters() == {"hits": 1, "misses": 1, "corrupted": 0}


class TestCacheIntegration:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 2]})
        cold = CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(spec)
        warm = CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(spec)
        assert cold.cache_counters == {"hits": 0, "misses": 2,
                                       "corrupted": 0}
        assert warm.cache_counters == {"hits": 2, "misses": 0,
                                       "corrupted": 0}
        assert all(p["cached"] for p in warm.points)
        assert warm.canonical_results_json() == cold.canonical_results_json()

    def test_failed_points_are_not_cached(self, tmp_path):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 2]})
        CampaignRunner(jobs=0, executor=failing_executor,
                       cache=RunCache(tmp_path)).run(spec)
        rerun = CampaignRunner(jobs=0, executor=failing_executor,
                               cache=RunCache(tmp_path)).run(spec)
        # the good point hits; the failed one is re-attempted every time
        assert rerun.cache_counters == {"hits": 1, "misses": 1,
                                        "corrupted": 0}
        assert rerun.errors[0]["config"]["payload_mib"] == 2

    def test_cache_counters_surface_in_telemetry(self, tmp_path):
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1]})
        CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(spec)
        warm = CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(spec)
        counters = {m["name"]: m["value"] for m in warm.telemetry.to_list()}
        assert counters["cache_hits"] == 1
        assert counters["cache_misses"] == 0
        assert counters["points_executed"] == 0
