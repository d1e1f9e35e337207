"""End-to-end HTTP tests for the ``repro serve`` daemon.

Every test binds a real :class:`~repro.campaign.serve.ReproServer` on an
ephemeral port and talks to it over a socket — the contract under test
is the wire behaviour: served responses bit-identical to in-process
runs, cross-client cache dedup, NDJSON streaming in spec order, 429
backpressure under a saturated queue, and error-path status codes.
"""

import json
import os
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.campaign import ServeConfig, serve_in_thread, shutdown_shared_pool
from repro.campaign.runner import CampaignRunner, normalize_point, run_point
from repro.campaign.spec import SweepSpec
from repro.errors import InputError

POINT = {"topology": "Ring(4)", "bandwidths": "100",
         "workload": "allreduce", "trace_level": "collective"}
SWEEP = {"base": POINT, "grid": {"payload_mib": [1, 2, 3]}}


def canon(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def serving(**overrides):
    """A live daemon on an ephemeral port; yields its base URL + server."""
    executor = overrides.pop("executor", None)
    config = ServeConfig(**{"host": "127.0.0.1", "port": 0, "jobs": 0,
                            **overrides})
    server = serve_in_thread(config, executor=executor)
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", server
    finally:
        server.shutdown()
        server.server_close()
        shutdown_shared_pool()


def get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, dict(resp.headers), resp.read()


def post(url, doc, timeout=60):
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestRunEndpoint:
    def test_response_bit_identical_to_in_process_run(self, tmp_path):
        with serving(cache_dir=str(tmp_path)) as (base, _server):
            status, headers, body = post(base + "/run", POINT)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        local = run_point(normalize_point(POINT))
        assert body.decode() == canon(local)

    def test_identical_clients_dedup_through_the_cache(self, tmp_path):
        with serving(cache_dir=str(tmp_path)) as (base, server):
            _s1, h1, body1 = post(base + "/run", POINT)
            _s2, h2, body2 = post(base + "/run", POINT)
            counters = server.cache.counters()
        assert (h1["X-Repro-Cache"], h2["X-Repro-Cache"]) == ("miss", "hit")
        assert body1 == body2
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_unnormalized_and_normalized_requests_share_an_entry(
            self, tmp_path):
        # "1" from one client and 1.0 from another are the same config
        with serving(cache_dir=str(tmp_path)) as (base, _server):
            _s1, h1, _b1 = post(base + "/run",
                                dict(POINT, payload_mib="1"))
            _s2, h2, _b2 = post(base + "/run",
                                dict(POINT, payload_mib=1.0))
        assert (h1["X-Repro-Cache"], h2["X-Repro-Cache"]) == ("miss", "hit")

    def test_invalid_config_is_400_with_structured_error(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", dict(POINT, no_such_field=1))
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "PointConfigError"
            assert "no_such_field" in error["message"]

    def test_invalid_system_config_is_400(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", dict(POINT, chunks=0))
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "PointConfigError"
            assert "collective_chunks" in error["message"]

    @pytest.mark.parametrize("fields, message", [
        ({"topology": "Foo(4)"},
         "unknown building block 'Foo'; expected one of ['fc', "
         "'fullyconnected', 'r', 'ring', 'sw', 'switch']"),
        ({"bandwidths": "nan", "scheduler": "themis"},
         "bandwidth of dimension 0 is not a finite number: nan"),
    ], ids=["unknown-block", "nan-bandwidth-themis"])
    def test_bad_topology_input_is_400(self, fields, message):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", dict(POINT, **fields))
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
        assert error == {"type": "PointConfigError", "message": message}

    def test_non_numeric_content_length_is_400(self):
        with serving() as (base, _server):
            request = urllib.request.Request(
                base + "/run", data=json.dumps(POINT).encode(),
                headers={"Content-Length": "abc"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=60)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "PointConfigError"

    def test_non_object_body_is_400(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", [1, 2, 3])
            assert excinfo.value.code == 400

    def test_unknown_endpoint_is_404(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/nope", {})
            assert excinfo.value.code == 404


class TestRunFieldNumbers:
    """JSON run fields follow the number rule; bad input is a 400."""

    @pytest.mark.parametrize("fields, message", [
        ({"chunks": 4.7}, "field 'chunks': cannot interpret 4.7 "
                          "(not an integer)"),
        ({"mp": True}, "field 'mp': cannot interpret True (not an integer)"),
        ({"workload": "pp-gpt3", "pp": 4, "microbatches": 0},
         "microbatches must be >= 1, got 0"),
        ({"bandwidths": [True]}, "field 'bandwidths': cannot interpret "
                                 "[True] (not a finite number)"),
    ], ids=["fractional-chunks", "boolean-mp", "zero-microbatches",
            "boolean-bandwidth"])
    def test_bad_field_is_400(self, fields, message):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", dict(POINT, **fields))
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
        assert error == {"type": "PointConfigError", "message": message}

    def test_dropped_degree_is_400(self):
        """A degree the builtin workload does not model is refused."""
        cases = [({"workload": "gpt3", "mp": 4, "pp": 2}, "gpt3", "pp"),
                 ({"workload": "gpt3", "mp": 4, "ep": 2}, "gpt3", "ep"),
                 ({"workload": "pp-gpt3", "pp": 4, "ep": 2}, "pp-gpt3", "ep"),
                 ({"workload": "dlrm", "mp": 4}, "dlrm", "mp")]
        with serving() as (base, _server):
            for fields, workload, axis in cases:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(base + "/run", dict(POINT, **fields))
                assert excinfo.value.code == 400
                error = json.loads(excinfo.value.read())["error"]
                assert error["type"] == "PointConfigError"
                assert error["message"].startswith(
                    f"workload {workload!r} does not model --{axis} ")

    def test_dropped_trace_field_is_400(self):
        """A trace field the run's producer does not read is refused."""
        from tests.test_workload_reads import DROPPED, message

        with serving() as (base, _server):
            for fields, name, flag in DROPPED:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(base + "/run", dict(POINT, **fields))
                assert excinfo.value.code == 400
                error = json.loads(excinfo.value.read())["error"]
                assert error["type"] == "PointConfigError"
                assert error["message"].startswith(message(name, flag))

    @pytest.mark.parametrize("fields, message", [
        ({"jobs": -1}, "jobs must be >= 0, got -1"),
        ({"queue_depth": 0}, "queue_depth must be >= 1, got 0"),
    ])
    def test_config_checks_its_ranges(self, fields, message):
        with pytest.raises(InputError, match=message):
            ServeConfig(port=0, **fields)


class TestSweepEndpoint:
    def test_ndjson_streams_in_spec_order_with_summary(self):
        with serving() as (base, _server):
            status, headers, body = post(base + "/sweep", SWEEP)
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = body.decode().splitlines()
        records, summary = lines[:-1], json.loads(lines[-1])
        assert [json.loads(line)["index"] for line in records] == [0, 1, 2]
        assert summary["summary"]["points"] == 3
        assert summary["summary"]["errors"] == 0

    def test_streamed_records_match_in_process_runner(self):
        with serving() as (base, _server):
            _status, _headers, body = post(base + "/sweep", SWEEP)
        lines = body.decode().splitlines()
        local = CampaignRunner(jobs=0).run(SweepSpec.from_dict(SWEEP))
        assert lines[:-1] == [canon(p).rstrip("\n") for p in local.points]

    def test_wrapped_spec_with_options(self):
        with serving() as (base, _server):
            _status, _headers, body = post(
                base + "/sweep", {"spec": SWEEP, "fail_fast": True})
        summary = json.loads(body.decode().splitlines()[-1])
        assert summary["summary"]["points"] == 3

    def test_failed_point_streams_as_error_record(self):
        bad = {"base": POINT, "grid": {"scheduler": ["nope", "baseline"]}}
        with serving() as (base, _server):
            _status, _headers, body = post(base + "/sweep", bad)
        lines = [json.loads(line) for line in body.decode().splitlines()]
        assert lines[0]["error"]["type"] == "PointConfigError"
        assert lines[1]["error"] is None
        assert lines[-1]["summary"]["errors"] == 1

    @pytest.mark.parametrize("body", [
        {"spec": [1]},
        {"base": POINT, "grid": "x"},
        {"spec": SWEEP, "jobs": "abc"},
        {"spec": SWEEP, "batch_size": 2},
        {"spec": SWEEP, "jobs": -1},
        {"spec": SWEEP, "jobs": float("inf")},
        {"base": [1], "grid": {"payload_mib": [1]}},
        {"points": [1]},
        {"base": dict(POINT, chunks=float("inf")),
         "grid": {"payload_mib": [1]}},
        {"base": POINT, "grids": {"chunks": [2, 4]}},
    ], ids=["spec-not-object", "grid-not-object", "jobs-not-int",
            "unknown-option", "negative-jobs", "infinite-jobs",
            "base-not-object", "point-not-object", "infinite-field",
            "unknown-spec-key"])
    def test_malformed_sweep_body_is_400(self, body):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/sweep", body)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert set(error) == {"type", "message"}

    def test_unknown_sweep_options_are_named(self):
        body = {"spec": SWEEP, "jbos": 2, "batch_size": 2}
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/sweep", body)
            assert excinfo.value.code == 400
            message = json.loads(excinfo.value.read())["error"]["message"]
        assert "batch_size" in message and "jbos" in message

    def test_fail_fast_must_be_a_json_boolean(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/sweep", {"spec": SWEEP, "fail_fast": "false"})
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "PointConfigError"
        assert "fail_fast" in error["message"]

    def test_client_cannot_resize_the_fleet(self):
        with serving(jobs=1) as (base, _server):
            assert post(base + "/run", POINT)[0] == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/sweep", {"spec": SWEEP, "jobs": 6})
            assert excinfo.value.code == 400
            message = json.loads(excinfo.value.read())["error"]["message"]
            _status, _headers, body = get(base + "/stats")
        assert "jobs" in message
        assert json.loads(body)["pool"]["workers"] == 1

    def test_invalid_sweep_field_is_400_before_streaming(self):
        bad = {"base": POINT, "grid": {"no_such_field": [1, 2]}}
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/sweep", bad)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "PointConfigError"


def raising_executor(point):
    raise RuntimeError("executor blew up")


def crash_on_request_executor(point):
    """Kills its worker process when the point asks for it."""
    if point.get("crash"):
        os._exit(13)
    return {"total_time_ns": 1.0}


class TestErrorsAtEveryJobs:
    """The same failing point answers the same status and body whether
    it runs in the request thread (jobs 0) or on the fleet (jobs 1)."""

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_executor_exception_is_500_with_its_type(self, jobs):
        with serving(jobs=jobs, executor=raising_executor) as (base, _):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", POINT)
            assert excinfo.value.code == 500
            error = json.loads(excinfo.value.read())["error"]
        assert error == {"type": "RuntimeError",
                         "message": "executor blew up"}

    def test_config_error_message_matches_across_jobs(self):
        errors = {}
        for jobs in (0, 1):
            with serving(jobs=jobs) as (base, _server):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(base + "/run", dict(POINT, chunks=0))
                assert excinfo.value.code == 400
                errors[jobs] = json.loads(excinfo.value.read())["error"]
        assert errors[0]["type"] == "PointConfigError"
        assert errors[0] == errors[1]

    def test_crashed_worker_is_500_and_the_next_run_succeeds(self):
        with serving(jobs=1,
                     executor=crash_on_request_executor) as (base, _):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", dict(POINT, crash=True))
            assert excinfo.value.code == 500
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "BrokenProcessPool"
            status, _headers, body = post(base + "/run", POINT)
        assert status == 200
        assert json.loads(body) == {"total_time_ns": 1.0}


def blocking_executor(point):
    """Parks the request thread until the test releases it."""
    blocking_executor.started.set()
    assert blocking_executor.release.wait(timeout=30)
    return {"total_time_ns": 1.0}


blocking_executor.started = threading.Event()
blocking_executor.release = threading.Event()


class TestBackpressure:
    def test_saturated_queue_answers_429_with_retry_after(self):
        blocking_executor.started = threading.Event()
        blocking_executor.release = threading.Event()
        outcome = {}

        def client_a(base):
            outcome["a"] = post(base + "/run", POINT)[0]

        with serving(queue_depth=1,
                     executor=blocking_executor) as (base, server):
            thread = threading.Thread(target=client_a, args=(base,))
            thread.start()
            assert blocking_executor.started.wait(timeout=30)
            # the single queue slot is now held by the parked request
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", POINT)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"]
            assert "saturated" in json.loads(
                excinfo.value.read())["error"]
            blocking_executor.release.set()
            thread.join(timeout=30)
            rejected = server.metrics.value(
                "campaign", "http_rejected", endpoint="run")
        assert outcome["a"] == 200  # the admitted request still completed
        assert rejected == 1

    def test_slot_is_released_after_completion(self):
        blocking_executor.started = threading.Event()
        blocking_executor.release = threading.Event()
        blocking_executor.release.set()  # never park
        with serving(queue_depth=1,
                     executor=blocking_executor) as (base, _server):
            assert post(base + "/run", POINT)[0] == 200
            assert post(base + "/run", POINT)[0] == 200


class TestIntrospection:
    def test_healthz(self):
        with serving() as (base, _server):
            status, _headers, body = get(base + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_stats_reports_counters_cache_and_fleet(self, tmp_path):
        with serving(cache_dir=str(tmp_path)) as (base, _server):
            post(base + "/run", POINT)
            post(base + "/sweep", SWEEP)
            _status, _headers, body = get(base + "/stats")
        stats = json.loads(body)
        assert stats["queue_depth"] == 8
        assert stats["uptime_s"] >= 0
        counters = {(m["name"], m["labels"].get("endpoint")): m["value"]
                    for m in stats["counters"]}
        assert counters[("http_requests", "run")] == 1
        assert counters[("http_requests", "sweep")] == 1
        assert counters[("runs_served", None)] == 1
        assert counters[("sweeps_served", None)] == 1
        assert stats["cache"]["misses"] >= 1
        assert stats["pool"] is None  # jobs=0: no fleet was started

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_stats_sum_trace_memo_hits_and_misses(self, jobs):
        # Five points that differ only in memory bandwidths share one
        # trace set.
        hiermem = {"topology": "Switch(4)_Switch(2)",
                   "bandwidths": "256,12.5", "workload": "moe1t",
                   "memory_model": "hiermem"}
        with serving(jobs=jobs) as (base, _server):
            for fabric in (128, 256, 512):
                post(base + "/run", dict(hiermem, fabric_bw_gbps=fabric))
            _status, _headers, body = post(base + "/sweep", {
                "base": hiermem, "grid": {"group_bw_gbps": [50, 150]}})
            _status, _headers, stats = get(base + "/stats")
        summary = json.loads(body.splitlines()[-1])["summary"]
        swept = {m["name"]: m["value"]
                 for m in summary["telemetry"]["metrics"]}
        counters = {m["name"]: m["value"]
                    for m in json.loads(stats)["counters"]}
        hits, misses = (counters["trace_memo_hits"],
                        counters["trace_memo_misses"])
        assert hits + misses == 5
        assert swept["trace_memo_hits"] + swept["trace_memo_misses"] == 2
        # Each process builds the one trace set at most once.
        assert misses <= max(jobs, 1)

    def test_unknown_get_is_404(self):
        with serving() as (base, _server):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(base + "/metrics")
            assert excinfo.value.code == 404
