"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestRun:
    def test_allreduce(self, capsys):
        code = main([
            "run", "--topology", "Ring(4)_Switch(2)",
            "--bandwidths", "100,50", "--workload", "allreduce",
            "--payload-mib", "64",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "8 NPUs" in out
        assert "total" in out
        assert "exp.comm" in out

    def test_gpt3_with_parallelism(self, capsys):
        code = main([
            "run", "--topology", "Ring(2)_FC(8)_Ring(8)_Switch(4)",
            "--bandwidths", "250,200,100,50", "--workload", "gpt3",
            "--mp", "16", "--dp", "32", "--scheduler", "baseline",
            "--collectives", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "collectives:" in out
        assert out.count(" us") >= 3

    def test_pipeline_workload(self, capsys):
        code = main([
            "run", "--topology", "Ring(8)_Switch(4)",
            "--bandwidths", "100,50", "--workload", "pp-gpt3",
            "--pp", "8", "--dp", "4", "--mp", "1", "--microbatches", "2",
        ])
        assert code == 0
        assert "pp-gpt3" in capsys.readouterr().out

    def test_custom_latencies(self, capsys):
        code = main([
            "run", "--topology", "Ring(4)", "--bandwidths", "100",
            "--latencies", "50", "--workload", "allreduce",
            "--payload-mib", "1",
        ])
        assert code == 0

    def test_sim_rate_is_opt_in(self, capsys):
        argv = ["run", "--topology", "Ring(4)", "--bandwidths", "100",
                "--workload", "allreduce", "--payload-mib", "1"]
        assert main(list(argv)) == 0
        assert "sim rate" not in capsys.readouterr().out
        assert main(list(argv) + ["--sim-rate"]) == 0
        out = capsys.readouterr().out
        assert "sim rate" in out
        assert "events/s" in out

    def test_bad_bandwidths_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "Ring(4)", "--bandwidths", "abc"])

    def test_flow_backend_for_p2p_workload(self, capsys):
        code = main([
            "run", "--topology", "Ring(8)", "--bandwidths", "100",
            "--workload", "pp-gpt3", "--pp", "8", "--dp", "1", "--mp", "1",
            "--microbatches", "2", "--backend", "flow",
        ])
        assert code == 0
        assert "total" in capsys.readouterr().out

    def test_json_and_chrome_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        trace_path = tmp_path / "t.json"
        code = main([
            "run", "--topology", "Ring(4)", "--bandwidths", "100",
            "--workload", "allreduce", "--payload-mib", "16",
            "--json-out", str(json_path), "--chrome-trace", str(trace_path),
        ])
        assert code == 0
        assert json.loads(json_path.read_text())["total_time_ns"] > 0
        doc = json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


class TestTraceInfo:
    def test_summary_printed(self, tmp_path, capsys):
        payload = {
            "format": "astra-sim-et", "version": 1, "npu_id": 3,
            "nodes": [
                {"id": 0, "type": "compute", "flops": 1000},
                {"id": 1, "type": "comm_collective",
                 "collective": "all_reduce", "tensor_bytes": 4096,
                 "deps": [0]},
            ],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        code = main(["trace-info", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace for NPU 3" in out
        assert "all_reduce" in out


class TestTopologyInfo:
    def test_describes_dims(self, capsys):
        code = main(["topology-info", "Ring(4)_Switch(8)",
                     "--bandwidths", "100,25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "32 NPUs" in out
        assert "halving_doubling" in out
        assert "ring" in out


class TestValidation:
    """Bad flag combinations exit with a clear message, not a traceback."""

    def test_bandwidth_count_mismatch(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(4)_Switch(2)",
                  "--bandwidths", "100"])
        message = str(exc_info.value)
        assert "1 value(s)" in message
        assert "2 dimension(s)" in message

    def test_latency_count_mismatch(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(4)_Switch(2)",
                  "--bandwidths", "100,50", "--latencies", "500"])
        assert "dimension" in str(exc_info.value)

    def test_mp_must_divide_npus(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(4)_Switch(2)",
                  "--bandwidths", "100,50", "--workload", "gpt3", "--mp", "3"])
        message = str(exc_info.value)
        assert "--mp 3" in message
        assert "8 NPUs" in message

    def test_pp_product_must_divide_npus(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                  "--workload", "pp-gpt3", "--mp", "1", "--pp", "3"])
        assert "does not divide" in str(exc_info.value)

    @pytest.mark.parametrize("flags, message", [
        (["--chunks", "0"], "collective_chunks must be >= 1"),
        (["--packet-bytes", "-1"], "packet_bytes must be >= 0"),
        (["--train-packets", "0"], "train_packets must be >= 1"),
        (["--backend", "garnet", "--granularity", "adaptive"],
         "conflicts with network_backend 'garnet'"),
        (["--granularity", "adaptive", "--escalation-threshold", "-1"],
         "escalation_threshold must be >= 0"),
    ], ids=["chunks", "packet-bytes", "train-packets", "backend-granularity",
            "escalation-threshold"])
    def test_invalid_system_config_is_an_error_exit(self, flags, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                  "--payload-mib", "1"] + flags)
        assert str(exc_info.value).startswith("error: ")
        assert message in str(exc_info.value)

    @pytest.mark.parametrize("granularity, backend", [
        ("fluid", "flow"), ("packet", "garnet"), ("adaptive", "adaptive")])
    def test_granularity_is_an_alias_of_backend(self, tmp_path, capsys,
                                                granularity, backend):
        base = ["run", "--topology", "Ring(4)", "--bandwidths", "100",
                "--workload", "alltoall", "--payload-mib", "1"]
        alias, spelled = tmp_path / "alias.json", tmp_path / "backend.json"
        assert main(base + ["--granularity", granularity,
                            "--json-out", str(alias)]) == 0
        assert main(base + ["--backend", backend,
                            "--json-out", str(spelled)]) == 0
        assert alias.read_bytes() == spelled.read_bytes()

    def test_dividing_mp_still_works(self, capsys):
        code = main(["run", "--topology", "Ring(4)_Switch(2)",
                     "--bandwidths", "100,50", "--workload", "gpt3",
                     "--mp", "8"])
        assert code == 0
        assert "gpt3" in capsys.readouterr().out


class TestBadInputs:
    """Every loader's bad input is one ``error:`` line (an InputError)."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "--topology", "Ring(4)", "--bandwidths", "nan",
          "--scheduler", "baseline"],
         "bandwidth of dimension 0 is not a finite number: nan"),
        (["run", "--topology", "Ring(4)_Switch(2)", "--bandwidths", "nan,1",
          "--scheduler", "themis"],
         "bandwidth of dimension 0 is not a finite number: nan"),
        (["run", "--topology", "Ring(4)", "--bandwidths", "100",
          "--latencies", "nan"], "latency is not a finite number: nan"),
        (["topology-info", "Foo(4)", "--bandwidths", "100"],
         "unknown building block 'Foo'"),
        (["topology-info", "Ring(4)_", "--bandwidths", "100"],
         "empty dimension in 'Ring(4)_'"),
        (["topology-info", "Ring(4)", "--bandwidths=-1"],
         "bandwidth must be positive, got -1.0"),
        (["topology-info", "Ring(4)", "--bandwidths", "inf"],
         "bandwidth of dimension 0 is not a finite number: inf"),
    ], ids=["nan-baseline", "nan-themis", "nan-latency", "unknown-block",
            "trailing-underscore", "negative-bandwidth", "inf-bandwidth"])
    def test_topology_inputs(self, argv, message):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert str(exc_info.value).startswith(f"error: {message}")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "an ET document must be a JSON object, got list"),
        ({"nodes": "abc"}, "'nodes' must be a list, got str"),
        ({"nodes": [{"id": "x", "type": "compute", "flops": 1}]},
         "nodes[0]: field 'id' is not an integer: 'x'"),
        ({"nodes": [{"id": 0, "type": "compute", "flops": 1},
                    {"id": 1.7, "type": "compute", "flops": 1,
                     "deps": [0]}]},
         "nodes[1]: field 'id' is not an integer: 1.7"),
        ({"nodes": [{"id": 0, "type": "compute", "flops": 1.7}]},
         "node 0: field 'flops' is not an integer: 1.7"),
        ({"nodes": [{"id": 0, "type": "compute", "tensor_bytes": True}]},
         "node 0: field 'tensor_bytes' is not an integer: True"),
        ({"nodes": [{"id": 0, "type": "compute", "flops": 1, "deps": [0.5]}]},
         "node 0: field 'deps' is not an integer: 0.5"),
        ({"nodes": [{"id": 0, "type": "comm_send", "tensor_bytes": 8,
                     "peer": "1"}]},
         "node 0: field 'peer' is not an integer: '1'"),
        ({"nodes": [{"id": 0, "type": "comm_send", "tensor_bytes": 8,
                     "peer": 1, "tag": 2.5}]},
         "node 0: field 'tag' is not an integer: 2.5"),
    ], ids=["list-document", "nodes-string", "id-string", "id-float",
            "flops-float", "bytes-bool", "deps-float", "peer-string",
            "tag-float"])
    def test_trace_info_inputs(self, tmp_path, doc, message):
        if isinstance(doc, dict):
            doc = {"format": "astra-sim-et", "version": 1, **doc}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc_info:
            main(["trace-info", str(path)])
        assert str(exc_info.value) == f"error: {message}"

    def test_trace_info_on_text_that_is_not_json(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"format": ')
        with pytest.raises(SystemExit) as exc_info:
            main(["trace-info", str(path)])
        assert str(exc_info.value).startswith("error: ET is not valid JSON")

    def test_ingest_rejects_a_fractional_shape(self, tmp_path):
        path = tmp_path / "og.json"
        path.write_text(json.dumps({
            "format": "repro-opgraph", "version": 1,
            "ops": [{"id": 0, "kind": "matmul", "m": 4.7, "k": 4, "n": 4}]}))
        with pytest.raises(SystemExit) as exc_info:
            main(["ingest", str(path)])
        assert str(exc_info.value) == (
            "error: op 0: field 'm' is not an integer: 4.7")

    @pytest.mark.parametrize("layers", [2.7, True, "2"])
    def test_ingest_rejects_a_non_integer_layer_count(self, tmp_path,
                                                      layers):
        config = json.loads((EXAMPLES / "llama_70b_config.json").read_text())
        config["num_hidden_layers"] = layers
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc_info:
            main(["ingest", str(path), "--seq-len", "128"])
        assert str(exc_info.value) == (
            "error: config key 'num_hidden_layers' is not an integer: "
            f"{layers!r}")

    def test_sweep_spec_error_is_one_line(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--topology", "Ring(4)", "--bandwidths", "100",
                  "--grid", "payload_mib"])
        assert str(exc_info.value).startswith("error: ")


class TestRunFieldNumbers:
    """Run flags follow the number rule; workload checks are input errors."""

    RING8 = ["--topology", "Ring(8)", "--bandwidths", "100"]

    @pytest.mark.parametrize("flags, message", [
        (["--peak-tflops", "nan"],
         "error: argument --peak-tflops: invalid number value: 'nan'"),
        (["--payload-mib", "nan"],
         "error: argument --payload-mib: invalid number value: 'nan'"),
        (["--chunks", "4.7"],
         "error: argument --chunks: invalid integer value: '4.7'"),
        (["--bandwidths", "100,25,"],
         "error: argument --bandwidths: invalid number_list value: "
         "'100,25,'"),
    ], ids=["nan-peak-tflops", "nan-payload", "fractional-chunks",
            "trailing-comma"])
    def test_bad_number_is_a_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["run"] + self.RING8 + flags)
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message

    def test_sweep_rejects_the_flag_run_rejects(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep"] + self.RING8[:2] + ["--bandwidths", "100,25,",
                                               "--grid", "chunks=2|4"])
        assert "invalid number_list value" in capsys.readouterr().err

    def test_escalation_threshold_takes_inf(self, capsys):
        assert main(["run"] + self.RING8 + [
            "--payload-mib", "1", "--escalation-threshold", "inf"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["run", "--workload", "pp-gpt3", "--microbatches", "0"],
         "error: microbatches must be >= 1, got 0"),
        (["run", "--workload", "pp-gpt3", "--pp", "1"],
         "error: pipeline generator needs pp > 1"),
        (["run", "--workload", "gpt3", "--mp", "4", "--dp", "-2"],
         "error: dp degree must be >= 1, got -2"),
        (["sweep", "--grid", "chunks=2|4", "--jobs", "-1"],
         "error: jobs must be >= 0, got -1"),
        (["run", "--faults", "degrade@dim0:0.5x@t=1e400ns"],
         "error: fault start is not a finite number: inf"),
    ], ids=["microbatches", "pp-1", "negative-dp", "negative-jobs",
            "infinite-fault-time"])
    def test_bad_value_is_one_error_line(self, argv, message):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + self.RING8)
        assert str(exc_info.value) == message


class TestTelemetryFlags:
    def test_metrics_out_writes_versioned_json(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = main(["run", "--topology", "Ring(4)_Switch(2)",
                     "--bandwidths", "100,50", "--workload", "allreduce",
                     "--payload-mib", "16", "--metrics-out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics" in out
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        names = {(m["layer"], m["name"]) for m in doc["metrics"]}
        assert ("events", "events_processed") in names
        assert ("network", "dim_traffic_bytes") in names

    def test_trace_level_adds_telemetry_tracks(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(["run", "--topology", "Ring(4)_Switch(2)",
                     "--bandwidths", "100,50", "--workload", "allreduce",
                     "--payload-mib", "16", "--trace-level", "chunk",
                     "--chrome-trace", str(trace_path)])
        assert code == 0
        doc = json.loads(trace_path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "C" in phases  # counter tracks
        assert "X" in phases

    def test_metrics_out_without_trace_level_still_collects(self, tmp_path):
        path = tmp_path / "metrics.json"
        code = main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                     "--workload", "allreduce", "--payload-mib", "1",
                     "--metrics-out", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["trace_level"] == "off"
        assert doc["metrics"]

    def test_bad_trace_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                  "--trace-level", "verbose"])

    def test_packet_level_requires_packet_backend(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                  "--workload", "allreduce", "--payload-mib", "1",
                  "--trace-level", "packet"])
        assert "garnet or flow" in str(exc_info.value)

    def test_packet_level_with_adaptive_backend(self, capsys):
        code = main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                     "--workload", "alltoall", "--payload-mib", "1",
                     "--backend", "adaptive", "--trace-level", "packet"])
        assert code == 0

    def test_packet_level_with_garnet_backend(self, capsys):
        code = main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                     "--workload", "pp-gpt3", "--pp", "8", "--dp", "1",
                     "--mp", "1", "--microbatches", "2",
                     "--backend", "garnet", "--trace-level", "packet"])
        assert code == 0
        assert "total" in capsys.readouterr().out


class TestFaultFlags:
    def test_faults_print_resilience_report(self, capsys):
        code = main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                     "--workload", "allreduce", "--payload-mib", "64",
                     "--faults", "straggler@npu3:1.5x@t=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resilience:" in out
        assert "baseline" in out
        assert "goodput" in out
        assert "straggler@npu3:1.5x@t=0.0ns" in out

    def test_fault_that_never_acts_loses_no_time(self):
        """A fault activating after the run leaves Themis on its fluid
        plan: the faulted run is the fault-free baseline run, and its
        activation is cancelled when the last node completes."""
        from repro.cli import build_parser
        from repro.runsim import simulate_from_args

        argv = ["run", "--topology", "Ring(8)_Switch(4)",
                "--bandwidths", "100,50", "--payload-mib", "64"]
        _, clean, _ = simulate_from_args(build_parser().parse_args(argv))
        _, result, resilience = simulate_from_args(build_parser().parse_args(
            argv + ["--faults", "degrade@dim0:0.5x@t=1s"]))
        assert result.total_time_ns == clean.total_time_ns
        assert result.events_processed == clean.events_processed
        assert resilience.time_lost_ns == 0
        assert resilience.goodput == 1.0
        assert resilience.records[0].activated_ns is None

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                  "--faults", "nonsense@npu1@t=0"])
        assert "unknown fault kind" in str(exc_info.value)

    def test_fault_target_beyond_topology_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                  "--faults", "straggler@npu99:2x@t=0"])
        assert "npu 99" in str(exc_info.value)

    def test_fault_seed_is_deterministic(self, capsys):
        argv = ["run", "--topology", "Ring(8)", "--bandwidths", "100",
                "--workload", "allreduce", "--payload-mib", "32",
                "--fault-seed", "11", "--checkpoint-interval-ms", "1"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "resilience" in first

    def test_faults_require_analytical_backend(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                  "--workload", "pp-gpt3", "--pp", "8", "--dp", "1",
                  "--mp", "1", "--backend", "flow",
                  "--faults", "straggler@npu1:2x@t=0"])
        assert "analytical" in str(exc_info.value)

    @pytest.mark.parametrize("selector", [
        ["--backend", "adaptive"], ["--granularity", "fluid"]])
    def test_faults_rejected_on_any_detailed_backend(self, selector):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--topology", "Ring(8)", "--bandwidths", "100",
                  "--payload-mib", "1", "--fault-seed", "3"] + selector)
        assert "require --backend analytical" in str(exc_info.value)


class TestSweep:
    ARGV = ["sweep", "--topology", "Ring(4)_Switch(2)",
            "--bandwidths", "100,50", "--workload", "allreduce",
            "--grid", "payload-mib=1|4", "--grid", "scheduler=baseline|themis"]

    def test_four_point_grid_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        code = main(self.ARGV + ["--out", str(out_path),
                                 "--csv-out", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 points" in out
        assert "payload_mib" in out and "scheduler" in out

        doc = json.loads(out_path.read_text())
        assert len(doc["points"]) == 4
        assert doc["summary"]["errors"] == 0
        assert doc["summary"]["total_time_ms"]["count"] == 4
        configs = [(p["config"]["payload_mib"], p["config"]["scheduler"])
                   for p in doc["points"]]
        assert configs == [(1.0, "baseline"), (1.0, "themis"),
                           (4.0, "baseline"), (4.0, "themis")]
        assert all(p["result"]["total_time_ns"] > 0 for p in doc["points"])

        csv_lines = csv_path.read_text().strip().splitlines()
        assert csv_lines[0] == "payload_mib,scheduler,total_time_ms,nodes,events,status"
        assert len(csv_lines) == 5

    def test_cache_counters_reported(self, tmp_path, capsys):
        argv = self.ARGV + ["--cache-dir", str(tmp_path / "cache")]
        assert main(list(argv)) == 0
        cold = capsys.readouterr().out
        assert "0 hits, 4 misses" in cold
        assert main(list(argv)) == 0
        warm = capsys.readouterr().out
        assert "4 hits, 0 misses" in warm
        assert "cached" in warm

    def test_requires_at_least_one_axis(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--topology", "Ring(4)", "--bandwidths", "100"])
        assert "axis" in str(exc_info.value)

    def test_bad_point_reports_error_and_exit_code(self, capsys):
        code = main(["sweep", "--topology", "Ring(4)", "--bandwidths", "100",
                     "--grid", "scheduler=baseline|nope"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error:PointConfigError" in out

    def test_fail_fast_aborts(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--topology", "Ring(4)", "--bandwidths", "100",
                  "--grid", "scheduler=nope|baseline", "--fail-fast"])
        assert "failed" in str(exc_info.value)

    def test_jobs_flag_matches_serial_output(self, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        pooled_path = tmp_path / "pooled.json"
        assert main(self.ARGV + ["--out", str(serial_path)]) == 0
        assert main(self.ARGV + ["--jobs", "2",
                                 "--out", str(pooled_path)]) == 0
        capsys.readouterr()
        assert serial_path.read_text() == pooled_path.read_text()
