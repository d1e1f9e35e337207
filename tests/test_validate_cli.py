"""End-to-end tests for the `repro validate` CLI and --check-invariants."""

import json

import pytest

from repro.campaign.runner import run_point
from repro.cli import main


class TestValidateCommand:
    def test_invariants_suite_small_scenario(self, capsys):
        code = main([
            "validate", "--suite", "invariants",
            "--topology", "Ring(4)", "--bandwidths", "100",
            "--workload", "allreduce", "--payload-mib", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants  : ok" in out
        assert "0 violations" in out

    def test_metamorphic_suite(self, capsys):
        code = main(["validate", "--suite", "metamorphic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "metamorphic : ok" in out

    def test_conformance_suite_with_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["validate", "--suite", "conformance",
                     "--report-out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance : ok" in out
        assert f"report written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert doc["suites"] == ["conformance"]
        assert doc["conformance"]["cases_failed"] == 0

    def test_all_suites_report_structure(self, capsys, tmp_path):
        path = tmp_path / "all.json"
        code = main(["validate", "--suite", "all",
                     "--topology", "Ring(4)", "--bandwidths", "100",
                     "--workload", "allreduce", "--payload-mib", "1",
                     "--report-out", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["suites"] == ["invariants", "metamorphic", "conformance",
                                 "adaptive", "frontend"]
        assert doc["invariants"]["ok"] is True
        assert doc["metamorphic"]["passed"] is True
        assert doc["conformance"]["passed"] is True
        assert doc["adaptive"]["passed"] is True
        assert doc["passed"] is True
        # The suite documents' layout, key for key: a case field added to
        # or dropped from a dataclass must show up here.
        common = {"schema_version", "suite", "quick", "passed",
                  "cases_total", "cases_failed", "tolerances", "cases"}
        sections = {
            "conformance": {
                "cases": {"scenario", "topology", "algorithm",
                          "payload_bytes", "backend", "baseline_backend",
                          "baseline_ns", "candidate_ns", "tolerance_rel",
                          "saf_allowance_ns", "rel_error",
                          "adjusted_rel_error", "invariant_violations",
                          "passed", "message"},
                "memory_cases": {"scenario", "memory_model",
                                 "total_time_ns", "invariant_checks",
                                 "invariant_violations", "passed",
                                 "message"},
                "folding_cases": {"scenario", "backend", "collective",
                                  "traced_ranks", "simulated_ranks",
                                  "fold_active", "expect_active",
                                  "identical", "passed", "message"},
            },
            "adaptive": {
                "cases": {"axis", "scenario", "topology", "algorithm",
                          "payload_bytes", "threshold", "baseline_backend",
                          "baseline_ns", "candidate_ns", "baseline_events",
                          "candidate_events", "escalations",
                          "deescalations", "tolerance_rel",
                          "saf_allowance_ns", "rel_error",
                          "adjusted_rel_error", "event_reduction",
                          "invariant_violations", "passed", "message"},
            },
            "frontend": {
                "cases": {"axis", "case", "builtin_value", "frontend_value",
                          "tolerance_rel", "rel_error", "passed",
                          "message"},
            },
        }
        for suite, case_keys in sections.items():
            suite_doc = doc[suite]
            assert set(suite_doc) == common | set(case_keys), suite
            assert suite_doc["suite"] == suite
            assert suite_doc["cases_total"] == sum(
                len(suite_doc[name]) for name in case_keys)
            for name, keys in case_keys.items():
                assert suite_doc[name], f"{suite}/{name} is empty"
                for case in suite_doc[name]:
                    assert set(case) == keys, f"{suite}/{name}"
        assert set(doc["conformance"]["tolerances"]) == {
            "rel_flow", "rel_packet", "rel_saf"}
        assert set(doc["adaptive"]["tolerances"]) == {
            "rel_packet", "rel_saf", "event_reduction_floor"}
        assert set(doc["frontend"]["tolerances"]) == {"rel_frontend"}


class TestInvariantsSuiteFlags:
    """Explicit run flags reach the invariants suite's simulation."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import repro.runsim as runsim

        seen = []
        real = runsim.simulate_from_args

        def spy(args, *rest, **kwargs):
            seen.append((args.topology, args.bandwidths, args.payload_mib))
            return real(args, *rest, **kwargs)

        monkeypatch.setattr(runsim, "simulate_from_args", spy)
        return seen

    def test_default_scenario_runs_at_64_mib(self, seen, capsys):
        assert main(["validate", "--suite", "invariants"]) == 0
        assert seen == [("Ring(2)_Switch(4)", "200,50", 64.0)]

    def test_explicit_payload_kept_on_default_scenario(self, seen, capsys):
        assert main(["validate", "--suite", "invariants",
                     "--payload-mib", "1024"]) == 0
        assert seen == [("Ring(2)_Switch(4)", "200,50", 1024.0)]

    def test_user_topology_keeps_run_default_payload(self, seen, capsys):
        assert main(["validate", "--suite", "invariants",
                     "--topology", "Ring(4)", "--bandwidths", "100"]) == 0
        assert seen == [("Ring(4)", "100", 1024.0)]

    @pytest.mark.parametrize("flag, value", [("--bandwidths", "400,100"),
                                             ("--latencies", "100,200")])
    def test_dims_without_topology_is_an_error(self, seen, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--suite", "invariants", flag, value])
        assert str(exc.value.code).startswith("error: ")
        assert "--topology" in str(exc.value.code)
        assert seen == []


class TestRunCheckInvariants:
    ARGV = ["run", "--topology", "Ring(4)", "--bandwidths", "100",
            "--workload", "allreduce", "--payload-mib", "1"]

    def test_flag_prints_summary_and_passes(self, capsys):
        code = main(self.ARGV + ["--check-invariants"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants:" in out
        assert "0 violations" in out

    def test_without_flag_no_invariants_line(self, capsys):
        code = main(list(self.ARGV))
        assert code == 0
        assert "invariants:" not in capsys.readouterr().out

    def test_strict_flag_accepted(self, capsys):
        # A clean run must not trip strict mode.
        code = main(self.ARGV + ["--check-invariants",
                                 "--strict-invariants"])
        assert code == 0


class TestSweepAxis:
    def test_check_invariants_point_matches_cli_json(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        assert main(["run", "--topology", "Ring(4)", "--bandwidths", "100",
                     "--workload", "allreduce", "--payload-mib", "1",
                     "--check-invariants", "--json-out", str(path)]) == 0
        capsys.readouterr()
        doc = run_point({
            "topology": "Ring(4)", "bandwidths": "100",
            "workload": "allreduce", "payload_mib": 1.0,
            "check_invariants": True,
        })
        assert doc["invariants"]["checks"] > 0
        assert doc == json.loads(path.read_text())
