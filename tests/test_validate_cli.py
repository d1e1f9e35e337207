"""End-to-end tests for the `repro validate` CLI and --check-invariants."""

import json

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
