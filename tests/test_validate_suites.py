"""Tests for the metamorphic and conformance pillars of repro.validate."""

import json
import math

from repro.validate import run_conformance_suite, run_metamorphic_suite
from repro.validate.conformance import (
    ALGORITHM_STEPS,
    REL_SAF,
    _saf_allowance_ns,
)
from repro.validate.harness import SUITE_SCHEMA_VERSION
from repro.validate.metamorphic import RELATIONS, RelationResult


class TestMetamorphicSuite:
    def test_quick_suite_passes(self):
        results = run_metamorphic_suite(quick=True)
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(r.message for r in failed)
        # Every registered relation must have produced at least one case.
        seen = {r.relation for r in results}
        assert seen == {fn.__name__.removeprefix("check_")
                        for fn in RELATIONS}

    def test_results_serialize(self):
        results = run_metamorphic_suite(quick=True)
        doc = json.loads(json.dumps([r.to_dict() for r in results]))
        assert all(set(d) >= {"relation", "case", "passed"} for d in doc)

    def test_relation_result_shape(self):
        r = RelationResult("monotonicity", "ring8", True, {"a": 1.0}, "ok")
        assert r.to_dict()["detail"] == {"a": 1.0}


class TestConformanceSuite:
    def test_quick_suite_passes_with_invariants(self):
        report = run_conformance_suite(quick=True, check_invariants=True)
        assert report.passed, "\n".join(
            c.message for c in report.failures)
        assert report.cases, "suite must exercise backend pairs"
        assert all(c.invariant_violations == 0 for c in report.cases)

    def test_backends_and_algorithms_covered(self):
        report = run_conformance_suite(quick=True, check_invariants=False)
        backends = {c.backend for c in report.cases}
        assert backends == {"flow", "garnet"}
        algorithms = {c.algorithm for c in report.cases}
        assert algorithms == set(ALGORITHM_STEPS)
        # Halving-doubling's store-and-forward closed form only holds
        # through a single switch fabric, so it runs on Switch scenarios.
        hd_topos = {c.scenario for c in report.cases
                    if c.algorithm == "halving_doubling_allreduce"}
        assert all(t.startswith("switch") for t in hd_topos)

    def test_garnet_adjusted_error_is_tiny(self):
        # The saf correction is exact for packet-aligned payloads: the
        # adjusted error should sit at float-rounding level, far below
        # the REL_SAF gate.
        report = run_conformance_suite(quick=True, check_invariants=False)
        for case in report.cases:
            if case.backend == "garnet":
                assert case.adjusted_rel_error <= REL_SAF, case.message

    def test_report_to_dict_and_dump(self, tmp_path):
        report = run_conformance_suite(quick=True, check_invariants=False)
        doc = report.to_dict()
        assert doc["schema_version"] == SUITE_SCHEMA_VERSION
        assert doc["passed"] is True
        assert "tolerances" in doc
        path = tmp_path / "conformance.json"
        report.dump(path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))

    def test_memory_matrix_cases_present(self):
        report = run_conformance_suite(quick=True, check_invariants=False)
        names = {c.memory_model for c in report.sections["memory_cases"]}
        assert {"local", "hiermem", "zero-infinity"} <= names

    def test_saf_allowance_math(self):
        # Switch fabric: one extra store-and-forward hop per step.
        steps = ALGORITHM_STEPS["ring_allreduce"](8)
        assert steps == 14
        allowance = _saf_allowance_ns(
            "Switch(8)", 50.0, 8, "ring_allreduce", packet_bytes=4096)
        assert math.isclose(allowance, 14 * 4096 / 50.0)
        # Neighbor ring: packets go straight onto the next-hop link — no
        # extra fabric hop, no allowance.
        assert _saf_allowance_ns(
            "Ring(8)", 50.0, 8, "ring_allreduce", packet_bytes=4096) == 0.0
