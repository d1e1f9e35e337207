"""Smoke test of the end-to-end benchmark (outside tier-1: testpaths = tests).

Runs every workload once in ``--quick`` mode (one timed point, 100 serve
requests), untraced and traced, and checks the contract the full
benchmark relies on::

    python -m pytest benchmarks/e2e/test_bench_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _runs(tmp_path: Path, *extra: str):
    out = tmp_path / ("traced.json" if extra else "plain.json")
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--quick", "--out", str(out),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text())["runs"]


def test_quick_benchmark_emits_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    plain = _runs(tmp_path)
    traced = _runs(tmp_path, "--trace")
    assert time.perf_counter() - start < 90

    names = {w["name"] for w in spec["workloads"]}
    for runs, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert {run["workload"] for run in runs} == names
        declared = {d["name"]: d["unit"] for d in spec[section]}
        for run in runs:
            result = run["result"]
            # Digest mismatches, failed requests and served responses that
            # differ from in-process runs all count as failures.
            assert result["correct"], run
            assert result["failed"] == 0 and result["attempted"] >= 1, run
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert emitted == declared, run["workload"]
    for run in traced:
        assert run["result"]["metrics"]["trace.coverage"]["value"] == 1.0
