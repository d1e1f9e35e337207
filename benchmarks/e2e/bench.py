#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the simulator on five design points.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench.py --workload NAME [--seed N]
        [--seconds S] [--trace [0|1]]        # one run, in this process
    python3 benchmarks/e2e/bench.py [--runs K] [--trace] [--quick]
        [--out PATH]                         # every workload, K seeds each,
                                             # one fresh process per run
    python3 benchmarks/e2e/bench.py --compare A.json B.json
    python3 benchmarks/e2e/bench.py --pin    # rewrite expected.json

A run prints one line per metric, then as its last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` untraced, or its per-layer metrics with
``--trace 1``.  It exits 1 when any check fails (a result digest that
differs from ``expected.json``, a failed or mismatching request,
incomplete trace coverage).  The workloads and metrics are described in
``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"

#: The workload served over HTTP; every other one is in workloads.py.
SERVE = "tableV-serve"

#: Run sizes: normal runs are bounded by --seconds; --quick runs do one
#: timed point (100 serve requests, 20 in-process serve points).
FULL = {"max_points": 10 ** 9, "max_requests": 10 ** 9, "inproc_points": 200}
QUICK = {"max_points": 1, "max_requests": 100, "inproc_points": 20}


def definitions() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_simulator() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"error: imported repro from {repro.__file__}, not from "
                 f"{ROOT / 'src'}")


# -- one run -------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool,
            sizes: Dict[str, int]) -> int:
    _import_simulator()
    import workloads

    if name != SERVE:
        expected = json.loads(EXPECTED.read_text())[name]
        metrics, checks, notes = workloads.run_sim(
            name, seconds, sizes["max_points"], traced, expected)
    else:
        import serve_load

        workdir = ROOT / ".bench_tmp" / f"serve-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            metrics, checks, notes = serve_load.run_serve(
                ROOT, workdir, seconds, sizes["max_requests"],
                sizes["inproc_points"], traced, seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run is still using it

    declared = definitions()["per_layer" if traced else "end_to_end"]
    out = {}
    for definition in declared:
        metric = definition["name"]
        if metric not in metrics and metric.startswith("campaign."):
            metrics[metric] = 0.0  # the campaign path runs only under serve
        if metric in metrics:
            out[metric] = {"value": metrics[metric],
                           "unit": definition["unit"]}
        else:
            checks.check(False, f"metric {metric} was not measured")
    print(f"{name}  seed={seed}  trace={int(traced)}  "
          + "  ".join(f"{k}={v}" for k, v in notes.items()))
    for metric, value in out.items():
        print(f"  {metric:<28} {value['value']:>16.6g} {value['unit']}")
    for problem in checks.problems:
        print(f"  FAILED: {problem}")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": out}))
    return 0 if correct else 1


# -- every workload, one fresh process per run ---------------------------------------


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    runs: List[Dict[str, Any]] = []
    status = 0
    for index in range(args.runs):
        seed = args.seed + index
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.quick:
                command.append("--quick")
            proc = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                status = 1
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            runs.append({"workload": name, "seed": seed, "trace": args.trace,
                         "returncode": proc.returncode, "result": result})
    _summarize(runs)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": args.seconds, "quick": args.quick,
            "cpus": os.cpu_count(), "python": sys.version.split()[0],
            "runs": runs}, indent=1) + "\n")
        print(f"wrote {args.out}")
    return status


def _summarize(runs: List[Dict[str, Any]]) -> None:
    print("\nmedians over runs")
    for name in dict.fromkeys(run["workload"] for run in runs):
        results = [r["result"] for r in runs
                   if r["workload"] == name and r["result"]]
        if not results:
            continue
        print(f"{name}  ({len(results)} runs, "
              f"{sum(not r['correct'] for r in results)} incorrect)")
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            print(f"  {metric:<28} {median(values):>16.6g} {first['unit']}")


# -- pinning the correctness oracle --------------------------------------------------


def pin() -> int:
    """Record the result digest and model error of every simulation workload."""
    _import_simulator()
    import workloads

    pinned = {}
    for name, w in workloads.SIM_WORKLOADS.items():
        doc, _t = w.point()
        pinned[name] = {"sha256": workloads.digest(doc),
                        "total_time_ns": doc["total_time_ns"],
                        "events_processed": doc["events_processed"],
                        "model_error": w.model_error(doc)}
        print(name, pinned[name])
    EXPECTED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv=None) -> int:
    spec = definitions()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (orders the serve requests)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one timed point per workload (smoke test)")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload when running all of them")
    parser.add_argument("--out", help="write every run's result here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the current code")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.compare:
        from compare import compare, format_rows

        defs = {d["name"]: d for d in spec["end_to_end"] + spec["per_layer"]}
        print(format_rows(compare(*args.compare, defs)))
        return 0
    if args.pin:
        return pin()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), QUICK if args.quick else FULL)
    return run_all(args, names)


if __name__ == "__main__":
    raise SystemExit(main())
