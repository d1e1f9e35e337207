"""``bench.py --compare A.json B.json``: per-(metric, workload) verdicts.

A and B are files written by ``bench.py --runs N --out PATH``.  Each row
gives both medians and quartiles over the runs, the metric's bound from
``BENCHMARK.json`` and a verdict:

- ``improved``: B reads better than A in at least nine tenths of the
  seed-paired runs and the medians differ by more than A's interquartile
  distance, or every B run reads better than every A run;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread (interquartile distance over the
  median, on either side) is wider than the bound;
- ``unchanged``: otherwise.

Per-layer metrics have no bound; their rows carry ``-`` as verdict.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: Sequence[float], b: Sequence[float],
            pairs: List[Tuple[float, float]], bound: Optional[float],
            lower_is_better: bool) -> str:
    if bound is None:
        return "-"
    sign = -1.0 if lower_is_better else 1.0

    def better(x: float, y: float) -> bool:
        return (x - y) * sign > 0

    ma, mb = median(a), median(b)
    q1a, q3a = quartiles(a)
    wins = sum(better(vb, va) for va, vb in pairs)
    if all(better(vb, va) for va in a for vb in b) or (
            pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a):
        return "improved"
    if (ma - mb) * sign > bound * abs(ma):
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "unchanged"


def _by_key(doc: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[int, float]]:
    """(workload, metric) -> {seed: value} over every run in a runs file."""
    out: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in doc["runs"]:
        result = run.get("result") or {}
        for name, metric in result.get("metrics", {}).items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = \
                metric["value"]
    return out


def compare(path_a: Path, path_b: Path,
            definitions: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) present in both files."""
    a = _by_key(json.loads(Path(path_a).read_text()))
    b = _by_key(json.loads(Path(path_b).read_text()))
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        definition = definitions.get(name, {})
        va, vb = a[key], b[key]
        pairs = [(va[s], vb[s]) for s in sorted(set(va) & set(vb))]
        xs, ys = list(va.values()), list(vb.values())
        rows.append({
            "workload": workload, "metric": name,
            "unit": definition.get("unit", ""),
            "a": (median(xs), *quartiles(xs)), "b": (median(ys),
                                                     *quartiles(ys)),
            "bound": definition.get("bound"),
            "verdict": verdict(xs, ys, pairs, definition.get("bound"),
                               definition.get("better") == "lower"),
        })
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    header = (f"{'workload':<20} {'metric':<27} {'A median [q1, q3]':<33} "
              f"{'B median [q1, q3]':<33} {'bound':>5}  verdict")
    lines = [header, "-" * len(header)]
    for row in rows:
        a = "%.5g [%.5g, %.5g]" % row["a"]
        b = "%.5g [%.5g, %.5g]" % row["b"]
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        lines.append(f"{row['workload']:<20} {row['metric']:<27} {a:<33} "
                     f"{b:<33} {bound:>5}  {row['verdict']}")
    return "\n".join(lines)
