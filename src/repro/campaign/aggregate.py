"""Campaign aggregation: per-point tables and per-sweep summary stats.

Operates on the merged campaign document
(:meth:`repro.campaign.runner.CampaignResult.to_dict`), producing the
outputs a design-space exploration actually consumes: a per-point table
over the *varying* fields (CSV or aligned text), and summary statistics
of the headline metrics via :mod:`repro.stats.summary`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.campaign.spec import canonical_json


def varying_fields(doc: Mapping[str, Any]) -> List[str]:
    """Config fields that differ between points, in first-seen order."""
    points = doc["points"]
    fields: List[str] = []
    for point in points:
        for name in point["config"]:
            if name not in fields:
                fields.append(name)
    return [
        name
        for name in fields
        if len({canonical_json(p["config"].get(name)) for p in points}) > 1
    ]


def campaign_rows(
    doc: Mapping[str, Any],
) -> Tuple[List[str], List[List[str]]]:
    """Header + rows of the per-point aggregate table.

    Columns: the varying config fields, then the headline result
    metrics.  Failed points carry their error type in the status column
    and empty metric cells.
    """
    fields = varying_fields(doc)
    headers = fields + ["total_time_ms", "nodes", "events", "status"]
    rows: List[List[str]] = []
    for point in doc["points"]:
        row = [_cell(point["config"].get(name)) for name in fields]
        result = point.get("result")
        if result is not None:
            row.extend([
                f"{result['total_time_ns'] * 1e-6:.3f}",
                str(result["nodes_executed"]),
                str(result["events_processed"]),
                "cached" if point.get("cached") else "ok",
            ])
        else:
            error = point.get("error") or {}
            row.extend(["", "", "", f"error:{error.get('type', '?')}"])
        rows.append(row)
    return headers, rows


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return "" if value is None else str(value)


def campaign_table(doc: Mapping[str, Any]) -> str:
    """The per-point table as aligned text (CLI output)."""
    from repro.stats.report import format_table

    headers, rows = campaign_rows(doc)
    return format_table(headers, rows)


def campaign_to_csv(doc: Mapping[str, Any]) -> str:
    """The per-point table as CSV text."""
    headers, rows = campaign_rows(doc)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def campaign_summary(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Per-sweep summary statistics of the headline metrics.

    ``total_time_ms`` / ``events_processed`` / ``nodes_executed`` are
    summarised over the *successful* points; ``errors`` counts the
    failed ones.
    """
    from repro.stats.summary import summary_stats

    ok = [p["result"] for p in doc["points"] if p.get("result") is not None]
    return {
        "points": len(doc["points"]),
        "errors": sum(1 for p in doc["points"] if p.get("error") is not None),
        "cached": sum(1 for p in doc["points"] if p.get("cached")),
        "total_time_ms": summary_stats(
            r["total_time_ns"] * 1e-6 for r in ok),
        "events_processed": summary_stats(
            r["events_processed"] for r in ok),
        "nodes_executed": summary_stats(
            r["nodes_executed"] for r in ok),
    }


def dump_campaign_json(doc: Mapping[str, Any],
                       path: Union[str, Path], indent: int = 2) -> None:
    """Write the merged campaign document (plus its summary) to a file."""
    out = dict(doc)
    out["summary"] = campaign_summary(doc)
    Path(path).write_text(json.dumps(out, indent=indent, sort_keys=True)
                          + "\n")


def metric_series(
    doc: Mapping[str, Any], field: str, metric: str = "total_time_ms",
) -> List[Tuple[Any, float]]:
    """``(field value, metric)`` pairs over the successful points.

    Convenience for plotting one sweep axis against a result metric;
    ``metric`` may be ``total_time_ms`` or any top-level numeric key of
    the result payload (``total_time_ns``, ``events_processed``, ...).
    """
    series: List[Tuple[Any, float]] = []
    for point in doc["points"]:
        result = point.get("result")
        if result is None:
            continue
        if metric == "total_time_ms":
            value = result["total_time_ns"] * 1e-6
        else:
            value = result[metric]
        series.append((point["config"].get(field), value))
    return series


def results_by_config(
    doc: Mapping[str, Any], *fields: str,
) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
    """Index successful result payloads by a tuple of config fields."""
    out: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for point in doc["points"]:
        if point.get("result") is None:
            continue
        key = tuple(point["config"].get(name) for name in fields)
        out[key] = point["result"]
    return out
