"""Timeline (Gantt) rendering of per-NPU activity.

Turns an :class:`~repro.stats.breakdown.ActivityLog` into a plain-text
Gantt chart — the quickest way to *see* pipeline bubbles, exposed
communication, and compute/communication overlap when debugging a
workload or a schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.stats.breakdown import PRIORITY, Activity, ActivityLog

_GLYPH = {
    Activity.COMPUTE: "#",
    Activity.MEM_LOCAL: "m",
    Activity.MEM_REMOTE: "R",
    Activity.COMM: "~",
}
IDLE_GLYPH = "."

LEGEND = "legend: # compute   m local-mem   R remote-mem   ~ comm   . idle"


def render_timeline(
    log: ActivityLog,
    total_ns: float,
    width: int = 80,
    npus: Optional[List[int]] = None,
) -> str:
    """Render one text row per NPU, ``width`` columns across ``total_ns``.

    Each column shows the highest-priority activity active during that
    slice (matching the exposed-time accounting); idle slices print dots.
    """
    if total_ns <= 0:
        raise ValueError(f"total_ns must be positive, got {total_ns}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    rows = []
    selected = npus if npus is not None else log.npus()
    label_width = max((len(str(n)) for n in selected), default=1)
    slice_ns = total_ns / width
    for npu in selected:
        cells = [IDLE_GLYPH] * width
        best: List[Optional[Activity]] = [None] * width
        for start, end, activity in log.intervals(npu):
            first = min(width - 1, int(start / slice_ns))
            last = min(width - 1, int(max(start, end - 1e-9) / slice_ns))
            for i in range(first, last + 1):
                if best[i] is None or PRIORITY[activity] < PRIORITY[best[i]]:
                    best[i] = activity
                    cells[i] = _GLYPH[activity]
        rows.append(f"npu {str(npu).rjust(label_width)} |{''.join(cells)}|")
    header = (f"timeline: {total_ns / 1e6:.3f} ms across {width} cols "
              f"({slice_ns / 1e3:.1f} us/col)")
    return "\n".join([header] + rows + [LEGEND])


def utilization_by_npu(
    log: ActivityLog, total_ns: float
) -> Dict[int, Dict[str, float]]:
    """Per-NPU fractions of each activity plus idle (sums to 1.0)."""
    out: Dict[int, Dict[str, float]] = {}
    for npu in log.npus():
        b = log.breakdown(npu, total_ns)
        fractions = {
            a.value: b.exposed_ns.get(a, 0.0) / total_ns for a in Activity
        }
        fractions["idle"] = b.idle_ns / total_ns
        out[npu] = fractions
    return out
