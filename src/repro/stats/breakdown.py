"""Exposed-time accounting.

Every node execution is logged as an interval ``(npu, start, end,
activity)``.  The breakdown sweeps each NPU's timeline and charges every
instant to the highest-priority activity running at that instant:

    COMPUTE > MEM_LOCAL > MEM_REMOTE > COMM > (nothing running: IDLE)

so e.g. "exposed communication" is exactly the communication time not
hidden behind compute or memory (paper Figs. 9 and 11: "Non-hidden time
of an operation is defined as exposed time").
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Tuple


class Activity(enum.Enum):
    """What an NPU is doing; declaration order is the exposure priority."""

    # Identity hash (C-level, no Python frame) for the per-interval
    # PRIORITY lookup; members compare by identity anyway.
    __hash__ = object.__hash__

    COMPUTE = "compute"
    MEM_LOCAL = "mem_local"
    MEM_REMOTE = "mem_remote"
    COMM = "comm"


#: Exposure rank of each activity (lower wins); the one priority table.
PRIORITY: Dict[Activity, int] = {a: i for i, a in enumerate(Activity)}
_ACTIVITIES = tuple(Activity)


@dataclass
class Breakdown:
    """Exposed time per activity, plus idle, summing to ``total_ns``."""

    total_ns: float
    exposed_ns: Dict[Activity, float]
    idle_ns: float

    def fraction(self, activity: Activity) -> float:
        return self.exposed_ns.get(activity, 0.0) / self.total_ns if self.total_ns else 0.0

    @property
    def compute_ns(self) -> float:
        return self.exposed_ns.get(Activity.COMPUTE, 0.0)

    @property
    def exposed_comm_ns(self) -> float:
        return self.exposed_ns.get(Activity.COMM, 0.0)

    @property
    def exposed_mem_local_ns(self) -> float:
        return self.exposed_ns.get(Activity.MEM_LOCAL, 0.0)

    @property
    def exposed_mem_remote_ns(self) -> float:
        return self.exposed_ns.get(Activity.MEM_REMOTE, 0.0)

    @staticmethod
    def merge(parts: List["Breakdown"]) -> "Breakdown":
        """Average several NPUs' breakdowns into a system-level one."""
        if not parts:
            return Breakdown(0.0, {}, 0.0)
        n = len(parts)
        total = sum(p.total_ns for p in parts) / n
        exposed: Dict[Activity, float] = {}
        for activity in Activity:
            exposed[activity] = sum(p.exposed_ns.get(activity, 0.0) for p in parts) / n
        idle = sum(p.idle_ns for p in parts) / n
        return Breakdown(total, exposed, idle)


class ActivityLog:
    """Append-only interval log, grouped per NPU."""

    def __init__(self) -> None:
        self._intervals: Dict[
            int, List[Tuple[float, float, Activity, str]]] = defaultdict(list)

    def record(self, npu: int, start: float, end: float, activity: Activity,
               label: str = "") -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: ({start}, {end})")
        if end > start:
            self._intervals[npu].append((start, end, activity, label))

    def npus(self) -> List[int]:
        return sorted(self._intervals)

    def intervals(self, npu: int) -> List[Tuple[float, float, Activity]]:
        return [(s, e, a) for s, e, a, _ in self._intervals.get(npu, ())]

    def labeled_intervals(
        self, npu: int
    ) -> List[Tuple[float, float, Activity, str]]:
        return list(self._intervals.get(npu, ()))

    def breakdown(self, npu: int, total_ns: float) -> Breakdown:
        return compute_breakdown(self.intervals(npu), total_ns)

    def merged_breakdown(self, total_ns: float) -> Breakdown:
        """System breakdown averaged over all NPUs that logged anything."""
        parts = [self.breakdown(npu, total_ns) for npu in self.npus()]
        return Breakdown.merge(parts) if parts else Breakdown(total_ns, {}, total_ns)


def compute_breakdown(
    intervals: List[Tuple[float, float, Activity]], total_ns: float
) -> Breakdown:
    """Sweep one NPU's intervals and charge time by priority.

    Builds the elementary segments between interval boundaries, tracks how
    many intervals of each activity cover each segment (counters indexed by
    :data:`PRIORITY` rank), and charges the segment to the highest-priority
    covered activity.
    """
    if total_ns < 0:
        raise ValueError(f"negative total time {total_ns}")
    events: List[Tuple[float, int, int]] = []
    for start, end, activity in intervals:
        rank = PRIORITY[activity]
        events.append((start, +1, rank))
        events.append((end, -1, rank))
    events.sort(key=itemgetter(0))

    ranks = range(len(_ACTIVITIES))
    exposed = [0.0 for _ in ranks]
    active = [0 for _ in ranks]
    covered = 0.0
    prev_t = events[0][0] if events else 0.0
    for t, delta, rank in events:
        if t != prev_t:
            # Close the segment [prev_t, t): every event at prev_t is in.
            for winner in ranks:
                if active[winner] > 0:
                    span = t - prev_t
                    exposed[winner] += span
                    covered += span
                    break
            prev_t = t
        active[rank] += delta

    idle = max(0.0, total_ns - covered)
    return Breakdown(total_ns=total_ns,
                     exposed_ns=dict(zip(_ACTIVITIES, exposed)),
                     idle_ns=idle)
