"""Resilience accounting: what faults cost a run.

A :class:`ResilienceReport` extends a run's timing results with the
fault-injection view: how long the faulted run took versus the fault-free
baseline, how much time each fault injected (per-fault attribution), and
the analytic checkpoint/restart overheads that permanent failures add on
top of the simulated time (see :mod:`repro.faults.checkpoint`).

Terminology:

- **simulated time** (``total_ns``): event-driven finish time of the
  faulted run — stragglers, stalls, and degraded links already stretched
  it.
- **effective time**: simulated time plus checkpoint stalls plus
  restart/replay losses from permanent failures.
- **goodput**: useful work per effective wall-clock second, as a fraction
  — baseline time over effective time when a baseline is known, else
  estimated from the attributed injected delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.stats.report import format_table

if TYPE_CHECKING:  # repro.faults imports this module: no runtime import back
    from repro.faults.spec import FaultSpec


@dataclass
class FaultRecord:
    """One fault's observed lifecycle in a run.

    ``extra_ns`` is the delay the fault *injected* — the extra port
    serialization and compute time of the work done inside its window
    (split evenly when several faults slow the same segment).
    It is an attribution sum, not a bound on the wall-clock impact: it
    adds up the stretch of every reservation the fault slows, even
    reservations that overlap in time or lie off the critical path
    (a straggler charges both its compute and its concurrent port time),
    while queueing and dependency chains can amplify a stretch instead.
    The exact loss is faulted minus baseline
    (:attr:`ResilienceReport.degradation_ns` with a baseline).
    """

    fault: FaultSpec
    activated_ns: Optional[float] = None
    cleared_ns: Optional[float] = None
    extra_ns: float = 0.0

    @property
    def fired(self) -> bool:
        return self.activated_ns is not None


@dataclass
class ResilienceReport:
    """Fault/resilience summary of one simulated run."""

    total_ns: float
    records: List[FaultRecord] = field(default_factory=list)
    baseline_ns: Optional[float] = None
    checkpoint_interval_ns: Optional[float] = None
    num_checkpoints: int = 0
    checkpoint_overhead_ns: float = 0.0
    restart_lost_ns: float = 0.0
    num_failures: int = 0

    @property
    def effective_total_ns(self) -> float:
        """Simulated time plus checkpoint and restart/replay overheads."""
        return self.total_ns + self.checkpoint_overhead_ns + self.restart_lost_ns

    @property
    def injected_ns(self) -> float:
        """Total delay charged to faults (attribution sum)."""
        return sum(r.extra_ns for r in self.records)

    @property
    def degradation_ns(self) -> float:
        """Wall-clock stretch from degradation faults.

        Exact (faulted minus baseline) when a baseline is known; else the
        attributed injected delay, an estimate that may lie above or
        below the exact loss (see :class:`FaultRecord`).
        """
        if self.baseline_ns is not None:
            return self.total_ns - self.baseline_ns
        return self.injected_ns

    @property
    def time_lost_ns(self) -> float:
        """Everything the faults cost: degradation + checkpoints + restarts."""
        return (self.degradation_ns + self.checkpoint_overhead_ns
                + self.restart_lost_ns)

    @property
    def useful_ns(self) -> float:
        """Fault-free time the same work would have taken."""
        if self.baseline_ns is not None:
            return self.baseline_ns
        return max(0.0, self.total_ns - self.injected_ns)

    @property
    def goodput(self) -> float:
        """Useful fraction of effective wall-clock time, in [0, 1]."""
        if self.effective_total_ns <= 0:
            return 1.0
        return min(1.0, self.useful_ns / self.effective_total_ns)

    def format(self) -> str:
        """Render the report as aligned plain-text tables."""
        lines = []
        ms = 1e-6
        lines.append(f"simulated : {self.total_ns * ms:.3f} ms")
        if self.baseline_ns is not None:
            lines.append(f"baseline  : {self.baseline_ns * ms:.3f} ms "
                         f"(degradation +{self.degradation_ns * ms:.3f} ms)")
        if self.checkpoint_interval_ns is not None:
            lines.append(
                f"checkpoint: {self.num_checkpoints} snapshots every "
                f"{self.checkpoint_interval_ns * ms:.3f} ms "
                f"(+{self.checkpoint_overhead_ns * ms:.3f} ms)")
        if self.num_failures:
            lines.append(f"restarts  : {self.num_failures} permanent "
                         f"failure(s) (+{self.restart_lost_ns * ms:.3f} ms)")
        lines.append(f"effective : {self.effective_total_ns * ms:.3f} ms   "
                     f"goodput {self.goodput * 100:.1f}%   "
                     f"lost {self.time_lost_ns * ms:.3f} ms")
        if self.records:
            rows = []
            for record in self.records:
                if record.activated_ns is None:
                    window = "never fired"
                elif record.cleared_ns is None:
                    window = f"{record.activated_ns * ms:.3f} ms -> end"
                else:
                    window = (f"{record.activated_ns * ms:.3f} -> "
                              f"{record.cleared_ns * ms:.3f} ms")
                rows.append([record.fault.describe(), window,
                             f"{record.extra_ns * ms:.3f}"])
            lines.append("")
            lines.append(format_table(
                ["fault", "active window", "injected (ms)"], rows))
        return "\n".join(lines)
