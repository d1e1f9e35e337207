"""Simulation results: totals, breakdowns, per-collective records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.stats.breakdown import ActivityLog, Breakdown
from repro.stats.resilience import ResilienceReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.folding import FoldReport
    from repro.telemetry import TelemetryReport
    from repro.validate.invariants import InvariantReport


@dataclass
class CollectiveRecord:
    """One completed collective: identity, timing, per-dim traffic.

    ``traffic_by_dim`` holds the bytes each NPU serialized into each
    topology dimension — the quantity the paper's Table IV tabulates.
    """

    name: str
    collective: str
    payload_bytes: float
    rep_npu: int
    group_size: int
    start_ns: float
    finish_ns: float
    traffic_by_dim: Dict[int, float] = field(default_factory=dict)
    # Simulated members that issued a trace node for this collective
    # (sorted); symmetric replicas without traces are not listed.  Drives
    # the cross-NPU flow arrows in the Chrome trace export.
    members: Tuple[int, ...] = ()

    @property
    def duration_ns(self) -> float:
        return self.finish_ns - self.start_ns


@dataclass
class RunResult:
    """Outcome of one simulated run.

    Attributes:
        total_time_ns: Simulation time when the last node completed.
        breakdown: System-level exposed-time breakdown (averaged over
            simulated NPUs).
        per_npu_breakdown: Same, per NPU.
        nodes_executed: ET nodes completed.
        events_processed: Raw simulator events fired (a cost metric).
        collectives: Per-collective records in completion order.
        activity: The raw per-NPU interval log (drives timeline rendering
            via :mod:`repro.stats.timeline`).
        resilience: Fault/checkpoint accounting; present only when a
            fault schedule was injected.
        telemetry: Finalised :class:`repro.telemetry.TelemetryReport`;
            present only when a telemetry config was given.  Its
            metrics and spans are simulated-time quantities (and hence
            reproducible); its wall-clock profile is host-dependent and
            is therefore excluded from ``result_to_dict`` exports, like
            ``wall_time_s``.
        invariants: :class:`repro.validate.InvariantReport` from the
            runtime invariant checker; present only when an invariant
            config was given (``--check-invariants``).
        wall_time_s: Host wall-clock seconds the simulation took.  A cost
            metric only — deliberately excluded from
            :func:`repro.stats.export.result_to_dict` so exported results
            stay bit-reproducible across runs.
        folding: :class:`repro.core.folding.FoldReport` describing the
            symmetry-folding decision.  Deliberately excluded from
            ``result_to_dict`` so a folded run's exported document stays
            bit-identical to the equivalent unfolded run's.
    """

    total_time_ns: float
    breakdown: Breakdown
    per_npu_breakdown: Dict[int, Breakdown]
    nodes_executed: int
    events_processed: int
    collectives: List[CollectiveRecord] = field(default_factory=list)
    activity: Optional[ActivityLog] = None
    resilience: Optional[ResilienceReport] = None
    telemetry: Optional["TelemetryReport"] = None
    invariants: Optional["InvariantReport"] = None
    wall_time_s: Optional[float] = None
    folding: Optional["FoldReport"] = None

    @property
    def simulation_rate_eps(self) -> Optional[float]:
        """Simulator throughput in events/second, or None if not timed."""
        if not self.wall_time_s:
            return None
        return self.events_processed / self.wall_time_s

    @property
    def total_time_ms(self) -> float:
        return self.total_time_ns * 1e-6

    @property
    def total_time_us(self) -> float:
        return self.total_time_ns * 1e-3

    def total_collective_time_ns(self) -> float:
        return sum(r.duration_ns for r in self.collectives)
