"""Telemetry configuration: trace levels and collection knobs.

Telemetry follows the same activation contract as the fault subsystem
(:mod:`repro.faults`): a :class:`~repro.core.config.SystemConfig` without
a :class:`TelemetryConfig` builds no collector, every instrumentation hook
stays on its ``if telemetry is None`` fast path, and results are
bit-identical to a build without the telemetry subsystem.  The overhead
budget of the enabled-but-idle state is enforced by
``benchmarks/perf/test_perf_smoke.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import InputError


class TelemetryError(InputError):
    """Raised for invalid telemetry configuration."""


class TraceLevel(enum.IntEnum):
    """Span-recording depth along the run > collective > chunk > packet
    hierarchy.  Levels are cumulative: ``CHUNK`` also records everything
    ``COLLECTIVE`` does.  Metrics and counter tracks are independent of
    the level — any enabled telemetry collects them; the level gates only
    how many *spans* the recorder emits (the expensive part).
    """

    OFF = 0          # metrics only; no spans
    PHASE = 1        # run span + per-NPU activity phases (the base trace)
    COLLECTIVE = 2   # + one span and dependency arrow per collective
    CHUNK = 3        # + one span per chunk phase (port occupation)
    PACKET = 4       # + one span per packet segment (detailed backends)

    @classmethod
    def parse(cls, name: str) -> "TraceLevel":
        """Parse a CLI-style level name (``"chunk"``) into a level."""
        try:
            return cls[name.strip().upper()]
        except KeyError:
            valid = ", ".join(level.name.lower() for level in cls)
            raise TelemetryError(
                f"unknown trace level {name!r}; expected one of: {valid}")


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything the telemetry collector needs.

    Attributes:
        trace_level: Span depth (see :class:`TraceLevel`).
        sample_interval_ns: Initial period of the simulated-time sampler
            that feeds gauge time series (heap size, queue depths,
            scheduler occupancy).  The sampler is adaptive — the interval
            doubles whenever a burst of ``samples_per_doubling`` fires —
            so long runs stay cheap without knowing the horizon up
            front.  ``0`` disables sampling entirely.
        samples_per_doubling: Samples taken before the interval doubles.
        max_series_samples: Per-series retention cap; older points are
            decimated (every other sample dropped) when exceeded.
        max_spans: Global span cap; spans past the cap are counted as
            dropped rather than recorded (no silent truncation — the
            drop count is exported).
        max_link_metrics: Per-link metric cap at finalization; the
            heaviest links are kept and the dropped count is exported.
    """

    trace_level: TraceLevel = TraceLevel.PHASE
    sample_interval_ns: float = 1000.0
    samples_per_doubling: int = 256
    max_series_samples: int = 512
    max_spans: int = 100_000
    max_link_metrics: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.trace_level, TraceLevel):
            raise TelemetryError(
                f"trace_level must be a TraceLevel, got {self.trace_level!r}")
        if self.sample_interval_ns < 0:
            raise TelemetryError(
                f"sample_interval_ns must be >= 0, got {self.sample_interval_ns}")
        if self.samples_per_doubling < 1:
            raise TelemetryError(
                f"samples_per_doubling must be >= 1, "
                f"got {self.samples_per_doubling}")
        if self.max_series_samples < 2:
            raise TelemetryError(
                f"max_series_samples must be >= 2, got {self.max_series_samples}")
        if self.max_spans < 0:
            raise TelemetryError(f"max_spans must be >= 0, got {self.max_spans}")
        if self.max_link_metrics < 1:
            raise TelemetryError(
                f"max_link_metrics must be >= 1, got {self.max_link_metrics}")
