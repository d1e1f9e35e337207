"""Unified telemetry: metrics registry, span tracing, self-profiling.

The observability layer of the simulator (see ``docs/observability.md``):

- a **metrics registry** of counters, gauges, and time-weighted
  histograms keyed by ``(layer, name, labels)``, wired into the event
  engine, all three network backends, the system layer, and the memory
  layer;
- a **span model** — hierarchical simulated-time spans (run >
  collective > chunk > packet, depth set by
  :class:`TraceLevel`) plus dependency flows, exported as Perfetto
  counter tracks and flow arrows through :mod:`repro.stats.chrometrace`;
- **self-profiling** — wall-clock attribution of simulator sections,
  surfaced in ``RunResult.telemetry`` and the ``--metrics-out`` export.

Telemetry is zero-cost when disabled: a :class:`~repro.core.config.
SystemConfig` without a :class:`TelemetryConfig` builds no collector and
every instrumentation hook stays on its ``if telemetry is None`` fast
path (same contract as :mod:`repro.faults`).

Typical use::

    from repro import SystemConfig, simulate
    from repro.telemetry import TelemetryConfig, TraceLevel

    config = SystemConfig(topology=topo, telemetry=TelemetryConfig(
        trace_level=TraceLevel.COLLECTIVE))
    result = simulate(traces, config)
    print(result.telemetry.metric_value("network", "dim_traffic_bytes", dim=0))
"""

from repro.telemetry.collector import (
    METRICS_SCHEMA_VERSION,
    Telemetry,
    TelemetryReport,
    dump_metrics_json,
    load_metrics_json,
)
from repro.telemetry.config import TelemetryConfig, TelemetryError, TraceLevel
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    TimeSeries,
    TimeWeightedHistogram,
)
from repro.telemetry.profiling import WallClockProfiler
from repro.telemetry.spans import SpanRecorder

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SpanRecorder",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryError",
    "TelemetryReport",
    "TimeSeries",
    "TimeWeightedHistogram",
    "TraceLevel",
    "WallClockProfiler",
    "dump_metrics_json",
    "load_metrics_json",
]
