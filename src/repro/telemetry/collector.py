"""The telemetry collector: sampling and finalization.

One :class:`Telemetry` instance serves one simulation run, mirroring the
:class:`~repro.faults.injector.FaultInjector` contract:

- the :class:`~repro.core.simulator.Simulator` builds it before the
  layers and passes it to the constructors of the network backend and
  the execution engine; the collector holds no layer.  Memory models
  outlive a run, so the execution engine takes their counters where it
  issues each memory node
  (:meth:`~repro.memory.api.MemoryModel.telemetry_access`);
- the simulated-time sampler (:meth:`Telemetry.start_sampler`) gets the
  layers as event arguments and is not counted in ``events_processed``;
- during the run, layers feed it through small guarded hooks
  (``if telemetry is not None``) — an absent collector keeps every hook
  on its zero-cost fast path;
- :meth:`Telemetry.finalize` sweeps the given layers' end-of-run state
  (engine counters, per-link/port statistics, exposed-time breakdown)
  into the metrics registry and returns the :class:`TelemetryReport`
  that lands in ``RunResult.telemetry`` and ``--metrics-out``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.telemetry.config import TelemetryConfig, TraceLevel
from repro.telemetry.metrics import Counter, MetricsRegistry
from repro.telemetry.profiling import WallClockProfiler
from repro.telemetry.spans import SpanRecorder

#: Version of the exported ``metrics.json`` document layout.  Bump when a
#: field is renamed or re-typed; consumers key on it.
METRICS_SCHEMA_VERSION = 1

#: The sampler fires after all same-time workload events (large positive
#: priority) and samples at the instant's end, after any flow solve, so
#: sampled levels reflect the state *between* timestamps.  Like the
#: end-of-instant step, it is not counted in ``events_processed``.
SAMPLER_PRIORITY = 1_000_000


class Telemetry:
    """Per-run metrics registry + span recorder + self-profiler."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.metrics = MetricsRegistry(self.config.max_series_samples)
        self.spans = SpanRecorder(self.config.max_spans)
        self.profile = WallClockProfiler()
        level = self.config.trace_level
        # Pre-computed level gates: hot paths test one attribute.
        self.phase_spans = level >= TraceLevel.PHASE
        self.collective_spans = level >= TraceLevel.COLLECTIVE
        self.chunk_spans = level >= TraceLevel.CHUNK
        self.packet_spans = level >= TraceLevel.PACKET
        self._sample_interval = self.config.sample_interval_ns
        self._samples_taken = 0
        self._finalized = False
        # Hot-path metric caches (dict lookup beats registry tuple keying).
        self._dim_traffic: Dict[int, Counter] = {}
        self._phase_counter = self.metrics.counter("system", "chunk_phases")
        self._heap_gauge = self.metrics.gauge("events", "heap_size")
        self._last_collective: Dict[Any, float] = {}

    # -- sampling ----------------------------------------------------------------

    def start_sampler(self, engine, network, execution) -> None:
        """Schedule the simulated-time sampler over a run's layers."""
        if self._sample_interval > 0:
            engine.schedule(0.0, self._sample, engine, network, execution,
                            priority=SAMPLER_PRIORITY)

    def _sample(self, engine, network, execution) -> None:
        engine.events_processed -= 1  # counted by the run loop; not an event
        engine.at_instant_end(
            lambda: self._take_sample(engine, network, execution))

    def _take_sample(self, engine, network, execution) -> None:
        now = engine.now
        self._heap_gauge.sample(now, engine.pending)
        network.telemetry_sample(self, now)
        execution.telemetry_sample(self, now)
        self._samples_taken += 1
        if self._samples_taken % self.config.samples_per_doubling == 0:
            # Adaptive cadence: burst budget exhausted, halve the rate, so
            # total sampler events grow with log(horizon), not horizon.
            self._sample_interval *= 2
        if engine.pending > 0:
            # Only reschedule while real work remains, so the sampler
            # never keeps the event queue alive on its own.
            engine.schedule(self._sample_interval, self._sample, engine,
                            network, execution, priority=SAMPLER_PRIORITY)

    # -- hot-path hooks ----------------------------------------------------------

    def add_dim_traffic(self, dim: int, nbytes: float) -> None:
        """Charge serialized bytes to a topology dimension's counter."""
        counter = self._dim_traffic.get(dim)
        if counter is None:
            counter = self._dim_traffic[dim] = self.metrics.counter(
                "network", "dim_traffic_bytes", dim=dim)
        counter.value += nbytes

    def record_phase(self, rep_npu: int, dim: int, label: str,
                     start_ns: float, end_ns: float) -> None:
        """One traced chunk phase on its port lane.

        Span-only: callers gate on ``telemetry.chunk_spans`` *before* the
        call, so untraced runs pay one attribute test per phase and
        nothing else.  Traffic accounting
        happens once per collective in :meth:`record_collective`.
        """
        self._phase_counter.value += 1
        self.spans.add(f"port npu{rep_npu}.d{dim}", label, "chunk",
                       start_ns, end_ns)

    def record_collective(self, record, comm_key: Any) -> None:
        """One completed collective: counters, span, and dependency flow."""
        for dim, nbytes in record.traffic_by_dim.items():
            self.add_dim_traffic(dim, nbytes)
        self.metrics.counter("system", "collectives_completed").inc()
        self.metrics.counter("system", "collective_bytes").inc(
            record.payload_bytes)
        if not self.collective_spans:
            return
        track = "collectives"
        self.spans.add(
            track, record.name, "collective", record.start_ns,
            record.finish_ns,
            {"collective": record.collective,
             "payload_bytes": record.payload_bytes,
             "group_size": record.group_size,
             "rep_npu": record.rep_npu})
        previous_finish = self._last_collective.get(comm_key)
        if previous_finish is not None:
            self.spans.flow(track, previous_finish, track, record.start_ns,
                            name="comm-order")
        self._last_collective[comm_key] = record.finish_ns

    def record_memory(self, location: str, size_bytes: float,
                      duration_ns: float, fabric: bool = False) -> None:
        """One memory node issued by the execution engine."""
        labels = {"location": location}
        if fabric:
            labels["via"] = "fabric"
        self.metrics.counter("memory", "bytes", **labels).inc(size_bytes)
        self.metrics.counter("memory", "accesses", **labels).inc()
        self.metrics.counter("memory", "busy_ns", **labels).inc(duration_ns)

    # -- finalization ------------------------------------------------------------

    def finalize(self, total_ns: float, engine, network,
                 breakdown=None) -> "TelemetryReport":
        """Sweep the layers' end-of-run state into the registry and build
        the report."""
        if self._finalized:
            raise RuntimeError("telemetry finalized twice")
        self._finalized = True
        metrics = self.metrics
        metrics.counter("events", "events_processed").value = float(
            engine.events_processed)
        metrics.counter("events", "events_scheduled").value = float(
            engine.events_scheduled)
        metrics.counter("events", "cancels").value = float(engine.cancels)
        metrics.counter("events", "compactions").value = float(
            engine.compactions)
        network.telemetry_finalize(self, total_ns)
        if breakdown is not None:
            for activity, exposed in breakdown.exposed_ns.items():
                self.metrics.gauge(
                    "system", "exposed_ns",
                    activity=activity.value).set(exposed)
            self.metrics.gauge("system", "idle_ns").set(breakdown.idle_ns)
        if self.phase_spans:
            self.spans.add("run", "run", "run", 0.0, total_ns)
        return TelemetryReport(
            trace_level=self.config.trace_level.name.lower(),
            metrics=self.metrics,
            spans=self.spans,
            profile=self.profile,
        )


@dataclass
class TelemetryReport:
    """The finalized telemetry of one run (``RunResult.telemetry``)."""

    trace_level: str
    metrics: MetricsRegistry
    spans: SpanRecorder
    profile: WallClockProfiler
    schema_version: int = METRICS_SCHEMA_VERSION

    def metric_value(self, layer: str, name: str, **labels: Any) -> float:
        """Scalar value of one metric (0.0 if never recorded)."""
        return self.metrics.value(layer, name, **labels)

    def to_dict(self, include_profile: bool = True) -> Dict[str, Any]:
        """JSON-ready document (the ``metrics.json`` schema).

        ``include_profile=False`` drops the wall-clock profile block —
        used by :func:`repro.stats.export.result_to_dict`, which promises
        bit-reproducible output across runs.
        """
        doc: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "trace_level": self.trace_level,
            "metrics": self.metrics.to_list(),
            "spans": self.spans.summary(),
        }
        if include_profile:
            doc["profile"] = self.profile.to_dict()
        return doc


def dump_metrics_json(report: TelemetryReport, path: Union[str, Path],
                      indent: int = 2) -> None:
    """Write a report to a ``metrics.json`` file."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=indent))


def load_metrics_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read back a dumped metrics document (as a plain dict)."""
    return json.loads(Path(path).read_text())
