"""Runtime invariant checking — pillar 1 of :mod:`repro.validate`.

Like telemetry and fault injection, an :class:`InvariantChecker` is
passed to the constructors of the event engine, the network backend and
the execution engine, whose ``invariants`` slot is ``None`` without a
config; every hook guards with ``if inv is not None`` — an absent
config keeps the simulation on the exact un-instrumented code path
(bit-identical results, enforced by the perf-smoke A/B gate).  Memory
models outlive a run and may be shared between runs, so they carry no
slot: the execution engine checks each memory access where it issues
the memory node.  The checker holds no layer: its ``finalize`` is given
the layers to sweep, and each network backend sweeps its own end-of-run
state (:meth:`~repro.network.api.NetworkBackend.invariants_finalize`).

Checked physical laws:

- **causality** — no event scheduled at a non-finite time (the engine
  already rejects negative delays), and no port reservation that starts
  before the current simulation time or runs backwards;
- **conservation** — a collective's total serialized traffic equals the
  closed-form telescoped total for its pattern (order-independent: an
  All-Reduce over effective group size ``G`` serializes ``2p(1-1/G)``
  per NPU however its per-dimension phases were ordered or mixed), and
  hierarchical-memory pipeline chunk counts balance the bytes moved;
- **capacity** — max-min flow allocations never exceed link capacity,
  packet links never carry more serialization time than their busy span,
  and analytical egress ports are never double-booked;
- **sanity** — non-negative, finite times everywhere; no leaked
  rendezvous, posted receives, or unclaimed arrivals at end of run.

Violations are recorded as structured :class:`InvariantViolation`
records (``strict=True`` raises :class:`InvariantError` at the first
one) and surfaced through the telemetry metrics registry when the run
has a collector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.memory.remote import HierarchicalRemoteMemory
from repro.network.building_blocks import alltoall_traffic_fraction
from repro.trace.node import CollectiveType

#: Version of the :meth:`InvariantReport.to_dict` document layout.
INVARIANTS_SCHEMA_VERSION = 1


class InvariantError(RuntimeError):
    """Raised in strict mode when an invariant is violated."""


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant: where, what, when, and the numbers.

    Attributes:
        layer: Subsystem that tripped ("events", "network", "system",
            "memory").
        name: Invariant identifier ("causality", "conservation",
            "capacity", "finite_time", "leak", ...).
        message: Human-readable diagnostic.
        time_ns: Simulation time of detection.
        context: The raw quantities behind the check (JSON scalars).
    """

    layer: str
    name: str
    message: str
    time_ns: float
    context: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "name": self.name,
            "message": self.message,
            "time_ns": self.time_ns,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class InvariantConfig:
    """Checker knobs.

    Attributes:
        strict: Raise :class:`InvariantError` at the first violation
            instead of recording and continuing.
        max_violations: Stop recording (but keep counting) beyond this
            many violations, bounding memory on a badly broken run.
        rel_tolerance: Relative slack for conservation comparisons —
            covers float accumulation over chunked phase sums, nothing
            more (the laws are exact in real arithmetic).
    """

    strict: bool = False
    max_violations: int = 1000
    rel_tolerance: float = 1e-6


@dataclass
class InvariantReport:
    """Outcome of a checked run: totals plus the violation records."""

    checks: int
    violations_total: int
    violations: List[InvariantViolation] = field(default_factory=list)
    schema_version: int = INVARIANTS_SCHEMA_VERSION

    @property
    def ok(self) -> bool:
        return self.violations_total == 0

    def counts_by_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            key = f"{v.layer}/{v.name}"
            out[key] = out.get(key, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "checks": self.checks,
            "violations_total": self.violations_total,
            "ok": self.ok,
            "counts_by_name": self.counts_by_name(),
            "violations": [v.to_dict() for v in self.violations],
        }


def expected_collective_traffic(
    collective: CollectiveType,
    payload_bytes: float,
    group_size: int,
    dim_specs: Optional[Dict[int, Any]] = None,
    active_dims: Tuple[int, ...] = (),
) -> float:
    """Order-independent total serialized bytes per NPU for a collective.

    The per-dimension phase traffic telescopes: a Reduce-Scatter pass
    over dims of sizes ``k_1..k_n`` serializes ``p(1 - 1/G)`` with
    ``G = prod(k_i)`` regardless of order, an All-Gather pass from shard
    ``p/G`` back to ``p`` serializes the same, and All-to-All phases run
    at constant payload.  This makes the law a *conservation* check: any
    scheduler (baseline order, Themis fluid-limit LP mix)
    must land on the same total.
    """
    if group_size <= 1 or payload_bytes <= 0:
        return 0.0
    if collective is CollectiveType.ALL_REDUCE:
        return 2.0 * payload_bytes * (1.0 - 1.0 / group_size)
    if collective in (CollectiveType.REDUCE_SCATTER, CollectiveType.ALL_GATHER):
        # ALL_GATHER payload_bytes is the gathered result; the telescoped
        # serialized total from shard p/G up to p is also p(1 - 1/G).
        return payload_bytes * (1.0 - 1.0 / group_size)
    if collective is CollectiveType.ALL_TO_ALL:
        total = 0.0
        for d in active_dims:
            spec = dim_specs[d]
            total += payload_bytes * alltoall_traffic_fraction(
                spec.block, spec.size)
        return total
    raise ValueError(f"unsupported collective {collective!r}")


class InvariantChecker:
    """Runtime invariant checker with zero-cost-when-absent hooks.

    Layers given it at construction call the ``check_*`` hot hooks.
    :meth:`finalize` runs the end-of-run sweeps and returns an
    :class:`InvariantReport`.
    """

    def __init__(self, config: Optional[InvariantConfig] = None) -> None:
        self.config = config or InvariantConfig()
        self.violations: List[InvariantViolation] = []
        self.violations_total = 0
        self.checks = 0

    # -- recording ---------------------------------------------------------------

    def record(self, layer: str, name: str, message: str,
               time_ns: float = 0.0, **context: Any) -> None:
        """Register one violation (raises in strict mode)."""
        self.violations_total += 1
        if len(self.violations) < self.config.max_violations:
            self.violations.append(InvariantViolation(
                layer=layer, name=name, message=message, time_ns=time_ns,
                context=tuple(sorted(context.items())),
            ))
        if self.config.strict:
            raise InvariantError(f"[{layer}/{name}] {message}")

    # -- hot hooks ----------------------------------------------------------------

    def event_time_anomaly(self, time: float, now: float) -> None:
        """Record an event scheduled at a NaN or infinite time.

        The event kernel calls this only when its inlined ``now <= time <
        inf`` guard fails (a NaN fails every bound), so a checked run pays
        one comparison per event; it raises on time travel itself, so only
        non-finite times get here.  The per-event check count is
        reconstructed in bulk at finalize time from the kernel's sequence
        counter.
        """
        self.record(
            "events", "finite_time",
            f"event scheduled at non-finite time {time!r}",
            time_ns=now, scheduled=repr(time))

    def reservation_anomaly(self, start: float, end: float, now: float,
                            resource: str = "port") -> None:
        """Classify and record a bad reservation.

        The analytical backend calls this only when its inlined ``now -
        1e-9 <= start <= end < inf`` guard fails; per-reservation check
        counts are recovered at finalize from the ports' own reservation
        counters.
        """
        if not (math.isfinite(start) and math.isfinite(end)):
            self.record(
                "network", "finite_time",
                f"{resource} reservation has non-finite bounds "
                f"[{start!r}, {end!r}]", time_ns=now)
            return
        if start < now - 1e-9:
            self.record(
                "network", "causality",
                f"{resource} reservation starts at t={start} before "
                f"now={now}", time_ns=now, start=start)
        if end < start:
            self.record(
                "network", "causality",
                f"{resource} reservation runs backwards "
                f"(start={start}, end={end})", time_ns=now,
                start=start, end=end)

    def check_collective(self, record, op) -> None:
        """Conservation + timing sanity of one completed collective."""
        self.checks += 1
        now = record.finish_ns
        if not (math.isfinite(record.start_ns)
                and math.isfinite(record.finish_ns)):
            self.record(
                "system", "finite_time",
                f"collective {record.name!r} has non-finite timing",
                time_ns=now)
            return
        if record.finish_ns < record.start_ns:
            self.record(
                "system", "causality",
                f"collective {record.name!r} finishes at "
                f"{record.finish_ns} before it starts at {record.start_ns}",
                time_ns=now, start_ns=record.start_ns,
                finish_ns=record.finish_ns)
        total = sum(record.traffic_by_dim.values())
        expected = expected_collective_traffic(
            op.collective, op.payload_bytes, op.group_size,
            dim_specs=op.dim_specs, active_dims=op.active_dims)
        tolerance = self.config.rel_tolerance * max(1.0, expected)
        if abs(total - expected) > tolerance:
            self.record(
                "system", "conservation",
                f"collective {record.name!r} serialized {total:.6g} B "
                f"but the {record.collective} pattern over group size "
                f"{op.group_size} conserves {expected:.6g} B",
                time_ns=now, total_bytes=total, expected_bytes=expected)
        for dim, traffic in record.traffic_by_dim.items():
            if traffic < 0 or not math.isfinite(traffic):
                self.record(
                    "system", "conservation",
                    f"collective {record.name!r} dim {dim} traffic is "
                    f"{traffic!r}", time_ns=now, dim=dim)

    def check_flow_rates(self, links, now: float) -> None:
        """Max-min allocation: per-link flow rates never exceed capacity."""
        self.checks += 1
        for link in links:
            if not link.flows:
                continue
            rate = sum(f.rate for f in link.flows)
            if rate > link.capacity * (1.0 + 1e-9) + 1e-12:
                self.record(
                    "network", "capacity",
                    f"link allocation {rate:.6g} GB/s exceeds capacity "
                    f"{link.capacity:.6g} GB/s over {len(link.flows)} "
                    "flows", time_ns=now, rate=rate,
                    capacity=link.capacity)

    def check_packet_flow(self, flow, now: float) -> None:
        """Packet bookkeeping: arrivals can never outrun the total."""
        self.checks += 1
        if flow.packets_arrived > flow.packets_total:
            self.record(
                "network", "conservation",
                f"message {flow.message.src}->{flow.message.dest} has "
                f"{flow.packets_arrived} arrived packets of "
                f"{flow.packets_total} sent", time_ns=now)

    def check_granularity_handoff(self, message, before: float, after: float,
                                  now: float) -> None:
        """Adaptive handoff: a granularity flip conserves in-flight bytes.

        Escalation converts a fluid flow's remaining bytes into packet
        segments (``after`` may round up to whole bytes, < 1 B of
        slack); de-escalation folds unsent segments back into one fluid
        flow.  Anything beyond rounding slack means the controller
        dropped or duplicated in-flight traffic at the switch.
        """
        self.checks += 1
        tolerance = max(1.5, self.config.rel_tolerance * max(1.0, before))
        if abs(after - before) > tolerance or after < 0 or not (
                math.isfinite(before) and math.isfinite(after)):
            self.record(
                "network", "conservation",
                f"granularity handoff of {message.src}->{message.dest} "
                f"converted {before:.6g} in-flight bytes into "
                f"{after:.6g}", time_ns=now, before_bytes=before,
                after_bytes=after)

    def check_memory_access(self, model, request,
                            duration_ns: float) -> None:
        """HierMem pipeline: chunk counts balance the bytes they carry.

        Only non-empty accesses to a :class:`HierarchicalRemoteMemory`
        are checked; flat models have nothing instance-level to check.
        ``n`` full chunks flow down each remote-group -> out-switch
        link; they must cover the per-link byte share without over- or
        under-counting by a whole beat: ``(n-1) * chunk < bytes_per_link
        <= n * chunk`` (the final chunk may be partial).  The access must
        also cost at least the fixed request latency.
        """
        size_bytes = request.size_bytes
        if size_bytes == 0 or not isinstance(model, HierarchicalRemoteMemory):
            return
        self.checks += 1
        c = model.config
        if duration_ns < c.access_latency_ns - 1e-9 or not math.isfinite(
                duration_ns):
            self.record(
                "memory", "causality",
                f"hiermem access of {size_bytes} B costs {duration_ns!r} "
                f"ns, below the fixed {c.access_latency_ns} ns request "
                "latency", time_ns=0.0, size_bytes=size_bytes,
                duration_ns=duration_ns)
        n = model.num_pipeline_stages(size_bytes)
        chunk = model.effective_chunk_bytes(size_bytes)
        per_link = (size_bytes * c.num_gpus) / (
            c.num_remote_groups * c.num_out_switches)
        if n * chunk < per_link - 1e-6 or (n - 1) * chunk >= per_link + chunk:
            self.record(
                "memory", "conservation",
                f"hiermem pipeline moves {n} chunks of {chunk} B per "
                f"link but each link carries {per_link:.6g} B",
                time_ns=0.0, stages=n, chunk_bytes=chunk,
                per_link_bytes=per_link)

    # -- end-of-run sweeps ----------------------------------------------------------

    def _finalize_execution(self, execution, total_ns: float) -> None:
        self.checks += 1
        waiting = len(execution.open_rendezvous())
        if waiting:
            self.record(
                "system", "leak",
                f"{waiting} collective rendezvous never completed",
                time_ns=total_ns, rendezvous=waiting)
        self.checks += 1
        if not math.isfinite(total_ns) or total_ns < 0:
            self.record(
                "system", "finite_time",
                f"run finished at non-physical time {total_ns!r}",
                time_ns=0.0)

    def finalize(self, total_ns: float, engine=None, network=None,
                 execution=None, telemetry=None) -> InvariantReport:
        """End-of-run sweeps over the given layers; build the report.

        When a telemetry collector is passed, violation counts surface in
        its metrics registry under the ``validate`` layer.
        """
        if engine is not None:
            # Every event the engine scheduled went through its inlined
            # timestamp guard; count those checks here in one O(1) step
            # instead of per event on the hot path.
            self.checks += engine.events_scheduled
        if network is not None:
            network.invariants_finalize(self, total_ns)
        if execution is not None:
            self._finalize_execution(execution, total_ns)
        report = InvariantReport(
            checks=self.checks,
            violations_total=self.violations_total,
            violations=list(self.violations),
        )
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.counter("validate", "checks").value = float(self.checks)
            metrics.counter("validate", "violations").value = float(
                self.violations_total)
            for key, count in sorted(report.counts_by_name().items()):
                layer, name = key.split("/", 1)
                # Label key "subsystem", not "layer": the registry's
                # counter() already takes ``layer`` positionally.
                metrics.counter("validate", "violation", subsystem=layer,
                                invariant=name).value = float(count)
        return report
