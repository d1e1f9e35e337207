"""Analytical network backend (paper Sec. IV-C).

Transfers are costed with the closed-form equation::

    time = link_latency * hops + message_size / link_bandwidth

instead of packet-level simulation.  The one piece of state the backend
keeps is **egress-port serialization**: each NPU owns one injection port per
topology dimension, and consecutive transfers on the same port queue behind
each other.  That is what produces pipeline bubbles on multi-dimensional
topologies and lets chunked hierarchical collectives overlap across
dimensions — the effect the paper's case studies measure.

The paper validates this model against real NCCL measurements (mean error
5%, Fig. 4) and reports ~756x speedup over the Garnet cycle-level backend;
both experiments are reproduced in ``benchmarks/``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.events import EventEngine
from repro.network.api import Message, NetworkBackend
from repro.network.building_blocks import hops_between
from repro.network.topology import MultiDimTopology

# Upper bound for the inlined invariant guard in reserve_port.
_INF = float("inf")


class DimPort:
    """A serializing egress port: tracks when it next becomes free.

    Reservation is O(1): a request at simulation time ``t`` starts at
    ``max(t, free_at)`` and occupies the port for its serialization time.
    Because the event engine hands us requests in time order, this simple
    bookkeeping is equivalent to a FIFO queue.
    """

    __slots__ = ("free_at", "busy_ns", "reservations")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_ns = 0.0
        self.reservations = 0

    def reserve(self, now: float, duration: float) -> Tuple[float, float]:
        """Reserve the port for ``duration`` ns; returns (start, end)."""
        start = max(now, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_ns += duration
        self.reservations += 1
        return start, end

    def reprice(self, start: float, work: float,
                timeline) -> Tuple[float, float]:
        """Re-price the reservation just made at ``start`` for ``work`` ns
        over a fault ``timeline``; returns its (end, duration)."""
        duration = timeline.stretch(start, work)
        self.free_at = end = start + duration
        self.busy_ns += duration - work
        return end, duration

    def backlog(self, now: float) -> float:
        """Nanoseconds of queued work ahead of a request made now."""
        return max(0.0, self.free_at - now)


class AnalyticalNetwork(NetworkBackend):
    """Closed-form latency/bandwidth backend with port serialization."""

    def __init__(self, engine: EventEngine, topology: MultiDimTopology, *,
                 faults=None, **instruments) -> None:
        super().__init__(engine, topology, **instruments)
        # Fault injector (repro.faults.FaultInjector), given only when a
        # non-empty schedule is configured, and the time its first fault
        # starts to slow anything: work that ends by then keeps the exact
        # fault-free path (bit-identical results).
        self.faults = faults
        self.fault_onset = _INF if faults is None else faults.onset
        self._ports: Dict[Tuple[int, int], DimPort] = {}
        # Shared fabric capacity per dimension group, engaged only for
        # oversubscribed dimensions (first-order congestion model).
        self._fabrics: Dict[Tuple[int, Tuple[int, ...]], DimPort] = {}
        # Pure-function memos for repeated (src, dest) traffic: the
        # differing-dims list + propagation latency of a pair never
        # change, and neither does a dimension's bandwidth.
        self._route_cache: Dict[Tuple[int, int], Tuple[List[int], float]] = {}
        self._fabric_of: Dict[Tuple[int, int], DimPort] = {}
        self._dim_bw: Tuple[float, ...] = tuple(
            d.bandwidth_gbps for d in topology.dims)

    # -- port management -----------------------------------------------------------

    def port(self, npu: int, dim: int) -> DimPort:
        """The egress port of ``npu`` into dimension ``dim`` (lazily created)."""
        key = (npu, dim)
        existing = self._ports.get(key)
        if existing is None:
            existing = self._ports[key] = DimPort()
        return existing

    def port_backlog(self, npu: int, dim: int) -> float:
        """Queued nanoseconds on a port; 0.0 if the port was never used."""
        port = self._ports.get((npu, dim))
        return port.backlog(self.engine.now) if port else 0.0

    def fabric(self, npu: int, dim: int) -> DimPort:
        """The shared fabric of ``npu``'s dimension-``dim`` group."""
        cached = self._fabric_of.get((npu, dim))
        if cached is not None:
            return cached
        coords = list(self.topology.coords(npu))
        coords[dim] = 0
        key = (dim, tuple(coords))
        existing = self._fabrics.get(key)
        if existing is None:
            existing = self._fabrics[key] = DimPort()
        self._fabric_of[(npu, dim)] = existing
        return existing

    def reserve_port(self, npu: int, dim: int, busy_ns: float,
                     members=None) -> Tuple[float, float]:
        """Occupy an egress port for ``busy_ns``; returns (start, end).

        Used by the system layer to model one collective phase as a single
        port occupation rather than individual sends.  Under fault
        injection the nominal ``busy_ns`` is integrated, from when the
        port starts it, over the capacity timeline of a synchronous step
        among ``members`` on ``dim`` (``None``: the whole machine).

        On oversubscribed dimensions the transfer additionally occupies
        the group's shared fabric (the first-order congestion model);
        completion is the later of port and fabric.  The fabric carries
        this sender's share of the group load (``busy * oversubscription
        / size``).  Non-oversubscribed dimensions skip the fabric entirely
        and reduce to the paper's congestion-free closed form.
        """
        if busy_ns < 0:
            raise ValueError(f"negative busy time {busy_ns}")
        now = self.engine.now
        port = self.port(npu, dim)
        start, end = port.reserve(now, busy_ns)
        if end > self.fault_onset:
            timeline = self.faults.port_timeline(dim, members)
            if timeline is not None:
                end, busy_ns = port.reprice(start, busy_ns, timeline)
        # Inlined invariant guard: one chained comparison proves causal
        # order and finiteness (NaN fails every bound); the resource label
        # and the checker call are only built when it fails.
        if self.invariants is not None and not (
                now - 1e-9 <= start <= end < _INF):
            self.invariants.reservation_anomaly(
                start, end, now, resource=f"port({npu},{dim})")
        spec = self.topology.dims[dim]
        if spec.oversubscription > 1.0 and spec.size > 1:
            _, fabric_end = self.fabric(npu, dim).reserve(
                self.engine.now, busy_ns * spec.oversubscription / spec.size)
            end = max(end, fabric_end)
        return start, end

    # -- point-to-point -------------------------------------------------------------

    def serialization_time(self, size_bytes: int, dim: int) -> float:
        """Bandwidth term: size / per-dim injection bandwidth, in ns."""
        return size_bytes / self._dim_bw[dim]  # GB/s == bytes/ns

    def _route(self, src: int, dest: int) -> Tuple[List[int], float]:
        """Memoised ``(differing_dims, propagation_ns)`` for a pair.

        Both values are pure functions of the topology, so a pair's route
        is computed once however many chunks traverse it.
        """
        cached = self._route_cache.get((src, dest))
        if cached is not None:
            return cached
        a = self.topology.coords(src)
        b = self.topology.coords(dest)
        dims: List[int] = []
        prop = 0.0
        for dim_idx, dim in enumerate(self.topology.dims):
            ca, cb = a[dim_idx], b[dim_idx]
            if ca != cb:
                dims.append(dim_idx)
            prop += hops_between(dim.block, dim.size, ca, cb) * dim.latency_ns
        self._route_cache[(src, dest)] = (dims, prop)
        return dims, prop

    def propagation_time(self, src: int, dest: int) -> float:
        """Latency term: sum of per-dimension hop latencies, in ns."""
        return self._route(src, dest)[1]

    def transfer_time(self, src: int, dest: int, size_bytes: int) -> float:
        """Unloaded end-to-end transfer time (no queueing).

        Multi-dimensional routes (dimension-order, like the packet
        backend) serialize once per crossed dimension — store-and-forward
        at each level's line rate.
        """
        dims, prop = self._route(src, dest)
        return prop + sum(
            self.serialization_time(size_bytes, d) for d in dims
        )

    def _transmit(self, message: Message, on_sent: Optional[Callable[[], None]]) -> None:
        dims, prop = self._route(message.src, message.dest)
        if not dims:
            raise ValueError(
                f"no route: NPUs {message.src} and {message.dest} coincide"
            )
        # The sender's port on the first crossed dimension is the
        # contended injection point (its stragglers and link pace it); the
        # remaining dimensions relay at line rate (store-and-forward)
        # without modeled contention.
        src, size = message.src, message.size_bytes
        _, sent_at = self.reserve_port(
            src, dims[0], self.serialization_time(size, dims[0]), (src,))
        relay = sum(self.serialization_time(size, d) for d in dims[1:])
        if sent_at + relay > self.fault_onset:
            # Each relay hop is another node's: only its dim's degrade acts.
            relay = 0.0
            for d in dims[1:]:
                hop = self.serialization_time(size, d)
                timeline = self.faults.port_timeline(d, ())
                relay += hop if timeline is None else timeline.stretch(
                    sent_at + relay, hop)
        if self.telemetry is not None:
            # Store-and-forward: the message serializes once per crossed
            # dimension, so each one carries the full payload.
            for d in dims:
                self.telemetry.add_dim_traffic(d, message.size_bytes)
        if on_sent is not None:
            self.engine.schedule_at(sent_at, on_sent)
        self.engine.schedule_at(sent_at + relay + prop, self._deliver, message)

    # -- statistics -----------------------------------------------------------------

    def port_utilization(self, npu: int, dim: int) -> float:
        """Fraction of elapsed time a port spent serializing."""
        port = self._ports.get((npu, dim))
        if port is None or self.engine.now == 0:
            return 0.0
        return min(1.0, port.busy_ns / self.engine.now)

    # -- telemetry and invariants ---------------------------------------------------

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Sample the deepest egress-port backlog (queueing pressure)."""
        super().telemetry_sample(telemetry, now)
        deepest = 0.0
        for port in self._ports.values():
            backlog = port.free_at - now
            if backlog > deepest:
                deepest = backlog
        telemetry.metrics.gauge(
            "network", "max_port_backlog_ns").sample(now, deepest)

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        """Per-port busy time and utilisation (heaviest ports first)."""
        super().telemetry_finalize(telemetry, total_ns)
        metrics = telemetry.metrics
        ports = sorted(self._ports.items(), key=lambda kv: -kv[1].busy_ns)
        cap = telemetry.config.max_link_metrics
        for (npu, dim), port in ports[:cap]:
            metrics.counter("network", "port_busy_ns",
                            npu=npu, dim=dim).value = port.busy_ns
            metrics.counter("network", "port_reservations",
                            npu=npu, dim=dim).value = float(port.reservations)
            if total_ns > 0:
                metrics.gauge("network", "port_utilization",
                              npu=npu, dim=dim).set(
                                  min(1.0, port.busy_ns / total_ns))
        metrics.counter("network", "ports_total").value = float(
            len(self._ports))
        metrics.counter("network", "ports_dropped").value = float(
            max(0, len(self._ports) - cap))

    def invariants_finalize(self, checker, total_ns: float) -> None:
        """No port or shared fabric was double-booked."""
        super().invariants_finalize(checker, total_ns)
        # Each port reservation passed the inlined guard in reserve_port;
        # account for those checks in bulk.
        checker.checks += sum(p.reservations for p in self._ports.values())
        for key, port in [*self._ports.items(), *self._fabrics.items()]:
            checker.checks += 1
            if port.busy_ns > port.free_at + 1e-6 or port.busy_ns < 0:
                checker.record(
                    "network", "capacity",
                    f"port {key!r} accumulated {port.busy_ns:.6g} ns "
                    f"of busy time inside a [0, {port.free_at:.6g}] "
                    "ns reservation span (double-booked)",
                    time_ns=total_ns, busy_ns=port.busy_ns,
                    free_at=port.free_at)
