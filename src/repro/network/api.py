"""NetworkAPI: the callback protocol between system layer and network backend.

Mirrors the ASTRA-sim frontend NetworkAPI (paper Snippet 2)::

    sim_schedule(delta, callback)
    sim_send(msg_size, dest, callback)
    sim_recv(msg_size, src, callback)

A backend promises that a ``sim_recv`` callback fires when a matching
``sim_send`` message has fully arrived, and a ``sim_send`` callback fires
when the message has left the source (serialization complete).  Messages
match by ``(src, dest, tag)`` in FIFO order, like MPI point-to-point
semantics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.events import EventEngine
from repro.network.topology import MultiDimTopology


@dataclass
class Message:
    """An in-flight point-to-point message."""

    src: int
    dest: int
    size_bytes: int
    tag: int = 0
    send_time: float = 0.0
    arrival_time: Optional[float] = None


class NetworkBackend(abc.ABC):
    """Abstract network backend implementing the NetworkAPI.

    Concrete backends: :class:`~repro.network.analytical.AnalyticalNetwork`,
    :class:`~repro.network.garnetlite.GarnetLiteNetwork`,
    :class:`~repro.network.flowlevel.FlowLevelNetwork` and its adaptive
    subclass :class:`~repro.network.adaptive.AdaptiveFlowNetwork`.
    """

    def __init__(self, engine: EventEngine, topology: MultiDimTopology, *,
                 telemetry=None, invariants=None) -> None:
        self.engine = engine
        self.topology = topology
        # Rendezvous tables keyed by (src, dest, tag); FIFO per key.
        self._arrived: Dict[Tuple[int, int, int], List[Message]] = {}
        self._waiting: Dict[Tuple[int, int, int], List[Callable[[Message], None]]] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0
        # Telemetry collector (repro.telemetry.Telemetry) and invariant
        # checker (repro.validate.InvariantChecker), given at construction
        # only when configured; None keeps every hook on the exact
        # un-instrumented code path.
        self.telemetry = telemetry
        self.invariants = invariants

    # -- NetworkAPI --------------------------------------------------------------

    def sim_schedule(self, delta: float, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` after ``delta`` ns of simulated time."""
        self.engine.schedule(delta, callback)

    def sim_send(
        self,
        src: int,
        dest: int,
        size_bytes: int,
        tag: int = 0,
        callback: Optional[Callable[[], None]] = None,
    ) -> None:
        """Send ``size_bytes`` from ``src`` to ``dest``.

        ``callback`` (if given) fires when the message has fully left the
        source.  Delivery is signalled to a matching :meth:`sim_recv`.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size {size_bytes}")
        if src == dest:
            raise ValueError(f"send to self (NPU {src})")
        message = Message(src=src, dest=dest, size_bytes=size_bytes, tag=tag,
                          send_time=self.engine.now)
        self._transmit(message, callback)

    def sim_recv(
        self,
        dest: int,
        src: int,
        size_bytes: int,
        tag: int = 0,
        callback: Optional[Callable[[Message], None]] = None,
    ) -> None:
        """Register interest in a message from ``src`` to ``dest``.

        ``callback`` fires (with the message) once the matching send has
        fully arrived.  If the message already arrived, fires immediately.
        """
        key = (src, dest, tag)
        arrived = self._arrived.get(key)
        if arrived:
            message = arrived.pop(0)
            if not arrived:
                del self._arrived[key]
            if callback is not None:
                callback(message)
            return
        if callback is not None:
            self._waiting.setdefault(key, []).append(callback)

    # -- backend duties -----------------------------------------------------------

    @abc.abstractmethod
    def _transmit(self, message: Message, on_sent: Optional[Callable[[], None]]) -> None:
        """Model the transfer; must eventually call :meth:`_deliver`."""

    def _deliver(self, message: Message) -> None:
        """Hand an arrived message to a waiting receiver (or queue it)."""
        message.arrival_time = self.engine.now
        self.messages_delivered += 1
        self.bytes_delivered += message.size_bytes
        key = (message.src, message.dest, message.tag)
        waiting = self._waiting.get(key)
        if waiting:
            callback = waiting.pop(0)
            if not waiting:
                del self._waiting[key]
            callback(message)
        else:
            self._arrived.setdefault(key, []).append(message)

    # -- introspection ------------------------------------------------------------

    def pending_receives(self) -> int:
        return sum(len(v) for v in self._waiting.values())

    def undelivered_arrivals(self) -> int:
        return sum(len(v) for v in self._arrived.values())

    # -- telemetry and invariants -------------------------------------------------

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Periodic gauge sampling hook; backends override to add their
        own time series (queue depths, active flows).  Called only on a
        run with a collector."""
        telemetry.metrics.gauge("network", "posted_receives").sample(
            now, self.pending_receives())

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        """End-of-run metric sweep; backends extend with per-link stats."""
        telemetry.metrics.counter(
            "network", "messages_delivered").value = float(
                self.messages_delivered)
        telemetry.metrics.counter("network", "bytes_delivered").value = float(
            self.bytes_delivered)

    def invariants_finalize(self, checker, total_ns: float) -> None:
        """End-of-run invariant sweep: nothing left posted or unclaimed.
        Backends extend it with their own end-of-run state."""
        posted = self.pending_receives()
        unclaimed = self.undelivered_arrivals()
        if posted:
            checker.record(
                "network", "leak",
                f"{posted} receives still posted at end of run",
                time_ns=total_ns, posted=posted)
        if unclaimed:
            checker.record(
                "network", "leak",
                f"{unclaimed} delivered messages never claimed by a "
                "receive", time_ns=total_ns, unclaimed=unclaimed)
        checker.checks += 2
