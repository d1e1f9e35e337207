"""Deterministic discrete-event engine (optimised hot path).

The engine maintains a binary heap of ``[time, priority, seq, fn, args]``
lists, one layout for every scheduling call.  ``seq`` makes ordering
total and deterministic, so two events scheduled for the same timestamp
always fire in the order they were scheduled (FIFO), which keeps
simulations reproducible across runs and Python versions; since ``seq``
is unique, list comparison never reaches the ``fn`` slot.

:meth:`EventEngine.schedule` and :meth:`EventEngine.schedule_at` return
the entry itself as an opaque handle for :meth:`EventEngine.cancel`.
Cancelling and firing both blank the ``fn`` slot, so a blanked entry
left in the heap is skipped when popped, a second cancel is a no-op, and
cancelled entries are compacted out of the heap once they outnumber
live ones.  ``pending`` is a counted O(1) property instead of the
seed's O(n) scan.  The observable semantics are bit-identical to the
seed engine — enforced by ``tests/property/test_property_event_engine.py``
against the frozen reference in :mod:`repro.events._seed_reference`.

Time is a ``float`` in an arbitrary unit; the rest of the library uses
**nanoseconds** by convention (see :mod:`repro.core.config`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

# Pre-bound C functions: saves a module-attribute load per schedule call
# on the hottest paths.
_heappush = heapq.heappush

# Below this many heap entries compaction is pointless churn.
_COMPACT_MIN_ENTRIES = 64

# Upper bound for the inlined invariant guard: a finite timestamp t
# satisfies now <= t < _INF; NaN fails every comparison.
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling into the past)."""


class EventEngine:
    """Single-threaded deterministic event loop with a simulation clock.

    Usage::

        engine = EventEngine()
        engine.schedule(10.0, lambda: print("fired at", engine.now))
        engine.run()

    ``now`` (the simulation clock) and ``events_processed`` (events fired
    so far) are plain attributes; treat them as read-only.
    ``events_scheduled`` and ``pending`` are read-only properties.

    The engine is *not* re-entrant across threads.  Callbacks may freely
    schedule further events, including at the current time, and register
    end-of-instant callbacks (:meth:`at_instant_end`).
    """

    def __init__(self, invariants=None) -> None:
        # Heap of [time, priority, seq, fn, args].  NOTE: the list
        # object's identity is stable for the engine's lifetime
        # (compaction mutates it in place) so hot loops may alias it.
        self._queue: List[list] = []
        self.now: float = 0.0
        self._seq: int = 0
        self.events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._cancelled: int = 0   # cancelled entries still in the heap
        # Lifetime observability counters (never reset by compaction;
        # repro.telemetry samples `pending` from outside the hot loop, so
        # the drain path stays untouched).
        self.cancels: int = 0
        self.compactions: int = 0
        # Invariant checker (repro.validate.InvariantChecker), given at
        # construction; None keeps every schedule path un-instrumented.
        # The guards below catch what the delay/time raises cannot: NaN
        # and infinite timestamps compare False against every bound and
        # would corrupt heap ordering silently.
        self.invariants = invariants
        # Callbacks of the pending end-of-instant step (a dict: a repeated
        # registration runs once), or None while no step is pending.
        self._instant_end: Optional[Dict[Callable[[], None], None]] = None

    @property
    def pending(self) -> int:
        """Number of live events still in the queue — O(1), counted:
        every heap entry is live unless it was cancelled or is the
        end-of-instant step."""
        return len(self._queue) - self._cancelled - (self._instant_end is not None)

    @property
    def events_scheduled(self) -> int:
        """Events scheduled since construction or :meth:`reset`, the
        cancelled ones included; end-of-instant steps are not events."""
        return self._seq

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> list:
        """Schedule ``fn(*args)`` to fire ``delay`` time units from now.

        ``delay`` must be non-negative.  Lower ``priority`` fires first among
        events with the same timestamp; ties break FIFO.  Returns an opaque
        handle for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: delay >= 0 guarantees time >= now, and this
        # is the single hottest call in every simulation.
        now = self.now
        time = now + delay
        # Inlined invariant guard: the chained comparison fails for NaN
        # and +inf, so the checker is only entered on an actual anomaly
        # (see InvariantChecker.event_time_anomaly).
        if self.invariants is not None and not (now <= time < _INF):
            self.invariants.event_time_anomaly(time, now)
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, fn, args]
        _heappush(self._queue, entry)
        return entry

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> list:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={now}"
            )
        if self.invariants is not None and not (now <= time < _INF):
            self.invariants.event_time_anomaly(time, now)
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, fn, args]
        _heappush(self._queue, entry)
        return entry

    def schedule_many(
        self,
        items: Iterable[Sequence],
        priority: int = 0,
    ) -> int:
        """Batched fire-and-forget scheduling: each item is ``(delay, fn)``
        or ``(delay, fn, args_tuple)``.  Returns the number scheduled.

        Firing order is identical to issuing the equivalent
        :meth:`schedule` calls one by one (sequence numbers are assigned
        in item order).  This is the bulk hot path: no handle is returned
        (so the entries cannot be cancelled), and when the batch rivals
        the existing heap in size the entries are appended and
        re-heapified in one O(n) pass instead of n pushes.
        """
        batch: List[list] = []
        append = batch.append
        now = self.now
        seq = self._seq
        invariants = self.invariants
        for item in items:
            delay = item[0]
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})")
            if invariants is not None and not (now <= now + delay < _INF):
                invariants.event_time_anomaly(now + delay, now)
            append([now + delay, priority, seq, item[1],
                    item[2] if len(item) > 2 else ()])
            seq += 1
        self._seq = seq
        queue = self._queue
        if len(batch) >= max(4, len(queue)):
            queue.extend(batch)
            heapq.heapify(queue)
        else:
            push = heapq.heappush
            for entry in batch:
                push(queue, entry)
        return len(batch)

    def at_instant_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once after every event at the current timestamp.

        That includes events of any priority and zero-delay events
        scheduled during the instant; events ``fn`` schedules now fire
        after it.  The step is one heap entry ``[now, inf, -1, ...]``
        that the run loops fire like an event and that uncounts itself:
        ``events_processed``, ``pending``, ``max_events`` and the
        sequence numbers never see it.  A step left pending by
        :meth:`step` or ``run(max_events=...)`` runs first in the next
        call; :meth:`reset` discards it.
        """
        if self._instant_end is None:
            self._instant_end = {}
            _heappush(self._queue, [self.now, _INF, -1, self._end_instant, ()])
        self._instant_end[fn] = None

    def _end_instant(self) -> None:
        self.events_processed -= 1  # counted by the run loop; not an event
        callbacks, self._instant_end = self._instant_end, None
        for fn in callbacks:
            fn()

    # -- cancellation --------------------------------------------------------------

    def cancel(self, handle: list) -> None:
        """Prevent a scheduled event from firing.

        O(1) and lazy: the entry stays in the heap and is discarded when
        popped (or swept out by compaction once cancelled entries
        outnumber live ones).  Cancelling an event that already fired or
        was already cancelled changes nothing.
        """
        if handle[3] is None:
            return
        handle[3] = None
        self._cancelled += 1
        self.cancels += 1
        queue = self._queue
        if (self._cancelled * 2 > len(queue)
                and len(queue) >= _COMPACT_MIN_ENTRIES):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap (in place: hot loops
        alias the list object)."""
        self._queue[:] = [e for e in self._queue if e[3] is not None]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self.compactions += 1

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the final simulation time.  Events scheduled exactly at
        ``until`` still fire (the bound is inclusive).

        Clock semantics: with ``until`` given, the clock always ends at
        exactly ``until`` when the run is not cut short — including when
        the queue is empty to begin with or drains early — so ``run(until=T)``
        reliably means "advance simulated time to T".  The clock stays
        where the last event fired only when :meth:`stop` was called or
        ``max_events`` was exhausted (both leave work pending).  ``until``
        in the past raises :class:`SimulationError`.

        The unbounded call (no ``until``, no ``max_events``) — the drain
        path every simulation's main loop takes — runs a tighter loop with
        no bound checks per event.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until} before current time t={self.now}")
        self._running = True
        self._stopped = False
        try:
            if until is None and max_events is None:
                self._drain()
            else:
                self._run_bounded(until, max_events)
        finally:
            self._running = False
        return self.now

    def _drain(self) -> None:
        """Hot path: fire everything, stopping only on :meth:`stop`."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if self._stopped:
                break
            entry = pop(queue)
            fn = entry[3]
            if fn is None:
                self._cancelled -= 1
                continue
            # Blank before calling, so a cancel() of the firing (or an
            # already fired) event cannot skew the counters.
            entry[3] = None
            self.now = entry[0]
            self.events_processed += 1
            fn(*entry[4])

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        """General path with until/max_events bounds (seed semantics)."""
        queue = self._queue
        pop = heapq.heappop
        # On events_processed, which an end-of-instant step leaves as is.
        last = None if max_events is None else self.events_processed + max_events
        truncated = False  # stop() or max_events left events unfired
        while queue:
            if self._stopped:
                truncated = True
                break
            entry = queue[0]
            fn = entry[3]
            if fn is None:
                pop(queue)
                self._cancelled -= 1
                continue
            if until is not None and entry[0] > until:
                self.now = until
                break
            if last is not None and self.events_processed >= last:
                truncated = True
                break
            pop(queue)
            entry[3] = None
            self.now = entry[0]
            self.events_processed += 1
            fn(*entry[4])
        if (until is not None and not truncated and not self._stopped
                and self.now < until):
            self.now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight callback returns."""
        self._stopped = True

    def step(self) -> bool:
        """Fire exactly one event.  Returns False if the queue was empty."""
        fired = self.events_processed
        self.run(max_events=1)
        return self.events_processed != fired

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue and queue[0][3] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        if queue and queue[0][2] < 0:  # the end-of-instant step: not an event
            return min((e[0] for e in queue if e[3] is not None and e[2] >= 0),
                       default=None)
        return queue[0][0] if queue else None

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        # Blank the discarded entries so a stale handle's cancel() stays
        # a no-op.
        for entry in self._queue:
            entry[3] = None
        self._queue.clear()
        self.now = 0.0
        self._seq = 0
        self.events_processed = 0
        self._cancelled = 0
        self.cancels = 0
        self.compactions = 0
        self._instant_end = None
