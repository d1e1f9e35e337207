"""Deterministic discrete-event engine (optimised hot path).

The engine maintains a binary heap of plain ``(time, priority, seq)``
tuples — ``seq`` makes ordering total and deterministic, so two events
scheduled for the same timestamp always fire in the order they were
scheduled (FIFO), which keeps simulations reproducible across runs and
Python versions.  Each tuple carries its :class:`Event` record as a
fourth element that never participates in comparisons (``seq`` is unique,
so tuple comparison always resolves earlier).

This layout replaces the seed's ``@dataclass(order=True)`` heap: plain
tuple comparisons avoid a Python-level ``__lt__`` per sift step, events
are ``__slots__`` records, ``pending`` is a counted O(1) property
instead of an O(n) scan, and lazily-cancelled entries are compacted out
of the heap once they outnumber live ones.  The observable semantics are
bit-identical to the seed engine — enforced by
``tests/property/test_property_event_engine.py`` against the frozen
reference in :mod:`repro.events._seed_reference`.

Time is a ``float`` in an arbitrary unit; the rest of the library uses
**nanoseconds** by convention (see :mod:`repro.core.config`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

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


class Event:
    """A scheduled callback handle.

    Events order by ``(time, priority, seq)``; cancellation is O(1) and
    lazy — the heap entry stays behind and is discarded when popped (or
    swept out by compaction when cancelled entries exceed live ones).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., None],
        args: tuple = (),
        engine: Optional["EventEngine"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            engine = self._engine
            if engine is not None:
                engine._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, {state})"


class EventEngine:
    """Single-threaded deterministic event loop with a simulation clock.

    Usage::

        engine = EventEngine()
        engine.schedule(10.0, lambda: print("fired at", engine.now))
        engine.run()

    The engine is *not* re-entrant across threads.  Callbacks may freely
    schedule further events, including at the current time.
    """

    def __init__(self) -> None:
        # Heap of (time, priority, seq, Event).  NOTE: the list object's
        # identity is stable for the engine's lifetime (compaction mutates
        # it in place) so hot loops may alias it locally.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._live: int = 0        # scheduled, not yet fired or cancelled
        self._cancelled: int = 0   # cancelled entries still in the heap
        # Lifetime observability counters (never reset by compaction;
        # repro.telemetry samples `pending` from outside the hot loop, so
        # the drain path stays untouched).
        self.cancels: int = 0
        self.compactions: int = 0
        # Invariant checker slot (repro.validate.InvariantChecker);
        # None keeps every schedule path un-instrumented.  The guards
        # below catch what the delay/time raises cannot: NaN and
        # infinite timestamps compare False against every bound and
        # would corrupt heap ordering silently.
        self.invariants = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still in the queue — O(1), counted."""
        return self._live

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` time units from now.

        ``delay`` must be non-negative.  Lower ``priority`` fires first among
        events with the same timestamp; ties break FIFO.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: delay >= 0 guarantees time >= now, and this
        # is the single hottest call in every simulation.
        time = self._now + delay
        # Inlined invariant guard: the chained comparison fails for NaN
        # and +/-inf as well as time travel, so the checker is only
        # entered on an actual anomaly (see check_event_time).
        if self.invariants is not None and not (
                self._now <= time < _INF):
            self.invariants.event_time_anomaly(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        # Inlined Event construction (no __init__ frame): self-scheduling
        # event chains pay one schedule() per event fired, so this is as
        # hot as the drain loop itself.
        event = Event.__new__(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._engine = self
        _heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        if self.invariants is not None and not (
                self._now <= time < _INF):
            self.invariants.event_time_anomaly(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event._engine = self
        _heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_many(
        self,
        items: Iterable[Sequence],
        priority: int = 0,
    ) -> int:
        """Batched fire-and-forget scheduling: each item is ``(delay, fn)``
        or ``(delay, fn, args_tuple)``.  Returns the number scheduled.

        Firing order is identical to issuing the equivalent
        :meth:`schedule` calls one by one (sequence numbers are assigned
        in item order).  This is the bulk hot path: no :class:`Event`
        handle is constructed (so the entries cannot be cancelled), and
        when the batch rivals the existing heap in size the entries are
        appended and re-heapified in one O(n) pass instead of n pushes.
        """
        batch: List[Tuple[float, int, int, Callable[..., None], tuple]] = []
        append = batch.append
        now = self._now
        seq = self._seq
        invariants = self.invariants
        for item in items:
            delay = item[0]
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})")
            if invariants is not None and not (now <= now + delay < _INF):
                invariants.event_time_anomaly(now + delay, now)
            append((now + delay, priority, seq, item[1],
                    item[2] if len(item) > 2 else ()))
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
        self._live += len(batch)
        return len(batch)

    # -- cancellation bookkeeping --------------------------------------------------

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` exactly once per live event."""
        self._live -= 1
        self._cancelled += 1
        self.cancels += 1
        queue = self._queue
        if (self._cancelled * 2 > len(queue)
                and len(queue) >= _COMPACT_MIN_ENTRIES):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap (in place: hot loops
        alias the list object).  Batched 5-tuple entries have no handle
        and are never cancelled."""
        self._queue[:] = [
            e for e in self._queue if len(e) != 4 or not e[3].cancelled
        ]
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
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} before current time t={self._now}")
        self._running = True
        self._stopped = False
        try:
            if until is None and max_events is None:
                self._drain()
            else:
                self._run_bounded(until, max_events)
        finally:
            self._running = False
        return self._now

    def _drain(self) -> None:
        """Hot path: fire everything, stopping only on :meth:`stop`."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if self._stopped:
                break
            entry = pop(queue)
            if len(entry) == 4:
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = entry[0]
                self._live -= 1
                self._events_processed += 1
                # Detach so a cancel() after firing can't skew counters.
                event._engine = None
                event.fn(*event.args)
            else:  # batched (time, priority, seq, fn, args) entry
                self._now = entry[0]
                self._live -= 1
                self._events_processed += 1
                entry[3](*entry[4])

    def _run_bounded(self, until: Optional[float], max_events: Optional[int]) -> None:
        """General path with until/max_events bounds (seed semantics)."""
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        truncated = False  # stop() or max_events left events unfired
        while queue:
            if self._stopped:
                truncated = True
                break
            head = queue[0]
            if len(head) == 4 and head[3].cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            if until is not None and head[0] > until:
                self._now = until
                break
            if max_events is not None and fired >= max_events:
                truncated = True
                break
            entry = pop(queue)
            self._now = entry[0]
            self._live -= 1
            self._events_processed += 1
            fired += 1
            if len(entry) == 4:
                event = entry[3]
                event._engine = None
                event.fn(*event.args)
            else:
                entry[3](*entry[4])
        if (until is not None and not truncated and not self._stopped
                and self._now < until):
            self._now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight callback returns."""
        self._stopped = True

    def step(self) -> bool:
        """Fire exactly one event.  Returns False if the queue was empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            if len(entry) == 4:
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = entry[0]
                self._live -= 1
                self._events_processed += 1
                event._engine = None
                event.fn(*event.args)
            else:
                self._now = entry[0]
                self._live -= 1
                self._events_processed += 1
                entry[3](*entry[4])
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        queue = self._queue
        while queue and len(queue[0]) == 4 and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self._queue.clear()
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._live = 0
        self._cancelled = 0
        self.cancels = 0
        self.compactions = 0
