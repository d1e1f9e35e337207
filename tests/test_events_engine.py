"""Unit tests for the discrete-event engine."""

import pytest

from repro.events import EventEngine, SimulationError


def test_schedule_and_run_advances_clock():
    engine = EventEngine()
    fired = []
    engine.schedule(10.0, lambda: fired.append(engine.now))
    engine.schedule(5.0, lambda: fired.append(engine.now))
    end = engine.run()
    assert fired == [5.0, 10.0]
    assert end == 10.0


def test_same_time_events_fire_fifo():
    engine = EventEngine()
    order = []
    for i in range(5):
        engine.schedule(1.0, order.append, i)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_overrides_fifo_at_same_time():
    engine = EventEngine()
    order = []
    engine.schedule(1.0, order.append, "low", priority=1)
    engine.schedule(1.0, order.append, "high", priority=0)
    engine.run()
    assert order == ["high", "low"]


def test_callback_can_schedule_more_events():
    engine = EventEngine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    end = engine.run()
    assert seen == [0, 1, 2, 3]
    assert end == 3.0


def test_zero_delay_event_fires_at_current_time():
    engine = EventEngine()
    times = []
    engine.schedule(2.0, lambda: engine.schedule(0.0, lambda: times.append(engine.now)))
    engine.run()
    assert times == [2.0]


def test_negative_delay_rejected():
    engine = EventEngine()
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    engine = EventEngine()
    engine.schedule(5.0, lambda: engine.schedule_at(1.0, lambda: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_cancelled_event_does_not_fire():
    engine = EventEngine()
    fired = []
    event = engine.schedule(1.0, fired.append, "a")
    engine.schedule(2.0, fired.append, "b")
    engine.cancel(event)
    engine.run()
    assert fired == ["b"]


def test_run_until_is_inclusive():
    engine = EventEngine()
    fired = []
    engine.schedule(5.0, fired.append, "at")
    engine.schedule(6.0, fired.append, "after")
    engine.run(until=5.0)
    assert fired == ["at"]
    assert engine.now == 5.0
    engine.run()
    assert fired == ["at", "after"]


def test_run_max_events():
    engine = EventEngine()
    fired = []
    for i in range(10):
        engine.schedule(float(i), fired.append, i)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_halts_run():
    engine = EventEngine()
    fired = []
    engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
    engine.schedule(2.0, fired.append, 2)
    engine.run()
    assert fired == [1]
    assert engine.pending == 1


def test_step_fires_exactly_one_event():
    engine = EventEngine()
    fired = []
    engine.schedule(1.0, fired.append, "a")
    engine.schedule(2.0, fired.append, "b")
    assert engine.step() is True
    assert fired == ["a"]
    assert engine.step() is True
    assert engine.step() is False


def test_peek_time_skips_cancelled():
    engine = EventEngine()
    e1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(e1)
    assert engine.peek_time() == 2.0


def test_reset_clears_state():
    engine = EventEngine()
    engine.schedule(1.0, lambda: None)
    engine.run()
    engine.schedule(1.0, lambda: None)
    engine.reset()
    assert engine.now == 0.0
    assert engine.pending == 0
    assert engine.events_processed == 0


def test_events_processed_counter():
    engine = EventEngine()
    for i in range(7):
        engine.schedule(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 7


def test_events_scheduled_counter():
    """Counts every schedule path and cancelled events, not the
    end-of-instant step; read-only, and zeroed by reset."""
    engine = EventEngine()
    engine.schedule(1.0, lambda: engine.at_instant_end(lambda: None))
    engine.cancel(engine.schedule(2.0, lambda: None))
    engine.schedule_at(3.0, lambda: None)
    engine.schedule_many([(4.0, lambda: None), (5.0, lambda: None)])
    engine.run()
    assert engine.events_scheduled == 5
    assert engine.events_processed == 4
    with pytest.raises(AttributeError):
        engine.events_scheduled = 0
    engine.reset()
    assert engine.events_scheduled == 0


def test_reentrant_run_rejected():
    engine = EventEngine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule(1.0, reenter)
    engine.run()
    assert len(errors) == 1


class TestRunUntilClockSemantics:
    """run(until=T) must always leave the clock at T unless cut short."""

    def test_empty_queue_advances_to_until(self):
        engine = EventEngine()
        assert engine.run(until=7.0) == 7.0
        assert engine.now == 7.0

    def test_queue_drains_before_until_advances_to_until(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, fired.append, "a")
        assert engine.run(until=10.0) == 10.0
        assert fired == ["a"]
        assert engine.now == 10.0

    def test_only_cancelled_events_advances_to_until(self):
        engine = EventEngine()
        engine.cancel(engine.schedule(3.0, lambda: None))
        assert engine.run(until=5.0) == 5.0

    def test_run_until_after_stop_advances(self):
        engine = EventEngine()
        engine.schedule(1.0, engine.stop)
        engine.schedule(9.0, lambda: None)
        engine.run()
        assert engine.now == 1.0  # stop leaves the clock at the event
        # A fresh run(until=...) resumes normal clock semantics.
        assert engine.run(until=20.0) == 20.0

    def test_stop_does_not_advance_to_until(self):
        engine = EventEngine()
        engine.schedule(1.0, engine.stop)
        assert engine.run(until=50.0) == 1.0

    def test_max_events_does_not_advance_to_until(self):
        engine = EventEngine()
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        assert engine.run(until=100.0, max_events=2) == 1.0
        assert engine.pending == 3

    def test_until_in_the_past_rejected(self):
        engine = EventEngine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run(until=5.0)

    def test_scheduling_relative_to_advanced_clock(self):
        engine = EventEngine()
        engine.run(until=100.0)
        fired = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [101.0]


class TestCountedPendingAndCompaction:
    """pending is counted O(1); cancelled entries are compacted lazily."""

    def test_interleaved_schedule_cancel_step_run_counts(self):
        engine = EventEngine()
        a = engine.schedule(1.0, lambda: None)
        b = engine.schedule(2.0, lambda: None)
        engine.schedule(3.0, lambda: None)
        assert engine.pending == 3
        engine.cancel(a)
        assert engine.pending == 2
        engine.cancel(a)  # idempotent
        assert engine.pending == 2
        assert engine.step() is True  # skips cancelled a, fires b (t=2)
        assert engine.pending == 1
        engine.cancel(b)  # already fired: must not affect the count
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        assert engine.events_processed == 2

    def test_cancel_after_fire_is_noop_for_counts(self):
        engine = EventEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.pending == 0
        engine.cancel(event)
        assert engine.pending == 0

    def test_mass_cancellation_compacts_heap(self):
        engine = EventEngine()
        events = [engine.schedule(float(i), lambda: None) for i in range(500)]
        fired = []
        engine.schedule(1000.0, fired.append, "keep")
        for event in events:
            engine.cancel(event)
        # More than half the heap was cancelled: it must have been swept.
        assert len(engine._queue) < 250
        assert engine.pending == 1
        assert engine.peek_time() == 1000.0
        engine.run()
        assert engine.events_processed == 1
        assert fired == ["keep"]  # the kept event was not swept away

    def test_compaction_preserves_order(self):
        engine = EventEngine()
        order = []
        cancels = [engine.schedule(float(i), order.append, -1)
                   for i in range(200)]
        for i in range(10):
            engine.schedule(300.0, order.append, i)  # same time: FIFO
        for event in cancels:
            engine.cancel(event)
        engine.run()
        assert order == list(range(10))

    def test_cancel_from_own_callback_is_noop(self):
        engine = EventEngine()
        handle = []
        handle.append(engine.schedule(
            1.0, lambda: engine.cancel(handle[0])))
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2
        assert engine.cancels == 0
        assert engine.pending == 0

    def test_cancel_of_handle_discarded_by_reset_is_noop(self):
        engine = EventEngine()
        stale = engine.schedule(1.0, lambda: None)
        engine.reset()
        engine.cancel(stale)
        assert engine.pending == 0
        assert engine.cancels == 0
        engine.schedule(1.0, lambda: None)
        assert engine.pending == 1


class TestScheduleMany:
    def test_matches_sequential_schedule_order(self):
        sequential = EventEngine()
        batched = EventEngine()
        order_a, order_b = [], []
        items = [(5.0, order_b.append, (i,)) for i in range(4)]
        items += [(1.0, order_b.append, (10 + i,)) for i in range(4)]
        for delay, _, args in items:
            sequential.schedule(delay, order_a.append, *args)
        assert batched.schedule_many(items) == 8
        assert batched.pending == 8
        sequential.run()
        batched.run()
        assert order_a == order_b
        assert sequential.now == batched.now

    def test_interleaves_with_schedule_fifo(self):
        engine = EventEngine()
        order = []
        engine.schedule(1.0, order.append, "a")
        engine.schedule_many([(1.0, order.append, ("b",)),
                              (1.0, order.append, ("c",))])
        engine.schedule(1.0, order.append, "d")
        engine.run()
        assert order == ["a", "b", "c", "d"]

    def test_priority_applies_to_batch(self):
        engine = EventEngine()
        order = []
        engine.schedule_many([(1.0, order.append, ("low",))], priority=1)
        engine.schedule_many([(1.0, order.append, ("high",))], priority=-1)
        engine.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_many([(1.0, lambda: None), (-0.5, lambda: None)])

    def test_bounded_run_and_step_handle_batched_entries(self):
        engine = EventEngine()
        fired = []
        engine.schedule_many([(float(i), fired.append, (i,)) for i in range(6)])
        engine.run(until=2.0)
        assert fired == [0, 1, 2]
        assert engine.step() is True
        assert fired == [0, 1, 2, 3]
        engine.run(max_events=1)
        assert fired == [0, 1, 2, 3, 4]
        engine.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert engine.pending == 0


class TestInstantEnd:
    """The end-of-instant step: not an event, run once per instant."""

    def test_runs_once_after_every_event_of_the_instant(self):
        engine = EventEngine()
        order = []

        def change(name):
            order.append(name)
            engine.at_instant_end(solve)
            engine.at_instant_end(solve)  # a repeat registration is a no-op

        def solve():
            order.append(("solve", engine.now))

        def late():
            change("late")
            engine.schedule(0.0, change, "zero")

        engine.schedule(1.0, change, "a")
        engine.schedule(1.0, late, priority=9)
        engine.schedule(2.0, change, "b")
        engine.run()
        assert order == ["a", "late", "zero", ("solve", 1.0),
                         "b", ("solve", 2.0)]
        assert engine.events_processed == 4
        assert engine._seq == 4

    def test_events_a_callback_schedules_now_fire_after_it(self):
        engine = EventEngine()
        order = []
        engine.schedule(1.0, engine.at_instant_end, lambda: (
            order.append("step"),
            engine.schedule(0.0, order.append, "after")))
        engine.run()
        assert order == ["step", "after"]
        assert engine.now == 1.0

    def test_step_leaves_the_closing_instants_step_pending(self):
        engine = EventEngine()
        ran = []
        engine.schedule(1.0, engine.at_instant_end, lambda: ran.append(1))
        engine.schedule(3.0, lambda: None)
        assert engine.step() is True
        assert ran == [] and engine.pending == 1
        assert engine.peek_time() == 3.0
        # The pending step runs first, and does not use up the event.
        assert engine.step() is True
        assert ran == [1] and engine.now == 3.0
        assert engine.events_processed == 2
        assert engine.step() is False

    def test_step_runs_a_lone_pending_step_and_reports_no_event(self):
        engine = EventEngine()
        ran = []
        engine.schedule(1.0, engine.at_instant_end, lambda: ran.append(1))
        assert engine.step() is True
        assert engine.pending == 0 and engine.peek_time() is None
        assert engine.step() is False
        assert ran == [1]

    def test_reset_discards_a_pending_step(self):
        engine = EventEngine()
        ran = []
        engine.schedule(1.0, engine.at_instant_end, lambda: ran.append(1))
        engine.step()
        engine.reset()
        engine.run()
        assert ran == []
        engine.at_instant_end(lambda: ran.append(engine.now))
        engine.run()
        assert ran == [0.0]
