"""Observational equivalence of the optimised event kernel vs the seed.

Random schedule/batch/cancel/step/run(until)/run(max_events) programs
are replayed on the frozen seed engine
(:mod:`repro.events._seed_reference`) and the production
:class:`~repro.events.EventEngine`.  A batch is one ``schedule_many``
call on the production engine and the same ``schedule`` calls, in
order, on the seed, which has no batch API.  The two must
produce identical ``(time, event-id)`` firing sequences and identical
``(now, pending, events_processed)`` observations after every operation
— the seed's ``(time, priority, seq)`` FIFO contract, bit for bit.

Events on the production engine may also register end-of-instant
callbacks (:meth:`~repro.events.EventEngine.at_instant_end`).  With those
registrations dropped the log must still equal the seed's, and each
callback must run exactly once, at its event's timestamp, after every
event of that instant and before any later one.

Also pins end-to-end determinism: two simulations of the same workload
yield byte-identical serialized :class:`RunResult`\\ s.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro
from repro.events import EventEngine
from repro.events._seed_reference import SeedEventEngine
from repro.stats.export import result_to_dict
from repro.workload import generate_single_collective

# One program operation.  Delays are drawn from a small grid so that
# same-timestamp collisions (the FIFO-sensitive case) are common.
_delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5, 7.0])
_priorities = st.sampled_from([-1, 0, 0, 0, 1, 2])
_nested = st.one_of(
    st.none(), st.tuples(_delays, _priorities))

_op = st.one_of(
    st.tuples(st.just("schedule"), _delays, _priorities, _nested),
    st.tuples(st.just("batch"), _priorities,
              st.lists(st.tuples(_delays, _nested), max_size=6)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("run_until"), _delays),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_max"), st.integers(min_value=1, max_value=4)),
)
_programs = st.lists(_op, min_size=1, max_size=40)
# Ids of the events that register an end-of-instant callback: top-level
# events and the children they schedule.
_instant_ends = st.sets(st.sampled_from(
    [f"{i}{suffix}" for i in range(40) for suffix in ("", ".n")]))


def _cancel(engine, handle):
    """The production engine cancels through itself, the seed through
    the handle."""
    if isinstance(engine, SeedEventEngine):
        handle.cancel()
    else:
        engine.cancel(handle)


def _replay(engine, program, instant_ends=frozenset(), scheduled=None):
    """Run a program; return the full observation log.

    Events whose id is in ``instant_ends`` register a callback that logs
    ``("instant_end", now, event id)``; ``scheduled`` (if given) maps every event
    id to the log length when it was scheduled.
    """
    log = []
    handles = []
    counter = [0]
    if scheduled is None:
        scheduled = {}

    def fire(event_id, nested):
        log.append(("fire", engine.now, event_id))
        if str(event_id) in instant_ends:
            engine.at_instant_end(
                lambda: log.append(("instant_end", engine.now, event_id)))
        if nested is not None:
            delay, priority = nested
            child_id = f"{event_id}.n"
            scheduled[child_id] = len(log)
            handles.append(engine.schedule(
                delay, fire, child_id, None, priority=priority))

    for op in program:
        kind = op[0]
        if kind == "schedule":
            _, delay, priority, nested = op
            event_id = counter[0]
            counter[0] += 1
            scheduled[event_id] = len(log)
            handles.append(engine.schedule(
                delay, fire, event_id, nested, priority=priority))
        elif kind == "batch":
            _, priority, entries = op
            items = []
            for delay, nested in entries:
                items.append((delay, fire, (counter[0], nested)))
                scheduled[counter[0]] = len(log)
                counter[0] += 1
            if isinstance(engine, SeedEventEngine):
                for delay, fn, args in items:
                    engine.schedule(delay, fn, *args, priority=priority)
            else:
                engine.schedule_many(items, priority=priority)
        elif kind == "cancel":
            if handles:
                _cancel(engine, handles[op[1] % len(handles)])
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
        elif kind == "step":
            engine.step()
        elif kind == "run_max":
            engine.run(max_events=op[1])
        log.append(("obs", engine.now, engine.pending,
                    engine.events_processed))
    engine.run()
    log.append(("end", engine.now, engine.pending, engine.events_processed))
    return log


@settings(max_examples=200, deadline=None)
@given(program=_programs)
def test_engine_observationally_equivalent_to_seed(program):
    assert _replay(EventEngine(), program) == \
        _replay(SeedEventEngine(), program)


@settings(max_examples=200, deadline=None)
@given(program=_programs, instant_ends=_instant_ends)
def test_instant_end_callbacks_run_once_at_the_end_of_their_instant(
        program, instant_ends):
    scheduled = {}
    log = _replay(EventEngine(), program, instant_ends, scheduled)
    # Dropping the callbacks leaves exactly the seed's log.
    assert [entry for entry in log if entry[0] != "instant_end"] == \
        _replay(SeedEventEngine(), program)
    registered = {entry[2]: at for at, entry in enumerate(log)
                  if entry[0] == "fire" and str(entry[2]) in instant_ends}
    ends = [(at, entry) for at, entry in enumerate(log)
            if entry[0] == "instant_end"]
    assert sorted(map(str, registered)) == sorted(
        str(entry[2]) for _, entry in ends)
    for at, (_, now, event_id) in ends:
        start = registered[event_id]
        assert now == log[start][1]
        for entry_at, entry in enumerate(log):
            if entry[0] != "fire":
                continue
            if start < entry_at < at:
                # Nothing of a later instant fires before the callback.
                assert entry[1] == now
            elif entry_at > at and entry[1] == now:
                # Later events of the instant were scheduled after it ran.
                assert scheduled[entry[2]] > at


@settings(max_examples=100, deadline=None)
@given(program=_programs)
def test_engine_deterministic_across_replays(program):
    assert _replay(EventEngine(), program) == _replay(EventEngine(), program)


@settings(max_examples=50, deadline=None)
@given(
    n_cancel=st.integers(min_value=0, max_value=30),
    n_keep=st.integers(min_value=0, max_value=10),
)
def test_pending_counts_exact_under_mass_cancellation(n_cancel, n_keep):
    """Counted-live ``pending`` (and lazy compaction) must agree with the
    seed's O(n) scan through arbitrary schedule/cancel/step interleaving."""
    new, seed = EventEngine(), SeedEventEngine()
    for engine in (new, seed):
        cancels = [engine.schedule(1.0 + i, lambda: None)
                   for i in range(n_cancel)]
        for i in range(n_keep):
            engine.schedule(100.0 + i, lambda: None)
        for event in cancels:
            _cancel(engine, event)
            _cancel(engine, event)  # double-cancel must not double-count
    assert new.pending == seed.pending == n_keep
    assert new.step() == seed.step()
    assert new.pending == seed.pending
    assert new.now == seed.now


@settings(max_examples=10, deadline=None)
@given(
    shape=st.sampled_from(["Ring(4)", "Ring(2)_Switch(4)", "Switch(8)"]),
    chunks=st.sampled_from([1, 4, 16]),
    scheduler=st.sampled_from(["baseline", "themis"]),
)
def test_run_result_bit_identical_across_runs(shape, chunks, scheduler):
    bws = [100.0] * (shape.count("_") + 1)
    topo = repro.parse_topology(shape, bws)
    traces = generate_single_collective(
        topo, repro.CollectiveType.ALL_REDUCE, 1 << 20)
    config = repro.SystemConfig(
        topology=topo, scheduler=scheduler, collective_chunks=chunks)
    first = result_to_dict(repro.simulate(traces, config))
    second = result_to_dict(repro.simulate(traces, config))
    assert first == second
