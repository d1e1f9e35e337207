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


def _cancel(engine, handle):
    """The production engine cancels through itself, the seed through
    the handle."""
    if isinstance(engine, SeedEventEngine):
        handle.cancel()
    else:
        engine.cancel(handle)


def _replay(engine, program):
    """Run a program; return the full observation log."""
    log = []
    handles = []
    counter = [0]

    def fire(event_id, nested):
        log.append(("fire", engine.now, event_id))
        if nested is not None:
            delay, priority = nested
            child_id = f"{event_id}.n"
            handles.append(engine.schedule(
                delay, fire, child_id, None, priority=priority))

    for op in program:
        kind = op[0]
        if kind == "schedule":
            _, delay, priority, nested = op
            event_id = counter[0]
            counter[0] += 1
            handles.append(engine.schedule(
                delay, fire, event_id, nested, priority=priority))
        elif kind == "batch":
            _, priority, entries = op
            items = []
            for delay, nested in entries:
                items.append((delay, fire, (counter[0], nested)))
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
