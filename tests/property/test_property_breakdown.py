"""Property test: the int-counter breakdown sweep equals the enum-keyed one.

``compute_breakdown`` sweeps per-rank integer counters.  It must pick the
same winner for every elementary segment and add the same spans in the
same order as the enum-keyed sweep it replaced, which is kept below as a
frozen oracle, so every exposed, idle and total time is equal bit for
bit, and ``exposed_ns`` lists every ``Activity`` in declaration order.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.stats import Activity, Breakdown, compute_breakdown

_ORACLE_PRIORITY = {a: i for i, a in enumerate(Activity)}


def oracle_breakdown(
    intervals: List[Tuple[float, float, Activity]], total_ns: float
) -> Breakdown:
    """The enum-keyed sweep, frozen as it was before the int counters."""
    events: List[Tuple[float, int, Activity]] = []
    for start, end, activity in intervals:
        events.append((start, +1, activity))
        events.append((end, -1, activity))
    events.sort(key=lambda e: e[0])

    exposed: Dict[Activity, float] = {a: 0.0 for a in Activity}
    active = {a: 0 for a in Activity}
    covered = 0.0
    prev_t = events[0][0] if events else 0.0
    idx = 0
    while idx < len(events):
        t = events[idx][0]
        span = t - prev_t
        if span > 0:
            current = [a for a in Activity if active[a] > 0]
            if current:
                winner = min(current, key=_ORACLE_PRIORITY.get)
                exposed[winner] += span
                covered += span
        while idx < len(events) and events[idx][0] == t:
            _, delta, activity = events[idx]
            active[activity] += delta
            idx += 1
        prev_t = t

    idle = max(0.0, total_ns - covered)
    return Breakdown(total_ns=total_ns, exposed_ns=exposed, idle_ns=idle)


# A handful of boundaries makes shared endpoints, zero-length and nested
# intervals common; arbitrary floats cover everything in between.
_SHARED = st.sampled_from([0.0, 1.0, 2.5, 7.0, 7.000000000000001, 1e6])
_ANY = st.floats(min_value=0, max_value=1e9, allow_nan=False)
_POINT = st.one_of(_SHARED, _SHARED, _ANY)
_ACTIVITY = st.sampled_from(list(Activity))


@st.composite
def _intervals(draw):
    intervals = []
    for _ in range(draw(st.integers(0, 25))):
        shape = draw(st.sampled_from(["any", "zero", "nested"]))
        activity = draw(_ACTIVITY)
        a, b = draw(_POINT), draw(_POINT)
        if shape == "zero":
            intervals.append((a, a, activity))
        elif shape == "nested" and intervals:
            # Inside an earlier interval, with that interval's activity.
            start, end, outer = draw(st.sampled_from(intervals))
            lo, hi = min(start, end), max(start, end)
            inner = sorted(min(max(x, lo), hi) for x in (a, b))
            intervals.append((inner[0], inner[1], outer))
        else:
            # Unordered on purpose: the sweep takes any pair as given.
            intervals.append((a, b, activity))
    return intervals


def _bits(b: Breakdown):
    return (b.total_ns.hex(), b.idle_ns.hex(),
            [(a, v.hex()) for a, v in b.exposed_ns.items()])


@settings(max_examples=400, deadline=None)
@given(_intervals(), st.one_of(_SHARED, _ANY))
def test_int_sweep_is_bit_identical_to_the_enum_sweep(intervals, total_ns):
    got = compute_breakdown(intervals, total_ns)
    assert list(got.exposed_ns) == list(Activity)
    assert _bits(got) == _bits(oracle_breakdown(intervals, total_ns))


@settings(max_examples=200, deadline=None)
@given(_intervals())
def test_sweep_is_bit_identical_over_the_intervals_own_horizon(intervals):
    horizon = max((max(s, e) for s, e, _ in intervals), default=0.0)
    got = compute_breakdown(intervals, horizon)
    assert _bits(got) == _bits(oracle_breakdown(intervals, horizon))
