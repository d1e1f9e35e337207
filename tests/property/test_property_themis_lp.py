"""Property tests: Themis's in-repo order-mix LP against HiGHS.

:meth:`ThemisScheduler._solve_mix` solves the min-max LP over candidate
dimension orders exactly, with a stated pivot rule.  scipy's HiGHS is a
test-time oracle only (these properties skip without it): over random
1-5-dim specs, chunk counts and collective kinds, the in-repo bottleneck
must equal HiGHS's optimum within 1e-12 relative.  Every fraction is
positive, the fractions sum to 1 within an ulp, and a fresh scheduler
returns the identical mix.  A degenerate Conv-4D LP, whose optimum has
more than one support, pins the tie-break itself and runs everywhere.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import parse_topology
from repro.system import ThemisScheduler
from repro.system.phases import FIRST_PASS_KIND
from repro.trace import CollectiveType

try:
    from scipy.optimize import linprog
except ImportError:
    linprog = None

_COLLECTIVES = tuple(CollectiveType)


def _tables(scheduler, topology, collective, payload, chunks):
    """The phase tables a collective over every dim plans from."""
    comm = scheduler.effective_comm(topology.dims, range(topology.num_dims))
    chunk_payload = payload / chunks
    if collective is CollectiveType.ALL_GATHER:
        chunk_payload /= comm.group_size
    return scheduler.phase_tables(
        comm, FIRST_PASS_KIND[collective], chunk_payload,
        collective is CollectiveType.ALL_REDUCE)


def _bottleneck(tables, mix):
    return max(math.fsum(fraction * tables[order][1][d]
                         for order, fraction in mix)
               for d in tables.dims)


def _highs_bottleneck(tables):
    orders = ThemisScheduler._candidate_orders(tables)
    n = len(orders)
    result = linprog(
        [0.0] * n + [1.0],
        A_ub=[[tables[order][1][d] for order in orders] + [-1.0]
              for d in tables.dims],
        b_ub=[0.0] * len(tables.dims), A_eq=[[1.0] * n + [0.0]], b_eq=[1.0],
        bounds=[(0, None)] * (n + 1), method="highs")
    assert result.success
    return result.fun


@st.composite
def lps(draw):
    """A 1-5-dim topology, a collective kind, a payload and chunk count."""
    ndims = draw(st.integers(min_value=1, max_value=5))
    blocks = [(draw(st.sampled_from(("Ring", "FC", "Switch"))),
               draw(st.integers(min_value=2, max_value=8)))
              for _ in range(ndims)]
    topology = parse_topology(
        "_".join(f"{block}({size})" for block, size in blocks),
        [draw(st.sampled_from((12.5, 25, 50, 100, 200, 250, 400)))
         for _ in blocks],
        latencies_ns=[draw(st.sampled_from((0, 50, 250, 500)))
                      for _ in blocks])
    collective = draw(st.sampled_from(_COLLECTIVES))
    payload = draw(st.sampled_from((1 << 30, 1_000_000_007.0, 12345.0)))
    chunks = draw(st.integers(min_value=1, max_value=64))
    return topology, collective, payload, chunks


@pytest.mark.skipif(linprog is None, reason="scipy is the LP oracle")
@settings(max_examples=60, deadline=None)
@given(lps())
def test_mix_is_optimal_normalized_and_deterministic(lp):
    scheduler = ThemisScheduler()
    tables = _tables(scheduler, *lp)
    mix = scheduler._solve_mix(tables)
    assert _bottleneck(tables, mix) == pytest.approx(
        _highs_bottleneck(tables), rel=1e-12)
    fractions = [fraction for _, fraction in mix]
    assert all(fraction > 0 for fraction in fractions)
    assert abs(math.fsum(fractions) - 1.0) <= math.ulp(1.0)
    fresh = ThemisScheduler()
    assert fresh._solve_mix(_tables(fresh, *lp)) == mix


_CONV4D = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                         [250, 200, 100, 50], latencies_ns=[50, 250, 250, 500])

#: The mix of a 32-chunk 1,000,000,007-byte All-Reduce on Conv-4D.
_DEGENERATE_MIX = [
    ((0, 1, 2, 3), '0x1.0be1368be1368p-1'),
    ((0, 2, 3, 1), '0x1.2525252525252p-2'),
    ((1, 2, 3, 0), '0x1.a6cb5da6cb5dcp-4'),
    ((3, 0, 1, 2), '0x1.6596596596596p-4'),
]


def test_degenerate_conv4d_tie_break_is_pinned(monkeypatch):
    """The LP has more than one optimal support: without the pinned
    mix's first order the optimum is unchanged.  Which vertex the pivot
    rule lands on is therefore pinned, fraction by fraction."""
    scheduler = ThemisScheduler()
    tables = _tables(scheduler, _CONV4D, CollectiveType.ALL_REDUCE,
                     1_000_000_007.0, 32)
    mix = scheduler._solve_mix(tables)
    assert [(order, fraction.hex()) for order, fraction in mix] \
        == _DEGENERATE_MIX
    first = mix[0][0]
    candidates = ThemisScheduler._candidate_orders(tables)
    monkeypatch.setattr(
        ThemisScheduler, "_candidate_orders",
        staticmethod(lambda _tables: [o for o in candidates if o != first]))
    other = scheduler._solve_mix(tables)
    assert first not in dict(other)
    assert _bottleneck(tables, other) == pytest.approx(
        _bottleneck(tables, mix), rel=1e-12)
