"""Characterization: Themis's balanced (fluid) plans, pinned bit for bit.

Each case starts one :class:`~repro.system.collective_op.CollectiveOperation`
on the paper's Conv-4D ``Ring(2)_FC(8)_Ring(8)_Switch(4)`` with the Themis
scheduler and records the :class:`~repro.system.scheduler.BalancedPlan`
it executes: every per-dimension load, the fill ramp and every
per-dimension traffic figure, as ``float.hex``.  Any ulp of drift in how
the plan is derived (payload arithmetic, table keys, the LP mix) moves a
pin.  Plans come from the LP, so the module skips without scipy.
"""

import dataclasses

import pytest

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.network.topology import MultiDimTopology
from repro.system import CollectiveOperation, make_scheduler
from repro.trace import CollectiveType

try:
    import scipy.optimize  # noqa: F401
except ImportError:
    pytestmark = pytest.mark.skip(
        reason="needs scipy (the optional balancing extra)")

_CONV4D = ("Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50],
           [50, 250, 250, 500])
_PAYLOAD = 1_000_000_007.0


def _topology(oversubscribed_dim=None):
    topo = parse_topology(_CONV4D[0], _CONV4D[1], latencies_ns=_CONV4D[2])
    if oversubscribed_dim is None:
        return topo
    dims = list(topo.dims)
    dims[oversubscribed_dim] = dataclasses.replace(
        dims[oversubscribed_dim], oversubscription=4.0)
    return MultiDimTopology(dims)


def _plan_hex(collective, chunks, comm_dims=(0, 1, 2, 3), group_shape=None,
              oversubscribed_dim=None):
    """The plan one collective executes, as ``float.hex`` strings."""
    plans = []
    original = CollectiveOperation._start_fluid

    def capture(self, plan):
        plans.append(plan)
        return original(self, plan)

    engine = EventEngine()
    net = AnalyticalNetwork(engine, _topology(oversubscribed_dim))
    op = CollectiveOperation(
        engine, net, make_scheduler("themis"), collective, comm_dims, 0,
        _PAYLOAD, num_chunks=chunks, group_shape=group_shape)
    CollectiveOperation._start_fluid = capture
    try:
        op.start()
    finally:
        CollectiveOperation._start_fluid = original
    engine.run()
    (plan,) = plans
    return (
        {d: load.hex() for d, load in plan.loads_ns.items()},
        plan.fill_ns.hex(),
        {d: moved.hex() for d, moved in plan.traffic_bytes.items()},
    )


_AR, _AG = CollectiveType.ALL_REDUCE, CollectiveType.ALL_GATHER
_RS, _A2A = CollectiveType.REDUCE_SCATTER, CollectiveType.ALL_TO_ALL

_CASES = {
    **{f"{c.value}-{n}": dict(collective=c, chunks=n)
       for c in (_AR, _AG, _RS, _A2A) for n in (1, 3, 16, 32)},
    "all_reduce-16-subdim": dict(collective=_AR, chunks=16,
                                 comm_dims=(1, 2, 3),
                                 group_shape={1: 4, 3: 2}),
    "all_reduce-16-oversubscribed": dict(collective=_AR, chunks=16,
                                         oversubscribed_dim=1),
}

_PINS = {
    'all_gather-1': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d3cp+20', 2: '0x1.961b378506d6bp+20', 3: '0x1.961b378506ccep+20'},
        '0x1.32ec7624020c8p+20',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed558p+28', 2: '0x1.3d45435fed57cp+27', 3: '0x1.3d45435fed502p+26'}),
    'all_gather-16': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d38p+20', 2: '0x1.961b378506d3bp+20', 3: '0x1.961b378506d34p+20'},
        '0x1.37af3624020c8p+16',
        {0: '0x1.8c969437e8aabp+28', 1: '0x1.3d45435fed553p+28', 2: '0x1.3d45435fed557p+27', 3: '0x1.3d45435fed551p+26'}),
    'all_gather-3': (
        {0: '0x1.961b378506d3bp+20', 1: '0x1.961b378506d39p+20', 2: '0x1.961b378506d40p+20', 3: '0x1.961b378506d32p+20'},
        '0x1.8349502d3f7d0p+18',
        {0: '0x1.8c969437e8aacp+28', 1: '0x1.3d45435fed553p+28', 2: '0x1.3d45435fed55bp+27', 3: '0x1.3d45435fed54ep+26'}),
    'all_gather-32': (
        {0: '0x1.961b378506d38p+20', 1: '0x1.961b378506d3cp+20', 2: '0x1.961b378506d3dp+20', 3: '0x1.961b378506d3fp+20'},
        '0x1.4d1e2024bc6b0p+14',
        {0: '0x1.8c969437e8aa9p+28', 1: '0x1.3d45435fed557p+28', 2: '0x1.3d45435fed559p+27', 3: '0x1.3d45435fed559p+26'}),
    'all_reduce-1': (
        {0: '0x1.961b378506d3bp+21', 1: '0x1.961b378506d3cp+21', 2: '0x1.961b378506d3fp+21', 3: '0x1.961b378506d26p+21'},
        '0x1.46d718264dd30p+21',
        {0: '0x1.8c969437e8aabp+29', 1: '0x1.3d45435fed558p+29', 2: '0x1.3d45435fed559p+28', 3: '0x1.3d45435fed547p+27'}),
    'all_reduce-16': (
        {0: '0x1.961b378506d39p+21', 1: '0x1.961b378506d3ap+21', 2: '0x1.961b378506d3bp+21', 3: '0x1.961b378506d39p+21'},
        '0x1.9dcbd62fa7ef8p+17',
        {0: '0x1.8c969437e8aa9p+29', 1: '0x1.3d45435fed556p+29', 2: '0x1.3d45435fed556p+28', 3: '0x1.3d45435fed555p+27'}),
    'all_reduce-16-oversubscribed': (
        {0: '0x1.e848003958107p+21', 1: '0x1.2ffbd323b3333p+22', 2: '0x1.2ffbd323b3333p+22', 3: '0x1.2ffbd323b3334p+22'},
        '0x1.7cbd562c126e8p+18',
        {0: '0x1.dcd6503800000p+29', 1: '0x1.daf979e7c8000p+27', 2: '0x1.daf979e7c8000p+28', 3: '0x1.daf979e7c8000p+27'}),
    'all_reduce-16-subdim': (
        {1: '0x1.5752a02851eb9p+22', 2: '0x1.5752a02851eb6p+22', 3: '0x1.5752a02851eb8p+22'},
        '0x1.6d53702a8f5c8p+17',
        {1: '0x1.0c388d1f80000p+30', 2: '0x1.0c388d1f7ffffp+29', 3: '0x1.0c388d1f80000p+28'}),
    'all_reduce-3': (
        {0: '0x1.961b378506d37p+21', 1: '0x1.961b378506d3ap+21', 2: '0x1.961b378506d3dp+21', 3: '0x1.961b378506d4cp+21'},
        '0x1.b59c2033126e8p+19',
        {0: '0x1.8c969437e8aa8p+29', 1: '0x1.3d45435fed557p+29', 2: '0x1.3d45435fed558p+28', 3: '0x1.3d45435fed563p+27'}),
    'all_reduce-32': (
        {0: '0x1.961b378506d3ap+21', 1: '0x1.961b378506d38p+21', 2: '0x1.961b378506d3dp+21', 3: '0x1.961b378506d3ep+21'},
        '0x1.0823561dbc6a6p+17',
        {0: '0x1.8c969437e8aacp+29', 1: '0x1.3d45435fed554p+29', 2: '0x1.3d45435fed557p+28', 3: '0x1.3d45435fed558p+27'}),
    'all_to_all-1': (
        {0: '0x1.e848003958106p+20', 1: '0x1.0b07601f5c28fp+22', 2: '0x1.312d0023d70a4p+23', 3: '0x1.c9c38035c28f6p+23'},
        '0x1.f3c9b43ab020cp+23',
        {0: '0x1.dcd6503800000p+28', 1: '0x1.a13b863100000p+29', 2: '0x1.dcd6503800000p+29', 3: '0x1.65a0bc2a00000p+29'}),
    'all_to_all-16': (
        {0: '0x1.e848003958106p+20', 1: '0x1.0b07601f5c28fp+22', 2: '0x1.312d0023d70a4p+23', 3: '0x1.c9c38035c28f6p+23'},
        '0x1.f4b9f03ab020cp+19',
        {0: '0x1.dcd6503800000p+28', 1: '0x1.a13b863100000p+29', 2: '0x1.dcd6503800000p+29', 3: '0x1.65a0bc2a00000p+29'}),
    'all_to_all-3': (
        {0: '0x1.e848003958106p+20', 1: '0x1.0b07601f5c290p+22', 2: '0x1.312d0023d70a4p+23', 3: '0x1.c9c38035c28f6p+23'},
        '0x1.4d467d7c756b4p+22',
        {0: '0x1.dcd6503800000p+28', 1: '0x1.a13b863100001p+29', 2: '0x1.dcd6503800000p+29', 3: '0x1.65a0bc2a00000p+29'}),
    'all_to_all-32': (
        {0: '0x1.e848003958106p+20', 1: '0x1.0b07601f5c28fp+22', 2: '0x1.312d0023d70a4p+23', 3: '0x1.c9c38035c28f6p+23'},
        '0x1.f5ba303ab020cp+18',
        {0: '0x1.dcd6503800000p+28', 1: '0x1.a13b863100000p+29', 2: '0x1.dcd6503800000p+29', 3: '0x1.65a0bc2a00000p+29'}),
    'reduce_scatter-1': (
        {0: '0x1.961b378506d39p+20', 1: '0x1.961b378506d3ap+20', 2: '0x1.961b378506d43p+20', 3: '0x1.961b378506d42p+20'},
        '0x1.fb15ac3b78d4cp+20',
        {0: '0x1.8c969437e8aa8p+28', 1: '0x1.3d45435fed556p+28', 2: '0x1.3d45435fed55cp+27', 3: '0x1.3d45435fed55bp+26'}),
    'reduce_scatter-16': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d38p+20', 2: '0x1.961b378506d3dp+20', 3: '0x1.961b378506d3ep+20'},
        '0x1.02ab561dbc6a6p+17',
        {0: '0x1.8c969437e8aacp+28', 1: '0x1.3d45435fed554p+28', 2: '0x1.3d45435fed557p+27', 3: '0x1.3d45435fed558p+26'}),
    'reduce_scatter-3': (
        {0: '0x1.961b378506d3cp+20', 1: '0x1.961b378506d38p+20', 2: '0x1.961b378506d36p+20', 3: '0x1.961b378506d45p+20'},
        '0x1.0f86ceca6ff50p+19',
        {0: '0x1.8c969437e8aacp+28', 1: '0x1.3d45435fed553p+28', 2: '0x1.3d45435fed553p+27', 3: '0x1.3d45435fed55ep+26'}),
    'reduce_scatter-32': (
        {0: '0x1.961b378506d38p+20', 1: '0x1.961b378506d0ap+20', 2: '0x1.961b378506cbfp+20', 3: '0x1.961b378506e42p+20'},
        '0x1.ea11d0346a7f0p+14',
        {0: '0x1.8c969437e8aa8p+28', 1: '0x1.3d45435fed52fp+28', 2: '0x1.3d45435fed4f5p+27', 3: '0x1.3d45435fed623p+26'}),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_balanced_plan_is_pinned(name):
    assert _plan_hex(**_CASES[name]) == _PINS[name]
