"""Characterization: Themis's balanced (fluid) plans, pinned bit for bit.

Each case starts one :class:`~repro.system.collective_op.CollectiveOperation`
on the paper's Conv-4D ``Ring(2)_FC(8)_Ring(8)_Switch(4)`` with the Themis
scheduler and records the :class:`~repro.system.scheduler.BalancedPlan`
it executes: every per-dimension load, the fill ramp and every
per-dimension traffic figure, as ``float.hex``.  Any ulp of drift in how
the plan is derived (payload arithmetic, table keys, the LP mix) moves a
pin.
"""

import dataclasses

import pytest

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.network.topology import MultiDimTopology
from repro.system import CollectiveOperation, make_scheduler
from repro.trace import CollectiveType

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
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d3ap+20', 2: '0x1.961b378506d3ap+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.43faac25f7cecp+20',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed556p+27', 3: '0x1.3d45435fed554p+26'}),
    'all_gather-16': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d3ap+20', 2: '0x1.961b378506d3ap+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.4e3bac25f7cecp+16',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed556p+27', 3: '0x1.3d45435fed554p+26'}),
    'all_gather-3': (
        {0: '0x1.961b378506d3bp+20', 1: '0x1.961b378506d3ap+20', 2: '0x1.961b378506d3bp+20', 3: '0x1.961b378506d3bp+20'},
        '0x1.b1cb90329fbe8p+18',
        {0: '0x1.8c969437e8aacp+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed556p+27', 3: '0x1.3d45435fed556p+26'}),
    'all_gather-32': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d3ap+20', 2: '0x1.961b378506d3ap+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.592bac25f7cecp+15',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed556p+27', 3: '0x1.3d45435fed554p+26'}),
    'all_reduce-1': (
        {0: '0x1.961b378506d39p+21', 1: '0x1.961b378506d39p+21', 2: '0x1.961b378506d39p+21', 3: '0x1.961b378506d3ap+21'},
        '0x1.2176bc21ef9d8p+21',
        {0: '0x1.8c969437e8aaap+29', 1: '0x1.3d45435fed555p+29', 2: '0x1.3d45435fed554p+28', 3: '0x1.3d45435fed555p+27'}),
    'all_reduce-16': (
        {0: '0x1.961b378506d39p+21', 1: '0x1.961b378506d39p+21', 2: '0x1.961b378506d39p+21', 3: '0x1.961b378506d3ap+21'},
        '0x1.28f89c21ef9d8p+17',
        {0: '0x1.8c969437e8aaap+29', 1: '0x1.3d45435fed555p+29', 2: '0x1.3d45435fed554p+28', 3: '0x1.3d45435fed555p+27'}),
    'all_reduce-16-oversubscribed': (
        {0: '0x1.e848003958106p+21', 1: '0x1.2ffbd323b3333p+22', 2: '0x1.2ffbd323b3332p+22', 3: '0x1.2ffbd323b3332p+22'},
        '0x1.4aabf42631270p+18',
        {0: '0x1.dcd6503800000p+29', 1: '0x1.daf979e7c7fffp+27', 2: '0x1.daf979e7c8000p+28', 3: '0x1.daf979e7c7fffp+27'}),
    'all_reduce-16-subdim': (
        {1: '0x1.5752a02851eb9p+22', 2: '0x1.5752a02851eb8p+22', 3: '0x1.5752a02851eb8p+22'},
        '0x1.6d53702a8f5c8p+17',
        {1: '0x1.0c388d1f80001p+30', 2: '0x1.0c388d1f80001p+29', 3: '0x1.0c388d1f80000p+28'}),
    'all_reduce-3': (
        {0: '0x1.961b378506d3ap+21', 1: '0x1.961b378506d3bp+21', 2: '0x1.961b378506d3bp+21', 3: '0x1.961b378506d3ap+21'},
        '0x1.8349502d3f7c0p+19',
        {0: '0x1.8c969437e8aabp+29', 1: '0x1.3d45435fed556p+29', 2: '0x1.3d45435fed556p+28', 3: '0x1.3d45435fed556p+27'}),
    'all_reduce-32': (
        {0: '0x1.961b378506d39p+21', 1: '0x1.961b378506d39p+21', 2: '0x1.961b378506d39p+21', 3: '0x1.961b378506d3ap+21'},
        '0x1.30fa9c21ef9d8p+16',
        {0: '0x1.8c969437e8aaap+29', 1: '0x1.3d45435fed555p+29', 2: '0x1.3d45435fed554p+28', 3: '0x1.3d45435fed555p+27'}),
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
        {0: '0x1.961b378506d39p+20', 1: '0x1.961b378506d39p+20', 2: '0x1.961b378506d39p+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.2176bc21ef9d8p+20',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed554p+27', 3: '0x1.3d45435fed555p+26'}),
    'reduce_scatter-16': (
        {0: '0x1.961b378506d39p+20', 1: '0x1.961b378506d39p+20', 2: '0x1.961b378506d39p+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.28f89c21ef9d8p+16',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed554p+27', 3: '0x1.3d45435fed555p+26'}),
    'reduce_scatter-3': (
        {0: '0x1.961b378506d3ap+20', 1: '0x1.961b378506d3bp+20', 2: '0x1.961b378506d3bp+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.8349502d3f7c0p+18',
        {0: '0x1.8c969437e8aabp+28', 1: '0x1.3d45435fed556p+28', 2: '0x1.3d45435fed556p+27', 3: '0x1.3d45435fed556p+26'}),
    'reduce_scatter-32': (
        {0: '0x1.961b378506d39p+20', 1: '0x1.961b378506d39p+20', 2: '0x1.961b378506d39p+20', 3: '0x1.961b378506d3ap+20'},
        '0x1.30fa9c21ef9d8p+15',
        {0: '0x1.8c969437e8aaap+28', 1: '0x1.3d45435fed555p+28', 2: '0x1.3d45435fed554p+27', 3: '0x1.3d45435fed555p+26'}),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_balanced_plan_is_pinned(name):
    assert _plan_hex(**_CASES[name]) == _PINS[name]
