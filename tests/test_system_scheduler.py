"""Unit tests for chunk-to-dimension schedulers."""

import dataclasses

import pytest

from repro.core import Simulator, SystemConfig
from repro.events import EventEngine
from repro.faults.spec import FaultSchedule
from repro.network import AnalyticalNetwork, parse_topology
from repro.system import BaselineScheduler, PhaseKind, ThemisScheduler, make_scheduler
from repro.system.phases import phase_table
from repro.system.scheduler import chunk_work_vector
from repro.trace import CollectiveType
from repro.workload.generators import generate_single_collective

try:
    import scipy.optimize  # noqa: F401
except ImportError:
    _HAVE_LP = False
else:
    _HAVE_LP = True

#: Balanced plans come from the LP, which needs scipy (the optional
#: ``balancing`` extra); without it ``balanced_plan`` returns None.
requires_lp = pytest.mark.skipif(
    not _HAVE_LP, reason="needs scipy (the optional balancing extra)")


def _network(bws=(100, 100, 100), sizes=None):
    engine = EventEngine()
    sizes = sizes or [4] * len(bws)
    notation = "_".join(f"Ring({k})" for k in sizes)
    topo = parse_topology(notation, list(bws), latencies_ns=[0] * len(bws))
    return engine, AnalyticalNetwork(engine, topo)


class TestWorkVectors:
    def test_single_pass_vector(self):
        _, net = _network(bws=(100, 100), sizes=(4, 4))
        rows = phase_table(net.topology.dims, (0, 1), PhaseKind.REDUCE_SCATTER,
                           1000, roundtrip=False)
        work = chunk_work_vector(rows, roundtrip=False)
        assert work[0] == pytest.approx(750 / 100)
        assert work[1] == pytest.approx(250 * 0.75 / 100)

    def test_roundtrip_doubles(self):
        _, net = _network(bws=(100,), sizes=(4,))
        single = chunk_work_vector(
            phase_table(net.topology.dims, (0,), PhaseKind.REDUCE_SCATTER,
                        1000, roundtrip=False), roundtrip=False)
        double = chunk_work_vector(
            phase_table(net.topology.dims, (0,), PhaseKind.REDUCE_SCATTER,
                        1000, roundtrip=True), roundtrip=True)
        assert double[0] == pytest.approx(2 * single[0])

    def test_traffic_vector_matches_table_iv_structure(self):
        _, net = _network(bws=(100, 100), sizes=(2, 8))
        rows = phase_table(net.topology.dims, (0, 1),
                           PhaseKind.REDUCE_SCATTER, 1024, roundtrip=True)
        traffic = {}
        for dim, _, _, _, moved, _, _ in rows:
            traffic[dim] = traffic.get(dim, 0.0) + moved
        assert traffic[0] == pytest.approx(1024)       # 2 * 1024 * 1/2
        assert traffic[1] == pytest.approx(896)        # 2 * 512 * 7/8


class TestBaseline:
    def test_ascending_order(self):
        _, net = _network()
        sched = BaselineScheduler()
        order = sched.plan_order(net, 0, [2, 0, 1], PhaseKind.REDUCE_SCATTER,
                                 100, {})
        assert order == (0, 1, 2)

    def test_empty_dims_rejected(self):
        _, net = _network()
        with pytest.raises(ValueError):
            BaselineScheduler().plan_order(net, 0, [], PhaseKind.REDUCE_SCATTER,
                                           1, {})


class TestThemisGreedy:
    def test_plan_starts_on_best_dim_when_idle(self):
        # dim 1 is 4x faster: greedy should shrink payload there first.
        _, net = _network(bws=(50, 400, 100))
        sched = ThemisScheduler()
        order = sched.plan_order(net, 0, [0, 1, 2], PhaseKind.REDUCE_SCATTER,
                                 100000, {})
        assert order[0] == 1

    def test_backlog_steers_away(self):
        _, net = _network(bws=(100, 100), sizes=(4, 4))
        net.reserve_port(0, 0, 1e9)
        sched = ThemisScheduler()
        order = sched.plan_order(net, 0, [0, 1], PhaseKind.REDUCE_SCATTER,
                                 1000, {})
        assert order[0] == 1

    def test_pending_load_counts_like_backlog(self):
        _, net = _network(bws=(100, 100), sizes=(4, 4))
        sched = ThemisScheduler()
        order = sched.plan_order(net, 0, [0, 1], PhaseKind.REDUCE_SCATTER,
                                 1000, {0: 1e9})
        assert order[0] == 1

    def test_deterministic(self):
        _, net = _network()
        sched = ThemisScheduler()
        a = sched.plan_order(net, 0, [0, 1, 2], PhaseKind.REDUCE_SCATTER, 500, {})
        b = sched.plan_order(net, 0, [0, 1, 2], PhaseKind.REDUCE_SCATTER, 500, {})
        assert a == b

    def test_empty_dims_rejected(self):
        _, net = _network()
        with pytest.raises(ValueError):
            ThemisScheduler().plan_order(net, 0, [], PhaseKind.REDUCE_SCATTER,
                                         1, {})


@requires_lp
class TestThemisBalancedPlan:
    def test_loads_balanced_on_heterogeneous_topology(self):
        engine = EventEngine()
        topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                              [250, 200, 100, 50], latencies_ns=[0, 0, 0, 0])
        net = AnalyticalNetwork(engine, topo)
        plan = ThemisScheduler().balanced_plan(
            network=net, dims=(0, 1, 2, 3), kind=PhaseKind.REDUCE_SCATTER,
            payload_bytes=1 << 30, num_chunks=32, roundtrip=True)
        assert plan is not None
        loads = list(plan.loads_ns.values())
        assert max(loads) == pytest.approx(min(loads), rel=0.01)
        # Balanced bottleneck approaches 2S/sum(BW) = 2*2^30/600 ns.
        assert max(loads) == pytest.approx(2 * (1 << 30) / 600, rel=0.05)

    def test_traffic_conserved(self):
        engine = EventEngine()
        topo = parse_topology("Ring(2)_FC(8)", [100, 100],
                              latencies_ns=[0, 0])
        net = AnalyticalNetwork(engine, topo)
        plan = ThemisScheduler().balanced_plan(
            network=net, dims=(0, 1), kind=PhaseKind.REDUCE_SCATTER,
            payload_bytes=1 << 20, num_chunks=8, roundtrip=True)
        # Total traffic is order-independent: 2 * S * (1 - 1/16).
        assert sum(plan.traffic_bytes.values()) == pytest.approx(
            2 * (1 << 20) * (1 - 1 / 16), rel=1e-6)

    def test_fill_smaller_than_loads(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)_Ring(4)", [100, 100])
        net = AnalyticalNetwork(engine, topo)
        plan = ThemisScheduler().balanced_plan(
            network=net, dims=(0, 1), kind=PhaseKind.REDUCE_SCATTER,
            payload_bytes=1 << 30, num_chunks=32, roundtrip=True)
        assert 0 <= plan.fill_ns < max(plan.loads_ns.values())


def _conv4d_net():
    topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                          [250, 200, 100, 50], latencies_ns=[50, 250, 250, 500])
    return AnalyticalNetwork(EventEngine(), topo)


def _plan(scheduler, net, payload=1 << 30, num_chunks=32, dims=(0, 1, 2, 3)):
    return scheduler.balanced_plan(
        network=net, dims=dims, kind=PhaseKind.REDUCE_SCATTER,
        payload_bytes=payload, num_chunks=num_chunks, roundtrip=True)


class TestPlanMemo:
    """balanced_plan builds one plan per exact signature and shares it."""

    def test_same_signature_shares_one_plan(self):
        net, scheduler = _conv4d_net(), ThemisScheduler()
        first = _plan(scheduler, net)
        assert _plan(scheduler, net) is first
        # Equal effective specs passed explicitly are the same signature.
        specs = {d: net.topology.dims[d] for d in range(4)}
        assert scheduler.balanced_plan(
            network=net, dims=(0, 1, 2, 3), kind=PhaseKind.REDUCE_SCATTER,
            payload_bytes=1 << 30, num_chunks=32, roundtrip=True,
            dim_specs=specs) is first
        assert len(scheduler._plan_cache) == 1

    @requires_lp
    def test_payload_chunks_and_specs_each_get_their_own_plan(self):
        net, scheduler = _conv4d_net(), ThemisScheduler()
        base = _plan(scheduler, net)
        # A payload this close shares base's (rounded) LP mix key, but
        # the plan is keyed on the exact float.
        plans = [base, _plan(scheduler, net, payload=(1 << 30) + 0.001),
                 _plan(scheduler, net, num_chunks=16),
                 _plan(scheduler, net, dims=(0, 1))]
        slower = {d: dataclasses.replace(spec, bandwidth_gbps=10.0)
                  for d, spec in enumerate(net.topology.dims)}
        plans.append(scheduler.balanced_plan(
            network=net, dims=(0, 1, 2, 3), kind=PhaseKind.REDUCE_SCATTER,
            payload_bytes=1 << 30, num_chunks=32, roundtrip=True,
            dim_specs=slower))
        assert len({id(p) for p in plans}) == len(plans)
        assert len(scheduler._plan_cache) == len(plans)
        assert len(scheduler._mix_cache) == len(plans) - 1

    @requires_lp
    def test_memoized_plan_equals_a_fresh_schedulers_plan(self):
        net, warm = _conv4d_net(), ThemisScheduler()
        signatures = [(1 << 30, 32), (12345.0, 4), (1 << 30, 32),
                      (3.5e8, 8), (12345.0, 4)]
        for payload, chunks in signatures:
            memoized = _plan(warm, net, payload=payload, num_chunks=chunks)
            fresh = _plan(ThemisScheduler(), net, payload=payload,
                          num_chunks=chunks)
            assert memoized.loads_ns == fresh.loads_ns
            assert list(memoized.loads_ns) == list(fresh.loads_ns)
            assert memoized.fill_ns == fresh.fill_ns
            assert memoized.traffic_bytes == fresh.traffic_bytes
        assert len(warm._plan_cache) == 3

    def test_faulted_run_still_goes_chunk_by_chunk(self, monkeypatch):
        orders = []
        original = ThemisScheduler.plan_order

        def counting(self, *args, **kwargs):
            orders.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThemisScheduler, "plan_order", counting)
        topo = parse_topology("Ring(4)_Ring(2)", [100, 50])
        traces = generate_single_collective(topo, CollectiveType.ALL_REDUCE,
                                            1 << 20)
        sim = Simulator(traces, SystemConfig(
            topology=topo, scheduler="themis", collective_chunks=4,
            faults=FaultSchedule.parse("straggler@npu0:2x@t=0")))
        sim.run()
        assert sim.scheduler._plan_cache == {}
        assert len(orders) == 4

    def test_llama70b_conv4d_builds_three_plans_per_point(self, monkeypatch):
        from repro import frontend

        calls = {"balanced_plan": 0, "_build_plan": 0}
        for name in calls:
            original = getattr(ThemisScheduler, name)

            def counting(self, *args, _name=name, _original=original,
                         **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(ThemisScheduler, name, counting)
        topo = _conv4d_net().topology
        planned = frontend.plan(frontend.zoo_graph("llama-70b"), topo,
                                frontend.PlanConfig(tp=16, pp=8, dp=4))
        Simulator(planned.traces, SystemConfig(
            topology=topo, scheduler="themis", collective_chunks=32)).run()
        assert calls == {"balanced_plan": 1369, "_build_plan": 3}

    def test_chunk_path_walks_each_plan_once(self, monkeypatch):
        """A 32-chunk baseline All-Reduce on Conv-4D prices every phase
        once per phase-table row, not once per chunk per phase."""
        from repro.system import phases

        calls = []
        original = phases.phase_traffic_bytes

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(phases, "phase_traffic_bytes", counting)
        topo = _conv4d_net().topology
        traces = generate_single_collective(topo, CollectiveType.ALL_REDUCE,
                                            1 << 30)
        sim = Simulator(traces, SystemConfig(
            topology=topo, scheduler="baseline", collective_chunks=32))
        sim.run()
        # One table: the baseline order, 4 Reduce-Scatter + 4 All-Gather rows.
        assert len(calls) == 8
        (tables,) = sim.scheduler._tables.values()
        (rows, _), = tables.values()
        assert len(rows) == len(calls)


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_scheduler("baseline"), BaselineScheduler)
        assert isinstance(make_scheduler("themis"), ThemisScheduler)
        assert isinstance(make_scheduler("Themis"), ThemisScheduler)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("magic")
