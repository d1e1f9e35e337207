"""Unit tests for chunk-to-dimension schedulers."""

import dataclasses

import pytest

from repro.core import Simulator, SystemConfig
from repro.events import EventEngine
from repro.faults.spec import FaultSchedule
from repro.network import AnalyticalNetwork, MultiDimTopology, parse_topology
from repro.system import (
    BaselineScheduler,
    PhaseKind,
    ThemisScheduler,
    make_scheduler,
)
from repro.system.phases import phase_table
from repro.system.scheduler import chunk_work_vector
from repro.trace import CollectiveType
from repro.workload.generators import generate_single_collective

def _network(bws=(100, 100, 100), sizes=None):
    engine = EventEngine()
    sizes = sizes or [4] * len(bws)
    notation = "_".join(f"Ring({k})" for k in sizes)
    topo = parse_topology(notation, list(bws), latencies_ns=[0] * len(bws))
    return engine, AnalyticalNetwork(engine, topo)


def _tables(scheduler, topology, dims, payload, roundtrip=False,
            kind=PhaseKind.REDUCE_SCATTER, group_shape=None):
    comm = scheduler.effective_comm(topology.dims, dims, group_shape)
    return scheduler.phase_tables(comm, kind, payload, roundtrip)


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
        # The chunk path walks the tables' dims, which are ascending.
        _, net = _network()
        sched = BaselineScheduler()
        tables = _tables(sched, net.topology, [2, 0, 1], 100)
        assert tables.dims == (0, 1, 2)
        assert sched.balanced_plan(tables, 4) is None


def _plan(scheduler, topology, payload=1 << 30, num_chunks=32,
          dims=(0, 1, 2, 3), group_shape=None):
    tables = _tables(scheduler, topology, dims, payload / num_chunks,
                     roundtrip=True, group_shape=group_shape)
    return scheduler.balanced_plan(tables, num_chunks)


class TestThemisBalancedPlan:
    def test_loads_balanced_on_heterogeneous_topology(self):
        topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                              [250, 200, 100, 50], latencies_ns=[0, 0, 0, 0])
        plan = _plan(ThemisScheduler(), topo)
        assert plan is not None
        loads = list(plan.loads_ns.values())
        assert max(loads) == pytest.approx(min(loads), rel=0.01)
        # Balanced bottleneck approaches 2S/sum(BW) = 2*2^30/600 ns.
        assert max(loads) == pytest.approx(2 * (1 << 30) / 600, rel=0.05)

    def test_traffic_conserved(self):
        topo = parse_topology("Ring(2)_FC(8)", [100, 100],
                              latencies_ns=[0, 0])
        plan = _plan(ThemisScheduler(), topo, payload=1 << 20, num_chunks=8,
                     dims=(0, 1))
        # Total traffic is order-independent: 2 * S * (1 - 1/16).
        assert sum(plan.traffic_bytes.values()) == pytest.approx(
            2 * (1 << 20) * (1 - 1 / 16), rel=1e-6)

    def test_fill_smaller_than_loads(self):
        topo = parse_topology("Ring(4)_Ring(4)", [100, 100])
        plan = _plan(ThemisScheduler(), topo, dims=(0, 1))
        assert 0 <= plan.fill_ns < max(plan.loads_ns.values())


def _conv4d():
    return parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                          [250, 200, 100, 50], latencies_ns=[50, 250, 250, 500])


class TestEffectiveComm:
    """The per-run memo of each communicator's effective view."""

    def test_one_view_per_communicator(self):
        topo, scheduler = _conv4d(), BaselineScheduler()
        comm = scheduler.effective_comm(topo.dims, (3, 1, 0, 2))
        assert scheduler.effective_comm(topo.dims, range(4)) is comm
        assert comm.active_dims == (0, 1, 2, 3)
        assert comm.group_size == 512
        assert all(comm.specs[d] is topo.dims[d] for d in range(4))

    def test_sub_dimension_and_oversubscription_fold_in(self):
        topo = _conv4d()
        dims = list(topo.dims)
        dims[3] = dataclasses.replace(dims[3], oversubscription=4.0)
        comm = BaselineScheduler().effective_comm(
            MultiDimTopology(dims).dims, (0, 1, 3), {1: 4, 3: 1})
        assert comm.active_dims == (0, 1)
        assert comm.group_size == 8
        assert comm.specs[1].size == 4
        assert comm.specs[3].size == 1
        assert comm.specs[3].bandwidth_gbps == 50 / 4.0
        assert comm.specs[3].oversubscription == 1.0

    def test_physical_specs_are_part_of_the_key(self):
        scheduler = BaselineScheduler()
        fast = scheduler.effective_comm(_conv4d().dims, range(4))
        slow_topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                                   [25, 20, 10, 5],
                                   latencies_ns=[50, 250, 250, 500])
        slow = scheduler.effective_comm(slow_topo.dims, range(4))
        assert slow is not fast
        assert slow.specs[0].bandwidth_gbps == 25

    def test_group_larger_than_dimension_rejected(self):
        with pytest.raises(ValueError, match="exceeds dimension 0"):
            BaselineScheduler().effective_comm(_conv4d().dims, (0,), {0: 3})


class TestPlanMemo:
    """balanced_plan builds one plan per tables and chunk count, shared."""

    def test_same_signature_shares_one_plan(self):
        topo, scheduler = _conv4d(), ThemisScheduler()
        first = _plan(scheduler, topo)
        assert _plan(scheduler, topo) is first
        # A group shape equal to the physical sizes is the same
        # effective communicator, so it reads the same tables.
        assert _plan(scheduler, topo, group_shape={0: 2, 1: 8}) is first
        assert len(scheduler._plans) == 1

    def test_payload_chunks_and_specs_each_get_their_own_plan(self):
        topo, scheduler = _conv4d(), ThemisScheduler()
        base = _plan(scheduler, topo)
        # Tables, and so mixes and plans, are keyed on the exact payload.
        plans = [base, _plan(scheduler, topo, payload=(1 << 30) + 0.001),
                 _plan(scheduler, topo, num_chunks=16),
                 _plan(scheduler, topo, dims=(0, 1))]
        slower = MultiDimTopology([
            dataclasses.replace(spec, bandwidth_gbps=10.0)
            for spec in topo.dims])
        plans.append(_plan(scheduler, slower))
        assert len({id(p) for p in plans}) == len(plans)
        assert len(scheduler._plans) == len(plans)

    def test_memoized_plan_equals_a_fresh_schedulers_plan(self):
        topo, warm = _conv4d(), ThemisScheduler()
        signatures = [(1 << 30, 32), (12345.0, 4), (1 << 30, 32),
                      (3.5e8, 8), (12345.0, 4)]
        for payload, chunks in signatures:
            memoized = _plan(warm, topo, payload=payload, num_chunks=chunks)
            fresh = _plan(ThemisScheduler(), topo, payload=payload,
                          num_chunks=chunks)
            assert memoized.loads_ns == fresh.loads_ns
            assert list(memoized.loads_ns) == list(fresh.loads_ns)
            assert memoized.fill_ns == fresh.fill_ns
            assert memoized.traffic_bytes == fresh.traffic_bytes
        assert len(warm._plans) == 3

    @pytest.mark.parametrize("start, lands", [
        ("0", True),     # acts from the collective's start
        ("1us", True),   # activates while the plan runs
        ("1s", False),   # activates long after the collective ends
    ])
    def test_faulted_collective_keeps_the_fluid_plan(self, start, lands):
        topo = parse_topology("Ring(4)_Ring(2)", [100, 50])
        traces = generate_single_collective(topo, CollectiveType.ALL_REDUCE,
                                            1 << 20)
        config = SystemConfig(topology=topo, scheduler="themis",
                              collective_chunks=4)
        clean = Simulator(traces, config).run()
        faulted = Simulator(traces, dataclasses.replace(
            config, faults=FaultSchedule.parse(
                f"straggler@npu0:2x@t={start}"))).run()
        # The plan's loads are integrated over the fault: no chunk events.
        assert faulted.events_processed == clean.events_processed
        assert (faulted.total_time_ns > clean.total_time_ns) == lands
        if not lands:
            assert faulted.total_time_ns == clean.total_time_ns

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
        topo = _conv4d()
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
        topo = _conv4d()
        traces = generate_single_collective(topo, CollectiveType.ALL_REDUCE,
                                            1 << 30)
        sim = Simulator(traces, SystemConfig(
            topology=topo, scheduler="baseline", collective_chunks=32))
        sim.run()
        # One table: the baseline order, 4 Reduce-Scatter + 4 All-Gather rows.
        assert len(calls) == 8
        (signatures,) = sim.scheduler._tables.values()
        (tables,) = signatures.values()
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
