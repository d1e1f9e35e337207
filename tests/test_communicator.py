"""The one communicator rule, as the engine and the trace linter apply it."""

import dataclasses

import pytest

from repro.core import CollectiveGroupError, DeadlockError, SystemConfig, simulate
from repro.memory import HierMemConfig, InSwitchCollectiveMemory
from repro.network.topology import CommGroup, TopologyError, communicator, parse_topology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType
from repro.workload import generate_data_parallel, gpt3_175b
from repro.workload.generators import VIA_FABRIC
from repro.workload.lint import lint_traces


def _topo(notation):
    return parse_topology(notation, [100.0, 50.0])


def _collective(comm_dims=None, involved_npus=None, attrs=None):
    return ETNode(0, NodeType.COMM_COLLECTIVE, name="sync",
                  tensor_bytes=1 << 20, collective=CollectiveType.ALL_REDUCE,
                  comm_dims=comm_dims, involved_npus=involved_npus,
                  attrs=attrs or {})


def _traces(*per_rank):
    """Ranks 0, 1, ... each issuing one collective with the given fields."""
    return {rank: ExecutionTrace(rank, [_collective(**fields)])
            for rank, fields in enumerate(per_rank)}


class TestRule:
    def test_order_and_duplicates_do_not_change_the_key(self):
        topo = _topo("Ring(4)_Ring(2)")
        key, shape, participants = communicator(
            topo, 1, _collective((1, 0, 0), (3, 2, 1, 0, 1)), {0, 1, 5})
        assert key == (0, (0, 1), (0, 1, 2, 3))
        assert shape == {0: 4, 1: 1}
        assert participants == {0, 1}

    def test_symbolic_group_stays_symbolic(self):
        topo = _topo("Ring(4)_Ring(2)")
        (rep, dims, group), shape, participants = communicator(
            topo, 5, _collective((0,)), {4, 5, 0})
        assert (rep, dims, shape, participants) == (4, (0,), None, {4, 5})
        assert isinstance(group, CommGroup) and group._members == ()

    @pytest.mark.parametrize("node, error, message", [
        (_collective((2, 0)), TopologyError,
         "npu 0 node 0 ('sync'): comm_dims [2] out of range for 2-D topology"),
        (_collective(involved_npus=(0, 8)), TopologyError,
         "npu 0 node 0 ('sync'): involved NPUs [8] do not exist"),
        (_collective(involved_npus=(2, 1)), CollectiveGroupError,
         "npu 0 node 0 ('sync') issues a collective whose involved_npus "
         "[2, 1] exclude it"),
        (_collective((0,), (0, 4)), TopologyError,
         "collective 'sync': involved_npus is not a cartesian product over "
         "dims (0,) (shape {0: 1} vs 2 members)"),
        (_collective((0,), (0, 5)), TopologyError,
         "collective 'sync': involved_npus is not a cartesian product over "
         "dims (0,) (shape {0: 2} vs 2 members)"),
    ], ids=["dims-out-of-range", "member-outside", "issuer-left-out",
            "not-cartesian", "differs-outside-dims"])
    def test_errors_are_input_errors(self, node, error, message):
        with pytest.raises(error) as exc:
            communicator(_topo("Ring(4)_Ring(2)"), 0, node, {0})
        assert str(exc.value) == message
        assert isinstance(exc.value, ValueError)


class TestLintMatchesEngine:
    @pytest.mark.parametrize("notation, traces, error", [
        ("Ring(4)_Ring(2)", _traces(dict(involved_npus=(1, 2))),
         CollectiveGroupError),
        ("Ring(4)_Ring(2)", _traces(dict(comm_dims=(0,),
                                            involved_npus=(0, 4))),
         TopologyError),
        ("Ring(2)_Ring(2)", _traces(
            dict(comm_dims=(0,), involved_npus=(0, 1)),
            dict(involved_npus=(0, 1))), DeadlockError),
    ], ids=["issuer-left-out", "not-cartesian", "split-rendezvous"])
    def test_lint_reports_what_the_engine_rejects(self, notation, traces,
                                                  error):
        topo = _topo(notation)
        findings = lint_traces(traces, topo)
        with pytest.raises(error) as exc:
            simulate(traces, SystemConfig(topology=topo))
        if error is DeadlockError:
            assert any("rendezvous would hang" in f for f in findings)
        else:
            assert findings == [str(exc.value)]

    @pytest.mark.parametrize("notation, listed, canonical", [
        ("Ring(2)_Ring(2)", _traces(dict(comm_dims=(0, 1)),
                                    dict(comm_dims=(1, 0))),
         _traces(dict(comm_dims=(0, 1)), dict(comm_dims=(0, 1)))),
        ("Ring(4)_Ring(2)", _traces(dict(involved_npus=(0, 1, 2, 3)),
                                    dict(involved_npus=(3, 2, 1, 0))),
         _traces(dict(involved_npus=(0, 1, 2, 3)),
                 dict(involved_npus=(0, 1, 2, 3)))),
    ], ids=["comm-dims", "involved-npus"])
    def test_listing_order_does_not_matter(self, notation, listed, canonical):
        topo = _topo(notation)
        assert lint_traces(listed, topo) == []
        config = SystemConfig(topology=topo)
        assert (simulate(listed, config).total_time_ns
                == simulate(canonical, config).total_time_ns)

    @pytest.mark.parametrize("first, second", [
        (None, (0, 1)), ((0, 1), (1, 0))], ids=["none-then-all", "reordered"])
    def test_one_rank_may_list_a_communicator_two_ways(self, first, second):
        # Both listings are one communicator, so they share one issue
        # sequence: the second issue meets rank 1's second issue.
        topo = _topo("Ring(2)_Ring(2)")

        def trace(rank, dims):
            return ExecutionTrace(rank, [
                _collective(dims[0]),
                dataclasses.replace(_collective(dims[1]), node_id=1, deps=(0,))])

        listed = {0: trace(0, (first, second)), 1: trace(1, ((0, 1), (0, 1)))}
        canonical = {0: trace(0, ((0, 1), (0, 1))), 1: trace(1, ((0, 1), (0, 1)))}
        assert lint_traces(listed, topo) == []
        config = SystemConfig(topology=topo)
        assert (simulate(listed, config).total_time_ns
                == simulate(canonical, config).total_time_ns)

    def test_in_switch_collectives_never_rendezvous(self):
        topo = _topo("Ring(2)_Ring(2)")
        fabric = _collective((0,), attrs={"via": VIA_FABRIC})
        traces = {0: ExecutionTrace(0, [fabric]),
                  1: ExecutionTrace(1, [ETNode(0, NodeType.COMPUTE, flops=1)])}
        assert lint_traces(traces, topo) == []
        simulate(traces, SystemConfig(
            topology=topo, fabric_collectives=InSwitchCollectiveMemory(
                HierMemConfig(num_nodes=2, gpus_per_node=2))))


def test_lint_never_materializes_a_symbolic_group(monkeypatch):
    topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(8192)",
                          [250, 200, 100, 50], [50, 250, 250, 500])
    traces = generate_data_parallel(gpt3_175b(), topo)

    def materialize(group):
        raise AssertionError(f"{group} materialized")

    monkeypatch.setattr(CommGroup, "members", materialize)
    assert lint_traces(traces, topo) == []
