"""Property: the trace linter flags exactly the collectives the engine
cannot run.

The engine and :func:`~repro.workload.lint.lint_traces` key and check
every collective through one communicator rule
(:func:`~repro.network.topology.communicator`).  So on any small trace
set, with ``comm_dims`` and ``involved_npus`` listed in any order, with
duplicates, out of range or left out: ``simulate`` raises an input error
that the linter also reports, or deadlocks in a rendezvous the linter
says would hang, or completes on a trace set the linter finds clean.
"""

from hypothesis import given, settings, strategies as st

from repro.core import DeadlockError, SystemConfig, simulate
from repro.errors import InputError
from repro.network.topology import parse_topology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType
from repro.workload.lint import lint_traces

TOPOLOGIES = [parse_topology(notation, [100.0, 50.0])
              for notation in ("Ring(2)_Ring(2)", "Ring(4)_Ring(2)")]

COMM_DIMS = st.one_of(
    st.none(),
    st.permutations([0, 1]).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple))


@st.composite
def trace_sets(draw):
    topo = draw(st.sampled_from(TOPOLOGIES))
    npus = st.integers(0, topo.num_npus - 1)
    traces = {}
    for rank in sorted(draw(st.lists(npus, min_size=2, max_size=3,
                                     unique=True))):
        members = draw(st.one_of(
            st.none(),
            # a group the rank is in, or any list of NPUs
            st.sampled_from([(0,), (1,), (0, 1)]).map(
                lambda dims, rank=rank: topo.comm_group(rank, dims).members()),
            st.lists(npus, min_size=1, max_size=topo.num_npus)))
        if members is not None:
            members = tuple(draw(st.permutations(members)))
        traces[rank] = ExecutionTrace(rank, [ETNode(
            0, NodeType.COMM_COLLECTIVE, name="sync", tensor_bytes=1 << 20,
            collective=CollectiveType.ALL_REDUCE, comm_dims=draw(COMM_DIMS),
            involved_npus=members)])
    return topo, traces


@settings(max_examples=150, deadline=None)
@given(trace_sets())
def test_lint_flags_exactly_what_the_engine_cannot_run(case):
    topo, traces = case
    findings = lint_traces(traces, topo)
    try:
        simulate(traces, SystemConfig(topology=topo))
    except InputError as exc:
        assert str(exc) in findings
    except DeadlockError:
        assert any("rendezvous would hang" in f for f in findings)
    else:
        assert findings == []
