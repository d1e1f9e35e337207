"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, DimSpec, MultiDimTopology, parse_topology
from repro.network.building_blocks import BuildingBlock, hops_between, latency_steps
from repro.stats import Activity, compute_breakdown
from repro.system import make_scheduler, CollectiveOperation
from repro.system.phases import PhaseKind, phase_table
from repro.trace import CollectiveType, ETNode, ExecutionTrace, NodeType
from repro.trace.serialization import dumps_trace, loads_trace

# -- strategies -----------------------------------------------------------------------

blocks = st.sampled_from(list(BuildingBlock))
dim_sizes = st.integers(min_value=1, max_value=16)


@st.composite
def topologies(draw, max_dims=4, max_npus=512):
    n_dims = draw(st.integers(min_value=1, max_value=max_dims))
    dims = []
    total = 1
    for _ in range(n_dims):
        size = draw(st.integers(min_value=1, max_value=8))
        if total * size > max_npus:
            size = 1
        total *= size
        bw = draw(st.floats(min_value=1.0, max_value=1000.0,
                            allow_nan=False, allow_infinity=False))
        dims.append(DimSpec(draw(blocks), size, bw, latency_ns=draw(
            st.floats(min_value=0.0, max_value=1000.0))))
    return MultiDimTopology(dims)


@st.composite
def random_dags(draw, max_nodes=20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = []
    for i in range(n):
        deps = ()
        if i > 0:
            deps = tuple(sorted(draw(st.sets(
                st.integers(min_value=0, max_value=i - 1), max_size=3))))
        nodes.append(ETNode(i, NodeType.COMPUTE, flops=draw(
            st.integers(min_value=1, max_value=10**9)), deps=deps))
    return ExecutionTrace(0, nodes)


# -- event engine ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    engine = EventEngine()
    fired = []
    for d in delays:
        engine.schedule(d, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- topology --------------------------------------------------------------------------


@given(topologies())
def test_coords_roundtrip(topo):
    for npu in range(topo.num_npus):
        assert topo.npu_id(topo.coords(npu)) == npu


@given(topologies())
def test_dim_group_partitions_system(topo):
    for dim in range(topo.num_dims):
        seen = set()
        for npu in range(topo.num_npus):
            group = topo.dim_group(npu, dim)
            assert npu in group
            assert len(group) == topo.dims[dim].size
            seen.update(group)
        assert seen == set(range(topo.num_npus))


@given(topologies(), st.data())
def test_hops_symmetric_and_zero_on_diagonal(topo, data):
    a = data.draw(st.integers(min_value=0, max_value=topo.num_npus - 1))
    b = data.draw(st.integers(min_value=0, max_value=topo.num_npus - 1))
    assert topo.hops(a, b) == topo.hops(b, a)
    assert topo.hops(a, a) == 0


@given(blocks, st.integers(min_value=2, max_value=64), st.data())
def test_hops_bounded_by_block_diameter(block, size, data):
    a = data.draw(st.integers(min_value=0, max_value=size - 1))
    b = data.draw(st.integers(min_value=0, max_value=size - 1))
    h = hops_between(block, size, a, b)
    if block is BuildingBlock.RING:
        assert h <= size // 2
    else:
        assert h <= 2


# -- traces ----------------------------------------------------------------------------


@given(random_dags())
def test_topological_order_is_a_valid_schedule(trace):
    seen = set()
    for node in trace.topological_order():
        assert all(dep in seen for dep in node.deps)
        seen.add(node.node_id)
    assert len(seen) == len(trace)


@given(random_dags())
def test_serialization_roundtrip_preserves_graph(trace):
    restored = loads_trace(dumps_trace(trace))
    assert len(restored) == len(trace)
    for node in trace:
        copy = restored.node(node.node_id)
        assert copy.deps == node.deps
        assert copy.flops == node.flops


@given(random_dags())
def test_critical_path_bounded_by_node_count(trace):
    assert 1 <= trace.critical_path_length() <= len(trace)


# -- collective phase math ---------------------------------------------------------------


def _allreduce_traffic(topo, order, payload):
    """Total traffic of one All-Reduce chunk's phase rows over ``order``."""
    rows = phase_table(topo.dims, order, PhaseKind.REDUCE_SCATTER, payload,
                       roundtrip=True)
    return sum(moved for _, _, _, _, moved, _, _ in rows)


@given(topologies(), st.floats(min_value=1.0, max_value=1e12, allow_nan=False))
def test_allreduce_traffic_telescopes(topo, payload):
    """Total All-Reduce traffic = 2 * S * (1 - 1/K), any dim order."""
    dims = [d for d in range(topo.num_dims) if topo.dims[d].size > 1]
    if not dims:
        return
    group = 1
    for d in dims:
        group *= topo.dims[d].size
    total = _allreduce_traffic(topo, dims, payload)
    assert math.isclose(total, 2 * payload * (1 - 1 / group), rel_tol=1e-9)


@given(topologies(), st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
       st.data())
def test_allreduce_traffic_order_invariant(topo, payload, data):
    dims = [d for d in range(topo.num_dims) if topo.dims[d].size > 1]
    if len(dims) < 2:
        return
    order = data.draw(st.permutations(dims))
    assert math.isclose(
        _allreduce_traffic(topo, dims, payload),
        _allreduce_traffic(topo, order, payload),
        rel_tol=1e-9,
    )


@given(st.integers(min_value=1, max_value=1024))
def test_latency_steps_positive_and_log_bounded(size):
    for block in BuildingBlock:
        steps = latency_steps(block, size)
        assert steps >= 0
        if size > 1:
            assert steps >= 1
            if block is BuildingBlock.SWITCH:
                assert steps == math.ceil(math.log2(size))


# -- collective operation -----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(list(CollectiveType)),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=1 << 24),
    st.sampled_from(["baseline", "themis"]),
)
def test_collective_always_terminates_with_nonnegative_duration(
    collective, chunks, payload, scheduler
):
    engine = EventEngine()
    topo = parse_topology("Ring(2)_FC(4)_Switch(2)", [100, 50, 25])
    net = AnalyticalNetwork(engine, topo)
    op = CollectiveOperation(
        engine, net, make_scheduler(scheduler), collective,
        (0, 1, 2), 0, payload, num_chunks=chunks,
    )
    op.start()
    engine.run()
    assert op.finish_time is not None
    assert op.duration_ns >= 0
    for traffic in op.traffic_by_dim.values():
        assert traffic >= 0


# -- breakdown -----------------------------------------------------------------------------


@given(st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.sampled_from(list(Activity)),
    ),
    max_size=30,
))
def test_breakdown_components_sum_to_total(raw):
    intervals = [(min(a, b), max(a, b), act) for a, b, act in raw]
    horizon = max((end for _, end, _ in intervals), default=0.0)
    b = compute_breakdown(intervals, horizon)
    assert math.isclose(
        sum(b.exposed_ns.values()) + b.idle_ns, horizon,
        rel_tol=1e-9, abs_tol=1e-6,
    )
    for value in b.exposed_ns.values():
        assert value >= 0
