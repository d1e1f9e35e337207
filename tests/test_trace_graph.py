"""Unit tests for the execution-trace DAG."""

import pytest

from repro.trace import (
    CollectiveType,
    ETNode,
    ExecutionTrace,
    NodeType,
    TraceValidationError,
)


def _compute(node_id, deps=()):
    return ETNode(node_id, NodeType.COMPUTE, flops=10, deps=deps)


def _chain(n):
    return [_compute(i, deps=(i - 1,) if i else ()) for i in range(n)]


def test_empty_trace_is_valid():
    trace = ExecutionTrace(0)
    assert len(trace) == 0
    assert trace.roots() == []


def test_duplicate_node_id_rejected():
    with pytest.raises(TraceValidationError):
        ExecutionTrace(0, [_compute(1), _compute(1)])


def test_unknown_dependency_rejected():
    with pytest.raises(TraceValidationError):
        ExecutionTrace(0, [_compute(0, deps=(99,))])


def test_cycle_detected():
    a = ETNode(0, NodeType.COMPUTE, flops=1, deps=(1,))
    b = ETNode(1, NodeType.COMPUTE, flops=1, deps=(0,))
    with pytest.raises(TraceValidationError):
        ExecutionTrace(0, [a, b])


def test_negative_npu_id_rejected():
    with pytest.raises(TraceValidationError):
        ExecutionTrace(-1)


def test_roots_and_children():
    nodes = [_compute(0), _compute(1), _compute(2, deps=(0, 1))]
    trace = ExecutionTrace(0, nodes)
    assert {n.node_id for n in trace.roots()} == {0, 1}
    assert trace.children_of(0) == [2]
    assert trace.children_of(2) == []


def test_topological_order_respects_deps():
    nodes = [
        _compute(3, deps=(1, 2)),
        _compute(1, deps=(0,)),
        _compute(2, deps=(0,)),
        _compute(0),
    ]
    trace = ExecutionTrace(0, nodes)
    order = [n.node_id for n in trace.topological_order()]
    assert order.index(0) < order.index(1)
    assert order.index(1) < order.index(3)
    assert order.index(2) < order.index(3)
    assert sorted(order) == [0, 1, 2, 3]


def test_topological_order_deterministic_tiebreak():
    nodes = [_compute(2), _compute(0), _compute(1)]
    trace = ExecutionTrace(0, nodes)
    assert [n.node_id for n in trace.topological_order()] == [0, 1, 2]


def test_critical_path_of_chain():
    trace = ExecutionTrace(0, _chain(5))
    assert trace.critical_path_length() == 5


def test_critical_path_of_diamond():
    nodes = [_compute(0), _compute(1, deps=(0,)), _compute(2, deps=(0,)),
             _compute(3, deps=(1, 2))]
    trace = ExecutionTrace(0, nodes)
    assert trace.critical_path_length() == 3


def test_statistics():
    nodes = [
        _compute(0),
        ETNode(1, NodeType.MEMORY_LOAD, tensor_bytes=100, deps=(0,)),
        ETNode(2, NodeType.COMM_COLLECTIVE, tensor_bytes=200, deps=(1,),
               collective=CollectiveType.ALL_REDUCE),
    ]
    trace = ExecutionTrace(0, nodes)
    assert trace.total_flops() == 10
    assert trace.total_memory_bytes() == 100
    assert trace.total_comm_bytes() == 200
    counts = trace.count_by_type()
    assert counts[NodeType.COMPUTE] == 1
    assert counts[NodeType.MEMORY_LOAD] == 1


def test_contains_and_node_lookup():
    trace = ExecutionTrace(0, [_compute(7)])
    assert 7 in trace
    assert 8 not in trace
    assert trace.node(7).node_id == 7
