"""Property-based tests: the compiled trace matches a plain validator.

:class:`ExecutionTrace` validates and compiles its node list in one pass
and runs the acyclicity walk only when some dep names a node inserted
later.  The reference here is the plain algorithm it replaced: an
id-keyed child dict built in the insert loop, a resolvability pass, and
Kahn's walk (ties by smallest id) over every trace.  Random node lists,
with sparse ids, forward and duplicate deps, unknown deps, duplicate
ids and cycles, must get the same verdict, message and queries from
both.
"""

import heapq
from typing import Dict, List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.trace import ETNode, ExecutionTrace, NodeType, TraceValidationError


class ReferenceTrace:
    """The id-keyed validator: dict children, then Kahn over every trace."""

    def __init__(self, npu_id, nodes):
        self.npu_id = npu_id
        self.nodes: Dict[int, ETNode] = {}
        self.children: Dict[int, List[int]] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise TraceValidationError(
                    f"duplicate node id {node.node_id} in trace for NPU {npu_id}")
            self.nodes[node.node_id] = node
            self.children.setdefault(node.node_id, [])
            for dep in node.deps:
                self.children.setdefault(dep, []).append(node.node_id)
        for node in self.nodes.values():
            for dep in node.deps:
                if dep not in self.nodes:
                    raise TraceValidationError(
                        f"node {node.node_id} depends on unknown node {dep}")
        indegree = {nid: len(n.deps) for nid, n in self.nodes.items()}
        if len(self._kahn(indegree)) != len(self.nodes):
            cyclic = sorted(nid for nid, deg in indegree.items() if deg > 0)
            raise TraceValidationError(
                f"trace for NPU {npu_id} contains a cycle involving nodes "
                f"{cyclic[:10]}")

    def _kahn(self, indegree):
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for child in self.children.get(nid, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, child)
        return order

    def roots(self):
        return [n for n in self.nodes.values() if not n.deps]

    def children_of(self, node_id):
        return self.children.get(node_id, ())

    def topological_order(self):
        indegree = {nid: len(n.deps) for nid, n in self.nodes.items()}
        return [self.nodes[nid] for nid in self._kahn(indegree)]

    def critical_path_length(self):
        depth = {}
        for node in self.topological_order():
            depth[node.node_id] = 1 + max((depth[d] for d in node.deps),
                                          default=0)
        return max(depth.values(), default=0)


@st.composite
def node_lists(draw):
    """Up to 12 nodes with sparse ids; deps mostly on known ids, earlier
    or later, with duplicates, the odd unknown id and duplicate ids."""
    n = draw(st.integers(0, 12))
    pool = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n,
                         unique=True))
    if pool and draw(st.integers(0, 5)) == 0:
        pool[draw(st.integers(0, n - 1))] = pool[draw(st.integers(0, n - 1))]
    nodes = []
    for node_id in pool:
        candidates = [i for i in pool if i != node_id]
        choice = st.integers(61, 70)  # unknown
        if candidates and draw(st.integers(0, 19)) > 0:
            choice = st.sampled_from(candidates)
        deps = draw(st.lists(choice, max_size=3))
        nodes.append(ETNode(node_id, NodeType.COMPUTE, flops=1,
                            deps=tuple(deps)))
    return nodes


def _outcome(factory, nodes):
    try:
        return factory(3, nodes), None
    except TraceValidationError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(nodes=node_lists())
@example(nodes=[ETNode(5, NodeType.COMPUTE, flops=1, deps=(9,)),
                ETNode(9, NodeType.COMPUTE, flops=1, deps=(5,))])
@example(nodes=[ETNode(2, NodeType.COMPUTE, flops=1, deps=(7, 7)),
                ETNode(7, NodeType.COMPUTE, flops=1),
                ETNode(4, NodeType.COMPUTE, flops=1, deps=(7, 2))])
@example(nodes=[ETNode(1, NodeType.COMPUTE, flops=1, deps=(99,)),
                ETNode(1, NodeType.COMPUTE, flops=1)])
def test_compiled_trace_matches_reference(nodes):
    trace, error = _outcome(ExecutionTrace, nodes)
    reference, expected = _outcome(ReferenceTrace, nodes)
    assert error == expected
    if reference is None:
        assert trace is None
        return
    assert len(trace) == len(reference.nodes)
    assert trace.roots() == reference.roots()
    for node_id in reference.nodes:
        assert list(trace.children_of(node_id)) == list(
            reference.children_of(node_id))
    assert trace.topological_order() == reference.topological_order()
    assert trace.critical_path_length() == reference.critical_path_length()


@pytest.mark.parametrize("dense", [True, False])
def test_compiled_lists_index_by_insertion_position(dense):
    ids = [0, 1, 2, 3] if dense else [40, 7, 19, 3]
    nodes = [ETNode(ids[0], NodeType.COMPUTE, flops=1),
             ETNode(ids[1], NodeType.COMPUTE, flops=1, deps=(ids[0],)),
             ETNode(ids[2], NodeType.COMPUTE, flops=1,
                    deps=(ids[0], ids[1], ids[0])),
             ETNode(ids[3], NodeType.COMPUTE, flops=1)]
    trace = ExecutionTrace(0, nodes)
    assert trace.nodes == tuple(nodes)
    assert [trace.position[i] for i in ids] == [0, 1, 2, 3]
    assert [list(c) for c in trace.child_positions] == [[1, 2, 2], [2], [], []]
    assert list(trace.indegree) == [0, 1, 3, 0]
    assert list(trace.root_positions) == [0, 3]
