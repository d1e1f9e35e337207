"""Per-NPU execution-trace DAG.

:class:`ExecutionTrace` owns the node set for a single NPU, validates it
(unique ids, resolvable dependencies, acyclicity) while compiling it into
the position-indexed lists the execution engine drains, and offers roots,
children, topological iteration, and aggregate statistics for reporting.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.trace.node import ETNode, NodeType, TraceValidationError


def kahn_order(indegree: Dict[int, int],
               children: Mapping[int, Sequence[int]]) -> List[int]:
    """Kahn's topological walk over ids, ties broken by the smallest id.

    ``indegree`` maps every id to its dependency count and is consumed:
    when the walk returns fewer ids than it holds, the ids still above
    zero sit on or behind a cycle.
    """
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for child in children.get(nid, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return order


class ExecutionTrace:
    """A validated DAG of :class:`ETNode` for one NPU, compiled for the engine.

    Construction validates the graph while it compiles it; ids and deps
    never change after.  The compiled form indexes
    nodes by *position*, their insertion order:

    - ``nodes``: the nodes, by position;
    - ``position``: node id -> position;
    - ``child_positions``: per position, the positions of the nodes that
      list it as a dependency, in insertion order (once per listing);
    - ``indegree``: per position, the node's dependency count;
    - ``root_positions``: the positions with no dependencies, ascending.

    The execution engine issues and completes by position and keeps only
    a per-run copy of ``indegree``; callers only read these lists.  When
    every dep names an earlier node, insertion order is a topological
    order, so the acyclicity walk runs only for traces with a dep on the
    node itself or a later one.  This is the check on the whole set:
    :class:`~repro.workload.generators.TraceBuilder` makes its nodes
    without the per-node :meth:`ETNode.validate`, and deps may be edited
    after a node was constructed.
    """

    def __init__(self, npu_id: int, nodes: Iterable[ETNode] = ()) -> None:
        if npu_id < 0:
            raise TraceValidationError(f"npu_id must be >= 0, got {npu_id}")
        self.npu_id = npu_id
        nodes = self.nodes = tuple(nodes)
        position = self.position = {
            node.node_id: pos for pos, node in enumerate(nodes)}
        if len(position) != len(nodes):
            seen = set()
            for node in nodes:
                if node.node_id in seen:
                    raise TraceValidationError(
                        f"duplicate node id {node.node_id} in trace for NPU {npu_id}"
                    )
                seen.add(node.node_id)
        # Children are appended in ascending position, so each list stays
        # in insertion order whether its parent comes before or after.
        children = self.child_positions = [[] for _ in nodes]
        self.indegree = [len(node.deps) for node in nodes]
        self.root_positions = [
            pos for pos, deg in enumerate(self.indegree) if deg == 0]
        forward = False
        for pos, node in enumerate(nodes):
            for dep in node.deps:
                parent = position.get(dep)
                if parent is None:
                    raise TraceValidationError(
                        f"node {node.node_id} depends on unknown node {dep}"
                    )
                if parent >= pos:
                    forward = True
                children[parent].append(pos)
        if forward:
            self._check_acyclic()

    def _check_acyclic(self) -> None:
        order, indegree = self._kahn()
        if len(order) != len(self.nodes):
            cyclic = sorted(nid for nid, deg in indegree.items() if deg > 0)
            raise TraceValidationError(
                f"trace for NPU {self.npu_id} contains a cycle involving nodes {cyclic[:10]}"
            )

    def _kahn(self) -> Tuple[List[int], Dict[int, int]]:
        """:func:`kahn_order` over ids; returns the order and the
        indegrees it left."""
        indegree = {node.node_id: len(node.deps) for node in self.nodes}
        children = {node.node_id: self.children_of(node.node_id)
                    for node in self.nodes}
        return kahn_order(indegree, children), indegree

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.position

    def __iter__(self) -> Iterator[ETNode]:
        return iter(self.nodes)

    def node(self, node_id: int) -> ETNode:
        return self.nodes[self.position[node_id]]

    def roots(self) -> List[ETNode]:
        """Nodes with no dependencies — the initially-issuable frontier."""
        return [self.nodes[pos] for pos in self.root_positions]

    def children_of(self, node_id: int) -> List[int]:
        """Ids of nodes that list ``node_id`` as a dependency."""
        pos = self.position.get(node_id)
        if pos is None:
            return []
        nodes = self.nodes
        return [nodes[child].node_id for child in self.child_positions[pos]]

    def topological_order(self) -> List[ETNode]:
        """Deterministic topological order (Kahn, ties broken by node id)."""
        return [self.node(nid) for nid in self._kahn()[0]]

    def critical_path_length(self) -> int:
        """Longest chain of dependent nodes (in node count)."""
        depth: Dict[int, int] = {}
        for node in self.topological_order():
            depth[node.node_id] = 1 + max(
                (depth[d] for d in node.deps), default=0
            )
        return max(depth.values(), default=0)

    # -- statistics ---------------------------------------------------------------

    def count_by_type(self) -> Dict[NodeType, int]:
        counts: Dict[NodeType, int] = {}
        for node in self.nodes:
            counts[node.node_type] = counts.get(node.node_type, 0) + 1
        return counts

    def total_flops(self) -> int:
        return sum(n.flops for n in self.nodes if n.is_compute)

    def total_comm_bytes(self) -> int:
        return sum(n.tensor_bytes for n in self.nodes if n.is_comm)

    def total_memory_bytes(self) -> int:
        return sum(n.tensor_bytes for n in self.nodes if n.is_memory)
