"""Per-NPU execution-trace DAG.

:class:`ExecutionTrace` owns the node set for a single NPU, validates it
(unique ids, resolvable dependencies, acyclicity), and offers the queries
the execution engine needs: roots, children, topological iteration, and
aggregate statistics used for reporting.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.trace.node import ETNode, NodeType


class TraceValidationError(ValueError):
    """Raised when a trace is structurally invalid (dup ids, cycles, ...)."""


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
    """A validated DAG of :class:`ETNode` for one NPU.

    Construction validates the graph eagerly so the execution engine can
    assume a well-formed DAG.  The trace is immutable after construction
    except through :meth:`add_node` (which re-validates incrementally).
    """

    def __init__(self, npu_id: int, nodes: Iterable[ETNode] = ()) -> None:
        if npu_id < 0:
            raise TraceValidationError(f"npu_id must be >= 0, got {npu_id}")
        self.npu_id = npu_id
        self._nodes: Dict[int, ETNode] = {}
        self._children: Dict[int, List[int]] = {}
        for node in nodes:
            self._insert(node)
        self._check_deps_resolvable()
        self._check_acyclic()

    # -- construction ------------------------------------------------------------

    def _insert(self, node: ETNode) -> None:
        if node.node_id in self._nodes:
            raise TraceValidationError(
                f"duplicate node id {node.node_id} in trace for NPU {self.npu_id}"
            )
        self._nodes[node.node_id] = node
        self._children.setdefault(node.node_id, [])
        for dep in node.deps:
            self._children.setdefault(dep, []).append(node.node_id)

    def add_node(self, node: ETNode) -> None:
        """Append a node; its deps must already exist (keeps the DAG acyclic)."""
        for dep in node.deps:
            if dep not in self._nodes:
                raise TraceValidationError(
                    f"node {node.node_id} depends on unknown node {dep}"
                )
        self._insert(node)

    def _check_deps_resolvable(self) -> None:
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise TraceValidationError(
                        f"node {node.node_id} depends on unknown node {dep}"
                    )

    def _check_acyclic(self) -> None:
        indegree = {nid: len(n.deps) for nid, n in self._nodes.items()}
        if len(kahn_order(indegree, self._children)) != len(self._nodes):
            cyclic = sorted(nid for nid, deg in indegree.items() if deg > 0)
            raise TraceValidationError(
                f"trace for NPU {self.npu_id} contains a cycle involving nodes {cyclic[:10]}"
            )

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[ETNode]:
        return iter(self._nodes.values())

    def node(self, node_id: int) -> ETNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> Tuple[ETNode, ...]:
        return tuple(self._nodes.values())

    def roots(self) -> List[ETNode]:
        """Nodes with no dependencies — the initially-issuable frontier."""
        return [n for n in self._nodes.values() if not n.deps]

    def children_of(self, node_id: int) -> Sequence[int]:
        """Ids of nodes that list ``node_id`` as a dependency.

        The trace's own sequence, not a copy (the engine walks it on every
        completion): callers only read it.
        """
        return self._children.get(node_id, ())

    def topological_order(self) -> List[ETNode]:
        """Deterministic topological order (Kahn, ties broken by node id)."""
        indegree = {nid: len(n.deps) for nid, n in self._nodes.items()}
        return [self._nodes[nid]
                for nid in kahn_order(indegree, self._children)]

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
        for node in self._nodes.values():
            counts[node.node_type] = counts.get(node.node_type, 0) + 1
        return counts

    def total_flops(self) -> int:
        return sum(n.flops for n in self._nodes.values() if n.is_compute)

    def total_comm_bytes(self) -> int:
        return sum(n.tensor_bytes for n in self._nodes.values() if n.is_comm)

    def total_memory_bytes(self) -> int:
        return sum(n.tensor_bytes for n in self._nodes.values() if n.is_memory)
