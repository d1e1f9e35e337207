"""Shared link-graph construction and routing for detailed backends.

Both the packet-level (:mod:`repro.network.garnetlite`) and flow-level
(:mod:`repro.network.flowlevel`) backends expand a
:class:`~repro.network.topology.MultiDimTopology` into an explicit graph
of directed links and route with dimension-order routing.  Switch dims
introduce fabric nodes (``("sw", dim, group-coords)``).

Link provisioning mirrors the analytical model's serialization rates:
ring links are full-duplex at line rate (the dim bandwidth is per
direction), fully-connected fans the dim bandwidth across its k-1 links,
and a switch gives each NPU a full-rate uplink/downlink pair.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.network.building_blocks import BuildingBlock
from repro.network.topology import MultiDimTopology, TopologyError

NodeId = Hashable  # NPU ids are ints; switch fabrics are ("sw", dim, coords).
LinkKey = Tuple[NodeId, NodeId]


def switch_node(topology: MultiDimTopology, npu: int, dim_idx: int) -> NodeId:
    """Fabric node shared by the NPU's dim group."""
    coords = list(topology.coords(npu))
    coords[dim_idx] = 0  # group identity: zero out the dim coordinate
    return ("sw", dim_idx, tuple(coords))


def build_links(
    topology: MultiDimTopology,
    make_link: Callable[[float, float], object],
) -> Dict[LinkKey, object]:
    """Expand the topology into directed links.

    ``make_link(bandwidth_gbps, latency_ns)`` constructs the backend's
    per-link state object.
    """
    links: Dict[LinkKey, object] = {}

    def add(a: NodeId, b: NodeId, bw: float, lat: float) -> None:
        links[(a, b)] = make_link(bw, lat)

    for dim_idx, dim in enumerate(topology.dims):
        if dim.size <= 1:
            continue
        # Ring links are full-duplex at line rate; FC fans the dim
        # bandwidth across its k-1 links; a switch uplink runs at line
        # rate.  Oversubscription is a property of switch fabrics and is
        # modeled by detailed backends at the fabric node's links.
        if dim.block is BuildingBlock.FULLY_CONNECTED:
            per_link_bw = dim.bandwidth_gbps / max(1, dim.size - 1)
        else:
            per_link_bw = dim.bandwidth_gbps
        for npu in range(topology.num_npus):
            coords = topology.coords(npu)
            me = coords[dim_idx]
            if dim.block is BuildingBlock.RING:
                for step in (1, -1) if dim.size > 2 else (1,):
                    neighbor = list(coords)
                    neighbor[dim_idx] = (me + step) % dim.size
                    add(npu, topology.npu_id(neighbor), per_link_bw,
                        dim.latency_ns)
            elif dim.block is BuildingBlock.FULLY_CONNECTED:
                for other in range(dim.size):
                    if other == me:
                        continue
                    neighbor = list(coords)
                    neighbor[dim_idx] = other
                    add(npu, topology.npu_id(neighbor), per_link_bw,
                        dim.latency_ns)
            else:  # SWITCH: two hops at full per-hop latency
                fabric = switch_node(topology, npu, dim_idx)
                add(npu, fabric, dim.bandwidth_gbps, dim.latency_ns)
                add(fabric, npu, dim.bandwidth_gbps, dim.latency_ns)
    return links


def total_link_count(topology: MultiDimTopology) -> int:
    """Directed links :func:`build_links` would create, in closed form."""
    total = 0
    for dim in topology.dims:
        if dim.size <= 1:
            continue
        if dim.block is BuildingBlock.RING:
            per_npu = 2 if dim.size > 2 else 1
        elif dim.block is BuildingBlock.FULLY_CONNECTED:
            per_npu = dim.size - 1
        else:  # SWITCH: uplink + downlink
            per_npu = 2
        total += topology.num_npus * per_npu
    return total


def link_spec(
    topology: MultiDimTopology, a: NodeId, b: NodeId
) -> Optional[Tuple[float, float]]:
    """``(bandwidth_gbps, latency_ns)`` of directed link ``a -> b``.

    Returns ``None`` when the pair is not a physical link of the
    topology.  This is the closed-form inverse of :func:`build_links`'
    enumeration: it answers for one key in O(num_dims) so the detailed
    backends can materialize links on first touch instead of building
    all O(npus) of them up front.
    """
    dims = topology.dims
    if isinstance(a, int) and isinstance(b, int):
        if not (0 <= a < topology.num_npus and 0 <= b < topology.num_npus):
            return None
        if a == b:
            return None
        ca, cb = topology.coords(a), topology.coords(b)
        diff = [i for i in range(len(dims)) if ca[i] != cb[i]]
        if len(diff) != 1:
            return None
        d = diff[0]
        dim = dims[d]
        if dim.block is BuildingBlock.RING:
            delta = (cb[d] - ca[d]) % dim.size
            if delta == 1 or (dim.size > 2 and delta == dim.size - 1):
                return (dim.bandwidth_gbps, dim.latency_ns)
            return None
        if dim.block is BuildingBlock.FULLY_CONNECTED:
            return (dim.bandwidth_gbps / max(1, dim.size - 1), dim.latency_ns)
        return None  # SWITCH dims connect through the fabric node
    # Switch uplink (npu -> fabric) or downlink (fabric -> npu).
    if isinstance(a, int):
        npu, fabric = a, b
    elif isinstance(b, int):
        npu, fabric = b, a
    else:
        return None
    if not (isinstance(fabric, tuple) and len(fabric) == 3
            and fabric[0] == "sw"):
        return None
    if not (0 <= npu < topology.num_npus):
        return None
    d = fabric[1]
    if not (isinstance(d, int) and 0 <= d < len(dims)
            and dims[d].block is BuildingBlock.SWITCH and dims[d].size > 1):
        return None
    if switch_node(topology, npu, d) != fabric:
        return None
    return (dims[d].bandwidth_gbps, dims[d].latency_ns)


class LazyLinkGraph:
    """Dict-like link graph that materializes links on first touch.

    Semantically identical to the mapping :func:`build_links` returns
    (enforced by ``tests/test_network_linkgraph.py``), but construction
    is O(1) and each link is created the first time a route crosses it —
    a million-NPU topology costs nothing until traffic actually flows.
    Iteration and ``len`` cover only the materialized links (the rest
    carried no traffic by construction); :meth:`total_count` gives the
    full physical count in closed form.
    """

    __slots__ = ("_topology", "_make_link", "_on_create", "_materialized",
                 "_paths")

    def __init__(
        self,
        topology: MultiDimTopology,
        make_link: Callable[[float, float], object],
        on_create: Optional[Callable[[LinkKey, object], None]] = None,
    ) -> None:
        self._topology = topology
        self._make_link = make_link
        self._on_create = on_create
        self._materialized: Dict[LinkKey, object] = {}
        self._paths: Dict[Tuple[int, int], Tuple[object, ...]] = {}

    def get(self, key: LinkKey) -> Optional[object]:
        """The link for ``key``, created on first touch; None if no link."""
        link = self._materialized.get(key)
        if link is None:
            spec = link_spec(self._topology, key[0], key[1])
            if spec is None:
                return None
            link = self._materialized[key] = self._make_link(*spec)
            if self._on_create is not None:
                self._on_create(key, link)
        return link

    def path(self, src: int, dst: int) -> Tuple[object, ...]:
        """Memoised per-hop links along the dimension-order route.

        Routes are pure functions of the topology, and collective traffic
        revisits the same pairs once per chunk (or packet), so each pair
        is resolved once.
        """
        cached = self._paths.get((src, dst))
        if cached is not None:
            return cached
        route = dimension_order_route(self._topology, src, dst)
        if len(route) < 2:
            raise TopologyError(f"no route from {src} to {dst}")
        links = []
        for a, b in zip(route, route[1:]):
            link = self.get((a, b))
            if link is None:
                raise TopologyError(f"missing link {a!r} -> {b!r}")
            links.append(link)
        resolved = self._paths[(src, dst)] = tuple(links)
        return resolved

    def total_count(self) -> int:
        """Physical links in the topology (closed form, O(num_dims))."""
        return total_link_count(self._topology)

    def values(self):
        return self._materialized.values()

    def items(self):
        return self._materialized.items()

    def __iter__(self):
        return iter(self._materialized)

    def __len__(self) -> int:
        return len(self._materialized)


def dimension_order_route(
    topology: MultiDimTopology, src: int, dst: int
) -> List[NodeId]:
    """Dimension-order route from src to dst (inclusive of endpoints)."""
    path: List[NodeId] = [src]
    current = list(topology.coords(src))
    target = topology.coords(dst)
    for dim_idx, dim in enumerate(topology.dims):
        if current[dim_idx] == target[dim_idx]:
            continue
        if dim.block is BuildingBlock.RING:
            k = dim.size
            forward = (target[dim_idx] - current[dim_idx]) % k
            step = 1 if forward <= k - forward else -1
            while current[dim_idx] != target[dim_idx]:
                current[dim_idx] = (current[dim_idx] + step) % k
                path.append(topology.npu_id(current))
        elif dim.block is BuildingBlock.FULLY_CONNECTED:
            current[dim_idx] = target[dim_idx]
            path.append(topology.npu_id(current))
        else:  # SWITCH
            here = topology.npu_id(current)
            path.append(switch_node(topology, here, dim_idx))
            current[dim_idx] = target[dim_idx]
            path.append(topology.npu_id(current))
    return path
