"""Multi-dimensional topology representation and string-notation parser.

A topology is an ordered stack of dimensions (paper Fig. 3b).  Dimension 1
(index 0 here) is the innermost/fastest network — on-chip or on-wafer — and
the last dimension is the scale-out network.  NPU ids map to mixed-radix
coordinates with **dimension 0 varying fastest**, so NPUs 0..k1-1 share a
dim-0 group, matching the paper's placement convention.

The string notation mirrors the paper: ``"Ring(4)_FC(2)_Switch(8)"`` with
per-dimension bandwidths supplied separately (``"250_200_100"`` GB/s style)
or inline via :func:`parse_topology`'s ``bandwidths_gbps`` argument.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import strict_float
from repro.network.building_blocks import (
    BuildingBlock,
    TopologyError,
    block_from_name,
    hops_between,
    links_per_npu,
)


class CoordinateError(TopologyError):
    """A coordinate fell outside its dimension's valid range.

    Structured variant of :class:`TopologyError` raised by
    :meth:`MultiDimTopology.npu_id`: carries which dimension rejected the
    coordinate, the offending value, and the dimension's size, so callers
    (and error messages) can say exactly *which* axis was wrong instead of
    silently wrapping modulo the dimension size.
    """

    def __init__(self, dim_index: int, coordinate: int, size: int) -> None:
        self.dim_index = dim_index
        self.coordinate = coordinate
        self.size = size
        super().__init__(
            f"coordinate {coordinate} out of range for dimension "
            f"{dim_index} (size {size}; valid range 0..{size - 1})"
        )


@dataclass(frozen=True)
class DimSpec:
    """One dimension of a hierarchical topology.

    Attributes:
        block: Building-block type of this dimension.
        size: Number of NPUs (or groups) connected at this level; >= 1.
        bandwidth_gbps: Per-NPU aggregate injection bandwidth into this
            dimension, in GB/s (1 GB = 1e9 bytes, so numerically equal to
            bytes/ns).
        latency_ns: Per-hop link latency in nanoseconds.
        oversubscription: Fabric oversubscription ratio (>= 1).  The
            dimension's shared fabric carries at most
            ``size * bandwidth / oversubscription`` bytes/ns in aggregate;
            at 1.0 (the default) the fabric is non-blocking and the
            analytical model reduces to the paper's congestion-free
            equation.  Values > 1 enable the first-order congestion model
            the paper lists as future work (Sec. IV-C, footnote 5).
    """

    block: BuildingBlock
    size: int
    bandwidth_gbps: float
    latency_ns: float = 500.0
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise TopologyError(f"dimension size must be >= 1, got {self.size}")
        if strict_float(self.bandwidth_gbps, "bandwidth", TopologyError) <= 0:
            raise TopologyError(
                f"bandwidth must be positive, got {self.bandwidth_gbps}"
            )
        if strict_float(self.latency_ns, "latency", TopologyError) < 0:
            raise TopologyError(f"latency must be >= 0, got {self.latency_ns}")
        if self.oversubscription < 1.0:
            raise TopologyError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    @property
    def fabric_bandwidth_gbps(self) -> float:
        """Aggregate bytes/ns the dimension's shared fabric can carry."""
        return self.size * self.bandwidth_gbps / self.oversubscription


class MultiDimTopology:
    """An ordered stack of :class:`DimSpec` dimensions.

    Provides id<->coordinate mapping, per-dimension group computation, hop
    counts, and aggregate properties used by the collective scheduler.
    """

    def __init__(self, dims: Sequence[DimSpec], name: str = "") -> None:
        if not dims:
            raise TopologyError("topology needs at least one dimension")
        self.dims: Tuple[DimSpec, ...] = tuple(dims)
        self.name = name or self.notation()
        self._strides: List[int] = []
        stride = 1
        for dim in self.dims:
            self._strides.append(stride)
            stride *= dim.size
        self._num_npus = stride
        # coords() is called on every transfer by every backend; the
        # mixed-radix decomposition is pure, so memoise per NPU id.
        self._coords_cache: dict = {}

    # -- basic properties ---------------------------------------------------------

    @property
    def num_dims(self) -> int:
        return len(self.dims)

    @property
    def num_npus(self) -> int:
        return self._num_npus

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(d.size for d in self.dims)

    def total_bandwidth_gbps(self) -> float:
        """Aggregate injection bandwidth per NPU across all dimensions."""
        return sum(d.bandwidth_gbps for d in self.dims if d.size > 1)

    def notation(self) -> str:
        """Paper-style shape string, e.g. ``Ring(4)_FC(2)_Switch(8)``."""
        short = {
            BuildingBlock.RING: "Ring",
            BuildingBlock.FULLY_CONNECTED: "FC",
            BuildingBlock.SWITCH: "Switch",
        }
        return "_".join(f"{short[d.block]}({d.size})" for d in self.dims)

    # -- coordinates ----------------------------------------------------------------

    def coords(self, npu_id: int) -> Tuple[int, ...]:
        """Mixed-radix coordinates of an NPU (dim 0 varies fastest)."""
        cached = self._coords_cache.get(npu_id)
        if cached is None:
            self._check_id(npu_id)
            out = []
            rest = npu_id
            for dim in self.dims:
                out.append(rest % dim.size)
                rest //= dim.size
            cached = self._coords_cache[npu_id] = tuple(out)
        return cached

    def npu_id(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`coords`.

        Raises :class:`CoordinateError` (naming the offending dimension,
        coordinate, and valid range) when any coordinate is negative or
        at least its dimension's size — out-of-range coordinates never
        wrap around.
        """
        if len(coords) != self.num_dims:
            raise TopologyError(
                f"expected {self.num_dims} coordinates, got {len(coords)}"
            )
        npu = 0
        for i, (c, dim, stride) in enumerate(
                zip(coords, self.dims, self._strides)):
            if not (0 <= c < dim.size):
                raise CoordinateError(i, c, dim.size)
            npu += c * stride
        return npu

    def _check_id(self, npu_id: int) -> None:
        if not (0 <= npu_id < self._num_npus):
            raise TopologyError(
                f"NPU id {npu_id} out of range for {self._num_npus}-NPU topology"
            )

    # -- groups and hops --------------------------------------------------------------

    def group_rep(self, npu_id: int, dims: Iterable[int]) -> int:
        """Lowest member id of ``npu_id``'s communicator over ``dims``.

        Closed form (coordinates over ``dims`` zeroed via stride
        arithmetic): O(len(dims)), independent of the group size.
        """
        self._check_id(npu_id)
        rep = npu_id
        for d in set(dims):
            self._check_dim(d)
            stride = self._strides[d]
            rep -= ((npu_id // stride) % self.dims[d].size) * stride
        return rep

    def group_size(self, dims: Iterable[int]) -> int:
        """Member count of a communicator spanning ``dims`` (closed form)."""
        size = 1
        for d in set(dims):
            self._check_dim(d)
            size *= self.dims[d].size
        return size

    def comm_group(self, npu_id: int, dims: Iterable[int]) -> "CommGroup":
        """Symbolic communicator of ``npu_id`` across ``dims``.

        Unlike :meth:`group_across_dims` this never materializes the
        member list: representative, size, and membership tests are all
        closed-form stride arithmetic, so issuing a collective over a
        million-NPU dimension costs O(num_dims), not O(num_npus).
        ``members()`` still materializes on demand for consumers that
        genuinely need every id (the packet backends' send/recv lowering).
        """
        dim_list = tuple(sorted(set(dims)))
        for d in dim_list:
            self._check_dim(d)
        return CommGroup(self, dim_list, self.group_rep(npu_id, dim_list))

    def dim_group(self, npu_id: int, dim: int) -> Tuple[int, ...]:
        """All NPUs sharing every coordinate with ``npu_id`` except dim ``dim``."""
        self._check_dim(dim)
        base = list(self.coords(npu_id))
        group = []
        for i in range(self.dims[dim].size):
            base[dim] = i
            group.append(self.npu_id(base))
        return tuple(group)

    def group_across_dims(self, npu_id: int, dims: Iterable[int]) -> Tuple[int, ...]:
        """All NPUs reachable from ``npu_id`` by varying the given dims.

        This is the communicator of a collective spanning those dimensions
        (e.g. an MP group spanning dims (0, 1)), fully materialized.  The
        simulation hot path uses the symbolic :meth:`comm_group` instead;
        this remains for callers that genuinely need every member id.
        """
        return self.comm_group(npu_id, dims).members()

    def hops(self, src: int, dst: int) -> int:
        """Total hop count between two NPUs (dimension-order routing)."""
        self._check_id(src)
        self._check_id(dst)
        a, b = self.coords(src), self.coords(dst)
        total = 0
        for dim, (ca, cb) in zip(self.dims, zip(a, b)):
            total += hops_between(dim.block, dim.size, ca, cb)
        return total

    def shared_dim(self, src: int, dst: int) -> int:
        """The single dimension along which two NPUs differ.

        Raises :class:`TopologyError` if they differ in zero or more than
        one dimension; used to map point-to-point traffic to a port.
        """
        a, b = self.coords(src), self.coords(dst)
        diffs = [i for i, (ca, cb) in enumerate(zip(a, b)) if ca != cb]
        if len(diffs) != 1:
            raise TopologyError(
                f"NPUs {src} and {dst} differ in {len(diffs)} dimensions; "
                "expected exactly one for single-dim routing"
            )
        return diffs[0]

    def total_links(self) -> int:
        """Total number of physical NPU-side links in the system."""
        total = 0
        for dim in self.dims:
            groups = self._num_npus // dim.size
            total += groups * dim.size * links_per_npu(dim.block, dim.size)
        return total

    def _check_dim(self, dim: int) -> None:
        if not (0 <= dim < self.num_dims):
            raise TopologyError(
                f"dimension {dim} out of range for {self.num_dims}-D topology"
            )

    def __repr__(self) -> str:
        bws = "_".join(f"{d.bandwidth_gbps:g}" for d in self.dims)
        return f"MultiDimTopology({self.notation()}, bw={bws} GB/s)"


class CommGroup:
    """A communicator held symbolically as a coordinate lattice.

    The group is ``{ npu : coords(npu)[d] == coords(rep)[d] for every
    dimension d NOT in dims }`` — i.e. all NPUs reachable from ``rep`` by
    varying the given dimensions.  Representative, size, hashing, and
    membership tests are all closed-form stride arithmetic, so building
    and comparing communicators is O(num_dims) regardless of how many
    NPUs the group spans.  :meth:`members` materializes the sorted member
    tuple on demand (identical to
    :meth:`MultiDimTopology.group_across_dims`) for the few consumers
    that need explicit ids, e.g. the packet backends' send/recv lowering.

    Instances hash and compare by ``(rep, dims, size)`` — two groups over
    the same topology are equal iff they contain the same NPUs.  They do
    NOT compare equal to plain member tuples; code mixing symbolic and
    explicit groups for the *same* rendezvous must normalize first.
    """

    __slots__ = ("topology", "dims", "rep", "size", "_members", "_hash")

    def __init__(self, topology: MultiDimTopology, dims: Tuple[int, ...],
                 rep: int) -> None:
        self.topology = topology
        self.dims = dims
        self.rep = rep
        self.size = topology.group_size(dims)
        self._members: Tuple[int, ...] = ()
        self._hash = hash((rep, dims, self.size))

    def __len__(self) -> int:
        return self.size

    def __contains__(self, npu: object) -> bool:
        if not isinstance(npu, int) or not (0 <= npu < self.topology.num_npus):
            return False
        topo = self.topology
        rep = self.rep
        for d in range(topo.num_dims):
            if d in self.dims:
                continue
            stride = topo._strides[d]
            if (npu // stride) % topo.dims[d].size != \
                    (rep // stride) % topo.dims[d].size:
                return False
        return True

    def members(self) -> Tuple[int, ...]:
        """Materialized, sorted member ids (cached after first call)."""
        cached = self._members
        if not cached:
            topo = self.topology
            offsets = [0]
            for d in self.dims:
                stride = topo._strides[d]
                offsets = [
                    off + v * stride
                    for v in range(topo.dims[d].size)
                    for off in offsets
                ]
            cached = self._members = tuple(
                sorted(self.rep + off for off in offsets))
        return cached

    def __iter__(self):
        return iter(self.members())

    def intersection(self, ids: Iterable[int]) -> "set[int]":
        """Members present in ``ids`` — O(len(ids) * num_dims), no
        materialization of the group itself."""
        return {i for i in ids if i in self}

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommGroup):
            return NotImplemented
        return (self.rep == other.rep and self.dims == other.dims
                and self.size == other.size)

    def __repr__(self) -> str:
        return f"CommGroup(rep={self.rep}, dims={self.dims}, size={self.size})"


_DIM_RE = re.compile(r"^\s*([A-Za-z]+)\s*\(\s*(\d+)\s*\)\s*$")


def parse_topology(
    notation: str,
    bandwidths_gbps: Sequence[float],
    latencies_ns: Sequence[float] = (),
    name: str = "",
) -> MultiDimTopology:
    """Build a topology from paper-style notation.

    Example::

        parse_topology("Ring(16)_FC(8)_Switch(4)", [200, 100, 50])

    ``latencies_ns`` defaults to 500 ns per dimension when omitted.
    """
    parts = [p for p in notation.split("_") if p.strip()]
    if not parts:
        raise TopologyError(f"empty topology notation {notation!r}")
    if len(parts) != notation.count("_") + 1:
        raise TopologyError(f"empty dimension in {notation!r}")
    if len(bandwidths_gbps) != len(parts):
        raise TopologyError(
            f"{len(parts)} dimensions in {notation!r} but "
            f"{len(bandwidths_gbps)} bandwidths given"
        )
    if latencies_ns and len(latencies_ns) != len(parts):
        raise TopologyError(
            f"{len(parts)} dimensions in {notation!r} but "
            f"{len(latencies_ns)} latencies given"
        )
    dims = []
    for i, part in enumerate(parts):
        match = _DIM_RE.match(part)
        if not match:
            raise TopologyError(f"malformed dimension {part!r} in {notation!r}")
        block = block_from_name(match.group(1))
        size = int(match.group(2))
        latency = latencies_ns[i] if latencies_ns else 500.0
        dims.append(
            DimSpec(
                block=block,
                size=size,
                bandwidth_gbps=strict_float(
                    bandwidths_gbps[i], f"bandwidth of dimension {i}",
                    TopologyError),
                latency_ns=latency,
            )
        )
    return MultiDimTopology(dims, name=name)
