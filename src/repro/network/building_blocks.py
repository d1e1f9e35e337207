"""Network building blocks: Ring, FullyConnected, Switch.

The taxonomy (paper Fig. 3a, Table I) constructs arbitrary multi-dimensional
topologies by stacking three building blocks, chosen because each has a
well-known congestion-free topology-aware collective algorithm:

=================  ==========================  ==================
Building block     Collective algorithm        Latency steps (k)
=================  ==========================  ==================
Ring(k)            Ring                        k - 1
FullyConnected(k)  Direct                      1
Switch(k)          Halving-Doubling            ceil(log2(k))
=================  ==========================  ==================

All three are bandwidth-optimal — each NPU moves ``size * (k-1)/k`` bytes
for a Reduce-Scatter or All-Gather — so blocks differ in hop counts and in
the number of latency-bound steps.
"""

from __future__ import annotations

import enum
import math

from repro.errors import InputError


class TopologyError(InputError):
    """Raised for malformed topology descriptions or invalid NPU ids."""


class BuildingBlock(enum.Enum):
    """The three block types of the topology taxonomy."""

    RING = "Ring"
    FULLY_CONNECTED = "FullyConnected"
    SWITCH = "Switch"

    @property
    def collective_algorithm(self) -> str:
        """Name of the topology-aware collective algorithm (paper Table I)."""
        return _ALGORITHM_BY_BLOCK[self]


_ALGORITHM_BY_BLOCK = {
    BuildingBlock.RING: "ring",
    BuildingBlock.FULLY_CONNECTED: "direct",
    BuildingBlock.SWITCH: "halving_doubling",
}

_ALIASES = {
    "ring": BuildingBlock.RING,
    "r": BuildingBlock.RING,
    "fullyconnected": BuildingBlock.FULLY_CONNECTED,
    "fc": BuildingBlock.FULLY_CONNECTED,
    "switch": BuildingBlock.SWITCH,
    "sw": BuildingBlock.SWITCH,
}


def block_from_name(name: str) -> BuildingBlock:
    """Resolve a block from its full name or short alias (case-insensitive)."""
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise TopologyError(
            f"unknown building block {name!r}; expected one of "
            f"{sorted(set(_ALIASES))}"
        ) from None


def hops_between(block: BuildingBlock, size: int, a: int, b: int) -> int:
    """Hop count between local ranks ``a`` and ``b`` inside one block.

    ``a``/``b`` are positions within the dimension, ``0 <= a, b < size``.
    A Switch counts two hops (NPU -> switch -> NPU).
    """
    if not (0 <= a < size and 0 <= b < size):
        raise ValueError(f"ranks ({a}, {b}) out of range for block size {size}")
    if a == b:
        return 0
    if block is BuildingBlock.RING:
        forward = (b - a) % size
        return min(forward, size - forward)
    if block is BuildingBlock.FULLY_CONNECTED:
        return 1
    return 2  # Switch: NPU -> fabric -> NPU


def latency_steps(block: BuildingBlock, size: int) -> int:
    """Number of serialized algorithm steps for RS/AG on this block.

    This is the latency multiplier of the per-dimension collective phase.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    if size == 1:
        return 0
    if block is BuildingBlock.RING:
        return size - 1
    if block is BuildingBlock.FULLY_CONNECTED:
        return 1
    return max(1, math.ceil(math.log2(size)))


def links_per_npu(block: BuildingBlock, size: int) -> int:
    """Number of physical links each NPU owns inside this block."""
    if size <= 1:
        return 0
    if block is BuildingBlock.RING:
        return 2 if size > 2 else 1
    if block is BuildingBlock.FULLY_CONNECTED:
        return size - 1
    return 1  # Switch: one uplink into the fabric


def collective_traffic_fraction(size: int) -> float:
    """Fraction of the payload each NPU serializes for one RS or AG phase.

    All three blocks run bandwidth-optimal algorithms, so the fraction is
    ``(k-1)/k`` regardless of block type.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    return (size - 1) / size


def alltoall_traffic_fraction(block: BuildingBlock, size: int) -> float:
    """Effective serialized payload fraction for an All-to-All phase.

    For FullyConnected and Switch every message takes a direct path, so the
    serialized traffic per NPU is the same ``(k-1)/k`` as RS/AG.  On a Ring,
    messages relay through intermediate NPUs: with shortest-path routing on
    a bidirectional ring (each direction at line rate), the per-link load
    is ``k/8`` of the per-NPU payload, which bounds the phase.
    """
    if size < 1:
        raise ValueError(f"block size must be >= 1, got {size}")
    if size == 1:
        return 0.0
    if block is BuildingBlock.RING:
        if size <= 2:
            return (size - 1) / size
        return size / 8.0
    return (size - 1) / size
