"""Multi-dimensional hierarchical network modeling (paper Secs. IV-B, IV-C).

This subpackage provides:

- the **topology taxonomy**: :class:`BuildingBlock` (Ring / FullyConnected /
  Switch), :class:`DimSpec`, and :class:`MultiDimTopology`, including the
  string notation parser (``"Ring(4)_FC(2)_Switch(8)"``);
- the **NetworkAPI** callback protocol (:class:`NetworkBackend`);
- four backends behind it: the **analytical** closed form
  (:class:`AnalyticalNetwork`, ``time = latency * hops + size /
  bandwidth`` with egress-port serialization), the max-min fair
  **flow** model (:class:`FlowLevelNetwork`), **Garnet-lite**
  (:class:`GarnetLiteNetwork`, packet-level, the slow detailed reference
  of the speedup study), and the **adaptive** fluid/packet controller
  (:class:`AdaptiveFlowNetwork`), and
- :func:`make_network`, the one map from a backend name to an instance.
"""

from repro.events import EventEngine
from repro.network.building_blocks import BuildingBlock, block_from_name
from repro.network.topology import (
    CommGroup,
    CoordinateError,
    DimSpec,
    MultiDimTopology,
    TopologyError,
    parse_topology,
)
from repro.network.api import Message, NetworkBackend
from repro.network.analytical import AnalyticalNetwork
from repro.network.flowlevel import FlowLevelNetwork
from repro.network.garnetlite import DEFAULT_PACKET_BYTES, GarnetLiteNetwork
from repro.network.adaptive import AdaptiveFlowNetwork


def make_network(
    name: str,
    engine: EventEngine,
    topology: MultiDimTopology,
    *,
    packet_bytes: int = 0,
    train_packets: int = 1,
    escalation_threshold: float = 4.0,
    deescalation_hysteresis: float = 1.0,
    faults=None,
    **instruments,
) -> NetworkBackend:
    """Build the backend ``name`` (``analytical``, ``flow``, ``garnet`` or
    ``adaptive``) on ``engine`` with the run's ``telemetry`` and
    ``invariants`` instruments (absent or ``None``: off).
    ``packet_bytes=0`` means the default packet size; options a backend
    does not model (``faults`` outside ``analytical``) are ignored."""
    packet_bytes = packet_bytes or DEFAULT_PACKET_BYTES
    if name == "analytical":
        return AnalyticalNetwork(engine, topology, faults=faults, **instruments)
    if name == "flow":
        return FlowLevelNetwork(engine, topology, **instruments)
    if name == "garnet":
        return GarnetLiteNetwork(engine, topology, packet_bytes=packet_bytes,
                                 train_packets=train_packets, **instruments)
    if name == "adaptive":
        return AdaptiveFlowNetwork(
            engine, topology, escalation_threshold=escalation_threshold,
            deescalation_hysteresis=deescalation_hysteresis,
            escalation_packet_bytes=packet_bytes, **instruments)
    raise ValueError(f"unknown network backend {name!r}")


__all__ = [
    "AdaptiveFlowNetwork",
    "AnalyticalNetwork",
    "BuildingBlock",
    "CommGroup",
    "CoordinateError",
    "DimSpec",
    "FlowLevelNetwork",
    "GarnetLiteNetwork",
    "Message",
    "MultiDimTopology",
    "NetworkBackend",
    "TopologyError",
    "block_from_name",
    "make_network",
    "parse_topology",
]
