"""Unit tests for :func:`repro.network.make_network`, the one map from a
backend name to a backend instance."""

import math

import pytest

from repro.events import EventEngine
from repro.network import (
    AdaptiveFlowNetwork,
    AnalyticalNetwork,
    FlowLevelNetwork,
    GarnetLiteNetwork,
    make_network,
    parse_topology,
)

TOPOLOGY = parse_topology("Ring(4)", [100.0])


def _make(name, **options):
    return make_network(name, EventEngine(), TOPOLOGY, **options)


@pytest.mark.parametrize("name, cls", [
    ("analytical", AnalyticalNetwork),
    ("flow", FlowLevelNetwork),
    ("garnet", GarnetLiteNetwork),
    ("adaptive", AdaptiveFlowNetwork),
])
def test_each_name_builds_its_class(name, cls):
    engine = EventEngine()
    net = make_network(name, engine, TOPOLOGY)
    assert type(net) is cls
    assert net.engine is engine
    assert net.topology is TOPOLOGY


def test_zero_packet_bytes_means_4096():
    assert _make("garnet", packet_bytes=0).packet_bytes == 4096
    assert _make("adaptive", packet_bytes=0).escalation_packet_bytes == 4096


def test_explicit_packet_bytes_reach_the_backend():
    assert _make("garnet", packet_bytes=1024).packet_bytes == 1024
    assert _make("adaptive",
                 packet_bytes=1024).escalation_packet_bytes == 1024


def test_train_packets_reach_garnet():
    assert _make("garnet").train_packets == 1
    assert _make("garnet", train_packets=16).train_packets == 16


def test_escalation_options_reach_adaptive():
    net = _make("adaptive", escalation_threshold=math.inf,
                deescalation_hysteresis=2.5)
    assert net.escalation_threshold == math.inf
    assert net.deescalation_hysteresis == 2.5
    defaults = _make("adaptive")
    assert defaults.escalation_threshold == 4.0
    assert defaults.deescalation_hysteresis == 1.0


def test_unknown_name_raises_value_error_naming_it():
    with pytest.raises(ValueError, match="'ns3'"):
        _make("ns3")
