"""Mutation smoke tests: seeded semantic bugs must be *caught*.

Each test monkeypatches one plausible bug into a hot code path —
double-booked ports, dropped traffic fractions, broken packet queueing,
collapsed memory pipelines — and asserts the validation stack detects
it: an invariant violation, a conformance-suite failure, or a hard
exception.  A mutation that sails through silently means the checkers
have a blind spot; these tests pin the blind-spot count at zero for the
mutations below.
"""

import math

import pytest

import repro.network.adaptive as adaptive_mod
import repro.network.analytical as analytical_mod
import repro.network.flowlevel as flowlevel_mod
import repro.network.garnetlite as garnetlite_mod
import repro.system.phases as phases_mod
from repro.core import SystemConfig, simulate
from repro.memory import HierMemConfig, HierarchicalRemoteMemory
from repro.network import parse_topology
from repro.trace import (
    CollectiveType,
    ETNode,
    ExecutionTrace,
    NodeType,
    TensorLocation,
)
from repro.validate import InvariantConfig
from repro.validate.adaptive import run_adaptive_suite
from repro.validate.conformance import run_backend_pairs
from repro.workload.generators import generate_single_collective

MiB = 1 << 20


def _violations(remote_memory=None, traces=None):
    """Invariant-checked analytical run; -1 means it blew up outright."""
    topo = parse_topology("Ring(2)_Switch(4)", [200.0, 50.0])
    if traces is None:
        traces = generate_single_collective(
            topo, CollectiveType.ALL_REDUCE, payload_bytes=4 * MiB)
    config = SystemConfig(
        topology=topo, scheduler="baseline", collective_chunks=4,
        remote_memory=remote_memory, invariants=InvariantConfig())
    try:
        result = simulate(traces, config)
    except Exception:
        return -1
    return result.invariants.violations_total


def _caught_by_invariants(**kwargs):
    return _violations(**kwargs) != 0


def _caught_by_conformance():
    try:
        cases = run_backend_pairs(quick=True, check_invariants=True)
    except Exception:
        return True
    return any(not c.passed for c in cases)


def _caught_by_adaptive():
    try:
        report = run_adaptive_suite(quick=True, check_invariants=True)
    except Exception:
        return True
    return not report.passed


def _hiermem_traces():
    nodes = [
        ETNode(0, NodeType.MEMORY_LOAD, name="load", tensor_bytes=4 * MiB,
               location=TensorLocation.REMOTE),
        ETNode(1, NodeType.MEMORY_STORE, name="store", tensor_bytes=4 * MiB,
               deps=(0,), location=TensorLocation.REMOTE),
    ]
    return {0: ExecutionTrace(0, nodes)}


def _hiermem_model():
    return HierarchicalRemoteMemory(HierMemConfig(
        num_nodes=2, gpus_per_node=4, num_out_switches=2,
        num_remote_groups=8, mem_side_bw_gbps=100.0,
        gpu_side_out_bw_gbps=256.0, in_node_bw_gbps=256.0,
        chunk_bytes=1 * MiB, access_latency_ns=1000.0))


class TestControl:
    def test_unmutated_stack_is_clean(self):
        """Baseline: with no mutation nothing fires (no false alarms)."""
        assert _violations() == 0
        assert not _caught_by_conformance()


class TestPortMutations:
    def test_double_booked_port_caught(self, monkeypatch):
        # Bug: reservations start at min(now, free_at) — overlapping
        # transfers serialize on top of each other.
        def reserve(self, now, duration):
            start = min(now, self.free_at)
            end = start + duration
            self.free_at = end
            self.busy_ns += duration
            self.reservations += 1
            return start, end

        monkeypatch.setattr(analytical_mod.DimPort, "reserve", reserve)
        assert _caught_by_invariants()

    def test_backwards_reservation_caught(self, monkeypatch):
        # Bug: sign slip makes the reservation end before it starts.
        def reserve(self, now, duration):
            start = max(now, self.free_at)
            end = start - duration
            self.free_at = max(self.free_at, start)
            self.busy_ns += duration
            self.reservations += 1
            return start, end

        monkeypatch.setattr(analytical_mod.DimPort, "reserve", reserve)
        assert _caught_by_invariants()


class TestTrafficMutations:
    def test_reduce_scatter_drops_fraction_caught(self, monkeypatch):
        # Bug: RS phases "forget" the (k-1)/k telescoping fraction.
        original = phases_mod.phase_traffic_bytes

        def mutated(spec, kind, payload_bytes):
            if kind is phases_mod.PhaseKind.REDUCE_SCATTER:
                return float(payload_bytes)
            return original(spec, kind, payload_bytes)

        monkeypatch.setattr(phases_mod, "phase_traffic_bytes", mutated)
        assert _caught_by_invariants()

    def test_all_gather_overcounts_caught(self, monkeypatch):
        # Bug: AG serializes payload*k instead of payload*(k-1).
        original = phases_mod.phase_traffic_bytes

        def mutated(spec, kind, payload_bytes):
            if kind is phases_mod.PhaseKind.ALL_GATHER:
                return float(payload_bytes) * spec.size
            return original(spec, kind, payload_bytes)

        monkeypatch.setattr(phases_mod, "phase_traffic_bytes", mutated)
        assert _caught_by_invariants()

    def test_traffic_fraction_off_by_one_caught(self, monkeypatch):
        # Bug: the classic k/(k-1) slip — every NPU sends the full
        # payload in every phase.
        monkeypatch.setattr(phases_mod, "collective_traffic_fraction",
                            lambda k: 1.0)
        assert _caught_by_invariants()

    def test_nan_latency_caught(self, monkeypatch):
        # Bug: a 0/0 in the latency model poisons event timestamps.
        monkeypatch.setattr(phases_mod, "phase_latency_ns",
                            lambda spec: math.nan)
        assert _caught_by_invariants()


class TestBackendMutations:
    def test_analytical_bandwidth_doubled_caught(self, monkeypatch):
        # Bug: serialization uses half the real byte time — analytical
        # drifts away from the packet/flow backends.
        original = analytical_mod.AnalyticalNetwork.serialization_time

        def mutated(self, size_bytes, dim):
            return original(self, size_bytes, dim) / 2.0

        monkeypatch.setattr(analytical_mod.AnalyticalNetwork,
                            "serialization_time", mutated)
        assert _caught_by_conformance()

    def test_garnet_link_without_queueing_caught(self, monkeypatch):
        # Bug: packet links never advance free_at, so packets overlap
        # instead of serializing.
        def transmit(self, now, size_bytes):
            done = now + size_bytes / self.bandwidth
            self.bytes_carried += size_bytes
            return done, done + self.latency_ns

        monkeypatch.setattr(garnetlite_mod._Link, "transmit", transmit)
        assert _caught_by_conformance()

    def test_flow_capacity_doubled_caught(self, monkeypatch):
        # Bug: flow links allocate against twice their physical capacity.
        original = flowlevel_mod._FlowLink.__init__

        def mutated(self, bandwidth_gbps, latency_ns):
            original(self, 2.0 * bandwidth_gbps, latency_ns)

        monkeypatch.setattr(flowlevel_mod._FlowLink, "__init__", mutated)
        assert _caught_by_conformance()

    def test_garnet_arrival_double_count_caught(self, monkeypatch):
        # Bug: packet arrivals are double-counted, so bookkeeping claims
        # more packets landed than were ever sent.
        def mutated(self, flow, count):
            flow.packets_arrived += count + 1
            if self.invariants is not None:
                self.invariants.check_packet_flow(flow, self.engine.now)
            if flow.packets_arrived == flow.packets_total:
                self._deliver(flow.message)

        monkeypatch.setattr(garnetlite_mod.GarnetLiteNetwork,
                            "_segment_arrived", mutated)
        assert _caught_by_conformance()


class TestAdaptiveControllerMutations:
    """ISSUE 10 satellite: seeded granularity-controller bugs must be
    caught by the adaptive pillar or the invariant sweep it runs."""

    def test_inverted_threshold_comparison_caught(self, monkeypatch):
        # Bug: the classic comparison flip — links escalate while
        # *uncontended* and never when loaded.  threshold=inf then
        # escalates everything, so the identity axis (bit-parity with
        # the fluid backend) fails immediately.
        monkeypatch.setattr(
            adaptive_mod.AdaptiveFlowNetwork, "_should_escalate",
            lambda self, n: n < self.escalation_threshold)
        assert _caught_by_adaptive()

    def test_dropped_inflight_bytes_on_handoff_caught(self, monkeypatch):
        # Bug: the fluid->packet handoff segments only half the
        # remaining bytes — in-flight data silently vanishes.  The
        # byte-conservation invariant on the handoff (and the finalize
        # sweep) must flag it.
        original = adaptive_mod.AdaptiveFlowNetwork._segments

        def mutated(self, size):
            return original(self, max(1.0, size * 0.5))

        monkeypatch.setattr(adaptive_mod.AdaptiveFlowNetwork,
                            "_segments", mutated)
        assert _caught_by_adaptive()

    def test_missed_deescalation_caught(self, monkeypatch):
        # Bug: de-escalation is a no-op, so links stay packet-mode
        # forever once contention clears.  The finalize leak check
        # ("still escalated at end of run with no flows") must fire.
        monkeypatch.setattr(adaptive_mod.AdaptiveFlowNetwork,
                            "_deescalate",
                            lambda self, link, state: None)
        assert _caught_by_adaptive()


class TestMemoryMutations:
    def test_hiermem_pipeline_collapse_caught(self, monkeypatch):
        # Bug: the chunk pipeline always reports a single stage, so one
        # chunk "carries" the whole per-link byte share.
        monkeypatch.setattr(
            HierarchicalRemoteMemory, "num_pipeline_stages",
            lambda self, tensor_bytes_per_gpu: 1)
        assert _caught_by_invariants(remote_memory=_hiermem_model(),
                                     traces=_hiermem_traces())
