"""Property-based tests for the adaptive granularity controller.

Four controller laws from ISSUE 10, checked over randomized scenarios,
algorithms, payloads, and threshold pairs:

1. ``threshold=inf`` is **bit-identical** to the pure fluid backend
   (same simulated time, same event count, zero escalations).
2. ``threshold=0`` matches the pure packet backend within the
   saf-adjusted band (:data:`repro.validate.conformance.REL_SAF`) on the
   conformance-matrix algorithms, at strictly fewer events.
3. The escalation count is monotonically non-increasing in the
   threshold for a fixed workload.
4. Hysteresis prevents oscillation: a single contention episode (flows
   only drain after the initial burst) escalates each link at most
   once, and an uncontended link never escalates at all.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AdaptiveFlowNetwork, parse_topology
from repro.validate.conformance import (
    REL_SAF,
    SCENARIO_TOPOLOGIES,
    _saf_allowance_ns,
    matrix_algorithms,
)
from repro.validate.harness import run_algorithm

KiB = 1 << 10

SCENARIOS = sorted(SCENARIO_TOPOLOGIES)


def _burst(net, engine, sizes, dst=1):
    """One contention episode: all flows join at t=0, then only drain."""
    done = []
    for i, size in enumerate(sizes):
        net.sim_recv(dst, 0, size, tag=i,
                     callback=lambda m: done.append(engine.now))
        net.sim_send(0, dst, size, tag=i)
    engine.run()
    return done


def _adaptive(threshold, hysteresis=1.0, packet=1024):
    engine = EventEngine()
    topo = parse_topology("Ring(4)", [100.0], latencies_ns=[0.0])
    net = AdaptiveFlowNetwork(
        engine, topo, escalation_threshold=threshold,
        deescalation_hysteresis=hysteresis,
        escalation_packet_bytes=packet)
    return engine, net


@settings(max_examples=12, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    payload=st.integers(min_value=8 * KiB, max_value=1 << 21),
    data=st.data(),
)
def test_infinite_threshold_is_bit_identical_to_fluid(scenario, payload,
                                                      data):
    notation, bws, lats = SCENARIO_TOPOLOGIES[scenario]
    algorithm = data.draw(st.sampled_from(matrix_algorithms(notation)))
    base_ns, base_ev, _, _ = run_algorithm(
        "flow", notation, bws, lats, algorithm, payload, 4096, False)
    cand_ns, cand_ev, _, net = run_algorithm(
        "adaptive", notation, bws, lats, algorithm, payload, 4096, False,
        escalation_threshold=math.inf)
    assert cand_ns == base_ns          # exact, not approx: bit identity
    assert cand_ev == base_ev
    assert net.escalations == 0
    assert net.deescalations == 0


@settings(max_examples=10, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    # >= 64 KiB keeps every per-step chunk above packet_bytes, the
    # regime where the closed-form saf correction is exact (the
    # conformance matrix starts at the same floor).
    payload=st.integers(min_value=64 * KiB, max_value=1 << 21),
    data=st.data(),
)
def test_zero_threshold_matches_packet_within_saf_band(scenario, payload,
                                                       data):
    notation, bws, lats = SCENARIO_TOPOLOGIES[scenario]
    algorithm = data.draw(st.sampled_from(matrix_algorithms(notation)))
    k = parse_topology(notation, list(bws)).num_npus
    base_ns, base_ev, _, _ = run_algorithm(
        "garnet", notation, bws, lats, algorithm, payload, 4096, False)
    cand_ns, cand_ev, _, net = run_algorithm(
        "adaptive", notation, bws, lats, algorithm, payload, 4096, False,
        escalation_threshold=0.0)
    saf = _saf_allowance_ns(notation, bws[0], k, algorithm, 4096)
    assert abs(cand_ns + saf - base_ns) / base_ns <= REL_SAF
    assert cand_ev < base_ev
    assert net.escalations > 0
    assert net.deescalations == 0      # threshold 0 never de-escalates


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=4 * KiB, max_value=256 * KiB),
                   min_size=2, max_size=8),
    t_low=st.integers(min_value=0, max_value=6),
    t_step=st.integers(min_value=1, max_value=6),
)
def test_escalations_monotone_non_increasing_in_threshold(sizes, t_low,
                                                          t_step):
    counts = []
    for threshold in (float(t_low), float(t_low + t_step)):
        engine, net = _adaptive(threshold)
        _burst(net, engine, sizes)
        counts.append(net.escalations)
    assert counts[0] >= counts[1]


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=4 * KiB, max_value=256 * KiB),
                   min_size=2, max_size=8),
    threshold=st.integers(min_value=1, max_value=6),
    hysteresis=st.integers(min_value=0, max_value=6),
)
def test_single_episode_never_oscillates(sizes, threshold, hysteresis):
    """Flows only drain after the burst, so each link sees at most one
    contention episode: at most one escalate/de-escalate round trip per
    link, whatever the hysteresis."""
    engine, net = _adaptive(float(threshold),
                            hysteresis=float(min(hysteresis, threshold)))
    done = _burst(net, engine, sizes)
    assert len(done) == len(sizes)
    links_used = 1                     # 0 -> 1 is a single-link route
    assert net.escalations <= links_used
    assert net.deescalations <= net.escalations
    assert net.bytes_delivered == pytest.approx(sum(sizes))


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=4 * KiB, max_value=256 * KiB),
                   min_size=1, max_size=6),
    threshold=st.integers(min_value=1, max_value=4),
    hysteresis=st.integers(min_value=0, max_value=4),
)
def test_uncontended_link_never_escalates(sizes, threshold, hysteresis):
    """Sequential (back-to-back) flows keep concurrency at 1, which
    never crosses a threshold >= 1: the controller must stay fluid."""
    engine, net = _adaptive(float(threshold),
                            hysteresis=float(min(hysteresis, threshold)))
    done = []

    def start(i):
        size = sizes[i]
        follow = ((lambda m: (done.append(engine.now), start(i + 1)))
                  if i + 1 < len(sizes)
                  else (lambda m: done.append(engine.now)))
        net.sim_recv(1, 0, size, tag=i, callback=follow)
        net.sim_send(0, 1, size, tag=i)

    start(0)
    engine.run()
    assert len(done) == len(sizes)
    assert net.escalations == 0
    assert net.deescalations == 0
    assert all(state.mode == "fluid" for state in net._gran.values())
