"""Property test: phase-level collectives match the algorithm executors.

The production path times a collective with per-dimension phase math
(:class:`CollectiveOperation`); the validation path replays the actual
Table I algorithm as explicit sends (:class:`SendRecvCollectiveExecutor`).
On a 1-D topology with a single chunk the two must agree — the phase
equations *are* the closed form of the algorithms.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.system import CollectiveOperation, make_scheduler
from repro.trace import CollectiveType
from repro.validate import run_algorithm


def _phase_level_time(notation, bw, lat, payload, chunks=1):
    engine = EventEngine()
    topo = parse_topology(notation, [bw], latencies_ns=[lat])
    net = AnalyticalNetwork(engine, topo)
    op = CollectiveOperation(
        engine, net, make_scheduler("baseline"), CollectiveType.ALL_REDUCE,
        (0,), 0, payload, num_chunks=chunks)
    op.start()
    engine.run()
    return op.duration_ns


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8, 16]),
    payload_kib=st.integers(min_value=16, max_value=4096),
    bw=st.floats(min_value=10, max_value=500, allow_nan=False),
)
def test_ring_phase_matches_ring_executor(k, payload_kib, bw):
    payload = payload_kib << 10
    phase = _phase_level_time(f"Ring({k})", bw, 0.0, payload)
    executor = run_algorithm("analytical", f"Ring({k})", [bw], [0.0],
                             "ring_allreduce", payload)[0]
    # The executor rounds the per-step chunk to payload // k.
    assert phase == pytest.approx(executor, rel=0.01)


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8]),
    payload_kib=st.integers(min_value=16, max_value=4096),
    bw=st.floats(min_value=10, max_value=500, allow_nan=False),
)
def test_direct_phase_matches_direct_executor(k, payload_kib, bw):
    payload = payload_kib << 10
    phase = _phase_level_time(f"FC({k})", bw, 0.0, payload)
    executor = run_algorithm("analytical", f"FC({k})", [bw], [0.0],
                             "direct_allreduce", payload)[0]
    assert phase == pytest.approx(executor, rel=0.01)


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8, 16]),
    payload_kib=st.integers(min_value=64, max_value=4096),
    bw=st.floats(min_value=10, max_value=500, allow_nan=False),
)
def test_hd_phase_matches_hd_executor(k, payload_kib, bw):
    payload = payload_kib << 10
    phase = _phase_level_time(f"Switch({k})", bw, 0.0, payload)
    executor = run_algorithm("analytical", f"Switch({k})", [bw], [0.0],
                             "halving_doubling_allreduce", payload)[0]
    assert phase == pytest.approx(executor, rel=0.02)


@settings(max_examples=20, deadline=None)
@given(
    k=st.sampled_from([4, 8]),
    chunks=st.sampled_from([1, 2, 4, 8]),
    payload_kib=st.integers(min_value=64, max_value=2048),
)
def test_chunking_does_not_change_1d_bandwidth_time(k, chunks, payload_kib):
    """On one dimension there is nothing to pipeline against: the chunked
    time equals the single-chunk time at zero latency."""
    payload = payload_kib << 10
    one = _phase_level_time(f"Ring({k})", 100.0, 0.0, payload, chunks=1)
    many = _phase_level_time(f"Ring({k})", 100.0, 0.0, payload, chunks=chunks)
    assert many == pytest.approx(one, rel=1e-9)
