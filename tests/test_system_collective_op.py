"""Unit tests for the chunked collective operation."""

import pytest

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.system import CollectiveOperation, make_scheduler
from repro.system.phases import PhaseKind, phase_table
from repro.trace import CollectiveType

MiB = 1 << 20
GiB = 1 << 30


def _run_collective(topo_str, bws, payload, collective=CollectiveType.ALL_REDUCE,
                    scheduler="baseline", chunks=1, dims=None, lats=None):
    engine = EventEngine()
    topo = parse_topology(topo_str, bws, latencies_ns=lats or [0] * len(bws))
    net = AnalyticalNetwork(engine, topo)
    op = CollectiveOperation(
        engine=engine,
        network=net,
        scheduler=make_scheduler(scheduler),
        collective=collective,
        comm_dims=dims if dims is not None else range(topo.num_dims),
        rep_npu=0,
        payload_bytes=payload,
        num_chunks=chunks,
    )
    op.start()
    engine.run()
    return op


class TestSingleDimension:
    def test_allreduce_matches_closed_form(self):
        # Ring(4) @100 GB/s, zero latency: 2 * 3/4 * S / 100.
        op = _run_collective("Ring(4)", [100], 1000)
        assert op.duration_ns == pytest.approx(2 * 750 / 100)

    def test_latency_steps_included(self):
        op = _run_collective("Ring(4)", [100], 1000, lats=[500])
        # RS: 3 steps, AG: 3 steps -> 6 * 500 latency on top.
        assert op.duration_ns == pytest.approx(2 * 750 / 100 + 6 * 500)

    def test_allgather_single_pass(self):
        op = _run_collective("Ring(4)", [100], 1000,
                             collective=CollectiveType.ALL_GATHER)
        # Gathered 1000 -> traffic 750 per NPU, one pass.
        assert op.duration_ns == pytest.approx(750 / 100)

    def test_alltoall_direct_on_switch(self):
        op = _run_collective("Switch(4)", [100], 1000,
                             collective=CollectiveType.ALL_TO_ALL)
        assert op.duration_ns == pytest.approx(750 / 100)


class TestChunking:
    def test_single_chunk_is_sequential_sum(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 50], latencies_ns=[0, 0])
        rows = phase_table(topo.dims, (0, 1), PhaseKind.REDUCE_SCATTER, GiB,
                           roundtrip=True)
        sequential = sum(latency + busy for _, _, _, busy, _, latency, _ in rows)
        op = _run_collective("Ring(4)_FC(4)", [100, 50], GiB, chunks=1)
        assert op.duration_ns == pytest.approx(sequential)

    def test_more_chunks_pipeline_toward_max_dim(self):
        times = {
            chunks: _run_collective("Ring(4)_FC(4)", [100, 50], GiB,
                                    chunks=chunks).duration_ns
            for chunks in (1, 4, 16, 64)
        }
        assert times[4] < times[1]
        assert times[16] <= times[4] * (1 + 1e-9)
        assert times[64] <= times[16] * (1 + 1e-9)
        # Bottleneck dim 0: Ring(4) at 100 GB/s sees 2 * S * 3/4 traffic.
        bottleneck = 2 * GiB * 0.75 / 100
        assert times[64] == pytest.approx(bottleneck, rel=0.15)

    def test_traffic_independent_of_chunk_count(self):
        t1 = _run_collective("Ring(2)_FC(8)", [100, 100], GiB, chunks=1).traffic_by_dim
        t16 = _run_collective("Ring(2)_FC(8)", [100, 100], GiB, chunks=16).traffic_by_dim
        for d in t1:
            assert t1[d] == pytest.approx(t16[d])

    def test_invalid_chunks_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100])
        net = AnalyticalNetwork(engine, topo)
        with pytest.raises(ValueError):
            CollectiveOperation(engine, net, make_scheduler("baseline"),
                                CollectiveType.ALL_REDUCE, (0,), 0, 100,
                                num_chunks=0)


class TestDegenerateCases:
    def test_all_singleton_dims_complete_immediately(self):
        op = _run_collective("Ring(1)_Ring(1)", [100, 100], 1000)
        assert op.duration_ns == 0.0
        assert op.group_size == 1

    def test_zero_payload_completes(self):
        op = _run_collective("Ring(4)", [100], 0)
        assert op.duration_ns == 0.0

    def test_subset_dims_only(self):
        op = _run_collective("Ring(4)_FC(8)", [100, 100], 1000, dims=[1])
        assert op.group_size == 8
        # All-Reduce: RS + AG both move 875 bytes on the dim.
        assert op.traffic_by_dim == {1: pytest.approx(1750)}

    def test_double_start_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100])
        net = AnalyticalNetwork(engine, topo)
        op = CollectiveOperation(engine, net, make_scheduler("baseline"),
                                 CollectiveType.ALL_REDUCE, (0,), 0, 100)
        op.start()
        with pytest.raises(RuntimeError):
            op.start()

    def test_duration_before_completion_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Ring(4)", [100])
        net = AnalyticalNetwork(engine, topo)
        op = CollectiveOperation(engine, net, make_scheduler("baseline"),
                                 CollectiveType.ALL_REDUCE, (0,), 0, 100)
        with pytest.raises(RuntimeError):
            _ = op.duration_ns


class TestThemisVsBaseline:
    def test_themis_not_slower_on_unbalanced_topology(self):
        base = _run_collective(
            "Ring(2)_FC(8)_Ring(8)_Switch(4)", [1000, 200, 100, 50], GiB,
            scheduler="baseline", chunks=32).duration_ns
        themis = _run_collective(
            "Ring(2)_FC(8)_Ring(8)_Switch(4)", [1000, 200, 100, 50], GiB,
            scheduler="themis", chunks=32).duration_ns
        assert themis <= base

    def test_one_dim_schedulers_identical(self):
        base = _run_collective("Switch(16)", [100], GiB,
                               scheduler="baseline", chunks=16).duration_ns
        themis = _run_collective("Switch(16)", [100], GiB,
                                 scheduler="themis", chunks=16).duration_ns
        assert base == pytest.approx(themis)

    def test_allreduce_correctness_ag_replays_rs_order_reversed(self):
        # With Themis the per-chunk AG order must mirror its RS order; the
        # total per-dim traffic is then order-independent in aggregate.
        op = _run_collective(
            "Ring(2)_FC(8)", [100, 100], GiB, scheduler="themis", chunks=8)
        total = sum(op.traffic_by_dim.values())
        # Every chunk moves 2 * S_chunk * (1 - 1/16) in total across dims,
        # regardless of the order it picked.
        assert total == pytest.approx(2 * GiB * (1 - 1 / 16), rel=1e-6)


# -- characterization: the chunk path, pinned bit for bit ----------------------

_PIN_TOPO = ("Ring(2)_FC(6)_Ring(3)_Switch(4)", [250, 200, 100, 50],
             [50, 250, 250, 500])
_PIN_PAYLOAD = 10_000_003.0
_PIN_FAULTS = ("straggler@npu0:2x@t=5us@for=40us; "
               "degrade@dim2:0.5x@t=20us@for=100us")


class _SpanLog:
    """Telemetry stand-in that records every chunk-phase span."""

    chunk_spans = True

    def __init__(self, log):
        self._log = log

    def record_phase(self, rep_npu, dim, label, start_ns, end_ns):
        self._log.append(f"span {rep_npu} {dim} {label} {start_ns!r} {end_ns!r}")


def _chunk_path(ops, scheduler="baseline", faults=None):
    """Run ``ops`` concurrently; log every port reservation and span.

    Each op is ``(collective, chunks, comm_dims, group_shape)``.  Returns
    the sha256 of the log and ``(total_time_ns, events_processed)``.
    """
    import hashlib

    from repro.faults import FaultInjector, FaultSchedule

    engine = EventEngine()
    topo = parse_topology(_PIN_TOPO[0], _PIN_TOPO[1], latencies_ns=_PIN_TOPO[2])
    log = []
    injector = None
    if faults is not None:
        injector = FaultInjector(FaultSchedule.parse(faults), topo)
    net = AnalyticalNetwork(engine, topo, faults=injector,
                            telemetry=_SpanLog(log))
    reserve = net.reserve_port

    def logged_reserve(npu, dim, busy, members=None):
        start, end = reserve(npu, dim, busy, members)
        log.append(f"reserve {npu} {dim} {busy!r} -> {start!r} {end!r}")
        return start, end

    net.reserve_port = logged_reserve
    sched = make_scheduler(scheduler)
    for collective, chunks, dims, shape in ops:
        CollectiveOperation(
            engine, net, sched, collective, dims, 0, _PIN_PAYLOAD,
            num_chunks=chunks, group_shape=shape).start()
    engine.run()
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    return digest, (engine.now, engine.events_processed)


_ALL_DIMS = (0, 1, 2, 3)
_AR, _AG = CollectiveType.ALL_REDUCE, CollectiveType.ALL_GATHER
_RS, _A2A = CollectiveType.REDUCE_SCATTER, CollectiveType.ALL_TO_ALL

_CHUNK_PATH_CASES = {
    # name: (ops, faults)
    **{
        f"baseline-{c.value}-{n}": ([(c, n, _ALL_DIMS, None)], None)
        for c in (_AR, _AG, _RS, _A2A) for n in (1, 3, 16)
    },
    "baseline-subdim": ([(_AR, 3, (1, 3), {1: 3, 3: 2})], None),
    "baseline-faults": (
        [(_AR, 16, _ALL_DIMS, None), (_A2A, 3, (1, 3), None)], _PIN_FAULTS),
}

_CHUNK_PATH_PINS = {
    "baseline-all_gather-1": (
        "ffd6ce608145eafb55683ccb637eb13e19162955045ddf6e56260bcb41d05870",
        (172216.71779166668, 4)),
    "baseline-all_gather-16": (
        "859010841435df0c3034caf0b27351d9f4efb3bcd69daad78ad5e4752148c963",
        (153076.08704947913, 64)),
    "baseline-all_gather-3": (
        "4c765fc19ba3e0ddb9425be2c07590c741a853a30456aca58e4926e77c56a40b",
        (158605.6025972222, 12)),
    "baseline-all_reduce-1": (
        "eac3dd2284fc6544668de16e2b505d7f9356b23b7bb4708959745bd762a8c89a",
        (104711.14144444445, 8)),
    "baseline-all_reduce-16": (
        "4872312a7137e292642d7c74f26a043ba760c26b30d3fa0b9c7ae3e6a46faacb",
        (44516.6799166667, 128)),
    "baseline-all_reduce-3": (
        "0bde2fcb92a506dcdc22af853a8e08a81878e9600e2d364d448f33e63b0ce2bd",
        (55350.0165, 24)),
    "baseline-all_to_all-1": (
        "bd5742e8d604813a70371a86322570d9a41411d60d462439f586849d193f8d81",
        (250966.7414166667, 4)),
    "baseline-all_to_all-16": (
        "3018a96bcb0b16fe6fd9598843df80ac3ba5d5ef557068f10d631d8db7816d50",
        (157997.96352604165, 64)),
    "baseline-all_to_all-3": (
        "d6f0227cea1a188b7c04b168d46c92a8f04712cfd26e6edbaad047de085a783c",
        (184855.6104722222, 12)),
    "baseline-reduce_scatter-1": (
        "a811438e8b53ec81c6c64aed1c6d093cee2e35f425ba8055699634805826ef3b",
        (52355.570722222226, 4)),
    "baseline-reduce_scatter-16": (
        "cd771c10043efb7bd834782ae5605c4b7a3bb0c888597869d2253e23c8e89597",
        (24490.9790295139, 64)),
    "baseline-reduce_scatter-3": (
        "a84a2970dfbd09476481f28213d9b34448f2e81d121cd11d2561d99d67e54c87",
        (32540.749962962967, 12)),
    "baseline-faults": (
        "cd2342ee3ed165a10ff0ae6271426247f49250ad546b850cc7457e311ae37877",
        (212671.58500173598, 134)),
    "baseline-subdim": (
        "28c6e529b90386701719e1885fb5d1b0e604e7914fd02857601cb5fc048a5314",
        (89888.91555555558, 12)),
}


@pytest.mark.parametrize("name", sorted(_CHUNK_PATH_CASES))
def test_chunk_path_is_pinned(name):
    """Every port reservation and chunk span of the
    chunk-by-chunk path, bit for bit, on a heterogeneous topology."""
    ops, faults = _CHUNK_PATH_CASES[name]
    assert _chunk_path(ops, "baseline", faults) == _CHUNK_PATH_PINS[name]


def test_faulted_themis_keeps_its_fluid_plan():
    """Faults stretch the fluid loads as the ports run them, so Themis
    keeps its plan: the same two events as the fault-free run."""
    ops = [(_AR, 16, _ALL_DIMS, None), (_A2A, 3, (1, 3), None)]
    _, (clean_ns, clean_events) = _chunk_path(ops, "themis")
    _, (faulted_ns, events) = _chunk_path(ops, "themis", _PIN_FAULTS)
    assert events == clean_events == 2
    # The 2x straggler on rep 0 halves each of its ports for 40 us, so
    # the bottleneck port loses 20 us.
    assert faulted_ns - clean_ns == pytest.approx(20e3)
