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
    """Run ``ops`` concurrently; log every port, pending and span call.

    Each op is ``(collective, chunks, comm_dims, group_shape)``.  Returns
    the sha256 of the log and ``(total_time_ns, events_processed)``.
    """
    import hashlib

    from repro.faults import FaultInjector, FaultSchedule

    engine = EventEngine()
    topo = parse_topology(_PIN_TOPO[0], _PIN_TOPO[1], latencies_ns=_PIN_TOPO[2])
    net = AnalyticalNetwork(engine, topo)
    log = []
    reserve, add, consume = net.reserve_port, net.add_pending, net.consume_pending

    def logged_reserve(npu, dim, busy, members=None):
        start, end = reserve(npu, dim, busy, members)
        log.append(f"reserve {npu} {dim} {busy!r} -> {start!r} {end!r}")
        return start, end

    def logged_add(npu, dim, amount):
        log.append(f"add {npu} {dim} {amount!r}")
        add(npu, dim, amount)

    def logged_consume(npu, dim, amount):
        log.append(f"consume {npu} {dim} {amount!r}")
        consume(npu, dim, amount)

    net.reserve_port = logged_reserve
    net.add_pending = logged_add
    net.consume_pending = logged_consume
    net.telemetry = _SpanLog(log)
    if faults is not None:
        FaultInjector(FaultSchedule.parse(faults), topo).install(net)
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
    # name: (ops, scheduler, no_lp, faults)
    **{
        f"baseline-{c.value}-{n}": ([(c, n, _ALL_DIMS, None)], "baseline",
                                    False, None)
        for c in (_AR, _AG, _RS, _A2A) for n in (1, 3, 16)
    },
    "baseline-subdim": ([(_AR, 3, (1, 3), {1: 3, 3: 2})], "baseline",
                        False, None),
    "themis-nolp-ar": ([(_AR, 16, _ALL_DIMS, None)], "themis", True, None),
    "themis-nolp-concurrent": (
        [(_AR, 16, _ALL_DIMS, None), (_RS, 3, (0, 2), None),
         (_AG, 3, (1, 2, 3), {1: 3})], "themis", True, None),
    # Faults no longer force Themis off its fluid plan: its faulted chunk
    # path runs only without the LP, like the other no-LP cases.
    "themis-faults": (
        [(_AR, 16, _ALL_DIMS, None), (_A2A, 3, (1, 3), None)], "themis",
        True, _PIN_FAULTS),
    "baseline-faults": (
        [(_AR, 16, _ALL_DIMS, None), (_A2A, 3, (1, 3), None)], "baseline",
        False, _PIN_FAULTS),
}

_CHUNK_PATH_PINS = {
    "baseline-all_gather-1": (
        "1cd8caf54c51d4b8fca1e2ca00743c0b41609ced63ccebe4c549ad8da59a48ef",
        (172216.71779166668, 4)),
    "baseline-all_gather-16": (
        "7925222d24e315c89c22b6c0a9de5516a07c354b078dc3a999433dfbfa917dfe",
        (153076.08704947913, 64)),
    "baseline-all_gather-3": (
        "412dfa625af662269e19a009e3debcb6bff9e875e7096ec5b404d6ed31b1f1dc",
        (158605.6025972222, 12)),
    "baseline-all_reduce-1": (
        "d292764343e8171d3b438b1c51803807ad1f0eecec20b605c29cda7c67b4c252",
        (104711.14144444445, 8)),
    "baseline-all_reduce-16": (
        "2e53576541c91bd2889b9b4350459493d3e068406468b8700bb45fd8bc842fb2",
        (44516.6799166667, 128)),
    "baseline-all_reduce-3": (
        "395cffd26e5d7b61f36ea51346a845b77b20f6195ac01a4a7a9dda24db139b22",
        (55350.0165, 24)),
    "baseline-all_to_all-1": (
        "979f80bbcc80cff4dfdbafa59ecad1d9d545bf92eba44534b5645466eba9653b",
        (250966.7414166667, 4)),
    "baseline-all_to_all-16": (
        "4bec17cd504a04b7ef1a041c7255f0211045bcf033c23c9f464d0e2acd975214",
        (157997.96352604165, 64)),
    "baseline-all_to_all-3": (
        "e84b88682a39a3a22a105cd5f193ccbd4ab0db28138ad0e84e7e05359c72c97b",
        (184855.6104722222, 12)),
    "baseline-reduce_scatter-1": (
        "82ebe27a59ac1ef58d7996a6ca1d78e112007cd1e05b2497553513f4cfed8013",
        (52355.570722222226, 4)),
    "baseline-reduce_scatter-16": (
        "f3bab045c911646fc133a39dc1303982ed0ba183037b6ecd8de6b41a68e4f8d1",
        (24490.9790295139, 64)),
    "baseline-reduce_scatter-3": (
        "0d0f8a4dd1861f724060f327fbf491ba87260ff5f5d8957962c5edf143516ee6",
        (32540.749962962967, 12)),
    "baseline-faults": (
        "6ee17e8388daa1f6ae07988911e451597d17e7adf486811bc0746a35a7822d36",
        (212671.58500173598, 134)),
    "baseline-subdim": (
        "7d458de87bd80e9b754f402e8f7ac719f7af5f0b44924f901fccc92970d7fb49",
        (89888.91555555558, 12)),
    "themis-faults": (
        "eaa304baf710f11a2d7216fce638eec46315feba0567d1632a07f73b47278a3f",
        (220876.44827430559, 134)),
    "themis-nolp-ar": (
        "a38992b1c581c5308e918eff0ef5763ad73b74ac70113299f1a058f58fdfe1bf",
        (48515.81276085072, 128)),
    "themis-nolp-concurrent": (
        "34c235a414600fd7007f8638e02bf5f6c2585b41e282598efa9cc887e1c7e490",
        (90320.85973958338, 143)),
}


@pytest.mark.parametrize("name", sorted(_CHUNK_PATH_CASES))
def test_chunk_path_is_pinned(name, monkeypatch):
    """Every port reservation, pending-load change and chunk span of the
    chunk-by-chunk path, bit for bit, on a heterogeneous topology."""
    from repro.system.scheduler import ThemisScheduler

    ops, scheduler, no_lp, faults = _CHUNK_PATH_CASES[name]
    if no_lp:
        monkeypatch.setattr(ThemisScheduler, "_solve_mix",
                            lambda self, *args, **kwargs: [])
    assert _chunk_path(ops, scheduler, faults) == _CHUNK_PATH_PINS[name]


def test_faulted_themis_keeps_its_fluid_plan():
    """Faults stretch the fluid loads as the ports run them, so Themis
    keeps its plan: the same two events as the fault-free run."""
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        pytest.skip("needs scipy (the optional balancing extra)")
    ops = _CHUNK_PATH_CASES["themis-faults"][0]
    _, (clean_ns, clean_events) = _chunk_path(ops, "themis")
    _, (faulted_ns, events) = _chunk_path(ops, "themis", _PIN_FAULTS)
    assert events == clean_events == 2
    # The 2x straggler on rep 0 halves each of its ports for 40 us, so
    # the bottleneck port loses 20 us.
    assert faulted_ns - clean_ns == pytest.approx(20e3)
