"""Unit tests for collective phase math — including exact Table IV checks.

Phases are read from :func:`repro.system.phases.phase_table` rows, the one
walk of a chunk's payload that every scheduler and the chunk stepper use.
"""

import pytest

from repro.network import DimSpec, BuildingBlock, parse_topology
from repro.system import (
    BaselineScheduler,
    PhaseKind,
    phase_table,
    phase_traffic_bytes,
)
from repro.system.phases import FIRST_PASS_KIND
from repro.trace import CollectiveType

MiB = 1 << 20
GiB = 1 << 30


def _dim(block=BuildingBlock.RING, size=8, bw=100.0, lat=500.0):
    return DimSpec(block, size, bw, lat)


def _rows(collective, topo, order, payload):
    """One chunk's phase rows, as a collective over ``order`` walks them.

    The communicator's singleton dims are inactive, and an All-Gather's
    ``payload`` is the gathered result, so its walk starts from the shard.
    """
    scheduler = BaselineScheduler()
    comm = scheduler.effective_comm(topo.dims, order)
    if collective is CollectiveType.ALL_GATHER:
        payload /= comm.group_size
    tables = scheduler.phase_tables(
        comm, FIRST_PASS_KIND[collective], float(payload),
        collective is CollectiveType.ALL_REDUCE)
    rows, _ = tables[tuple(d for d in order if d in comm.active_dims)]
    return rows


def _wall(row):
    """A phase's wall time: latency steps plus port-busy serialization."""
    _, _, _, busy, _, latency, _ = row
    return latency + busy


def _traffic_by_dim(rows):
    out = {}
    for dim, _, _, _, moved, _, _ in rows:
        out[dim] = out.get(dim, 0.0) + moved
    return out


def _dims(rows):
    return [row[0] for row in rows]


def _kinds(rows):
    return [row[1] for row in rows]


def _entries(rows):
    return [row[2] for row in rows]


class TestPhaseTraffic:
    def test_reduce_scatter_fraction(self):
        assert phase_traffic_bytes(_dim(size=8), PhaseKind.REDUCE_SCATTER, 800) == pytest.approx(700)

    def test_all_gather_multiplies_shard(self):
        assert phase_traffic_bytes(_dim(size=8), PhaseKind.ALL_GATHER, 100) == pytest.approx(700)

    def test_alltoall_on_switch(self):
        d = _dim(block=BuildingBlock.SWITCH, size=4)
        assert phase_traffic_bytes(d, PhaseKind.ALL_TO_ALL, 400) == pytest.approx(300)

    def test_singleton_dim_zero_traffic(self):
        assert phase_traffic_bytes(_dim(size=1), PhaseKind.REDUCE_SCATTER, 100) == 0.0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            phase_traffic_bytes(_dim(), PhaseKind.REDUCE_SCATTER, -1)


class TestPhaseDuration:
    def test_latency_plus_serialization(self):
        d = _dim(block=BuildingBlock.RING, size=4, bw=100.0, lat=500.0)
        (row,) = phase_table([d], (0,), PhaseKind.REDUCE_SCATTER, 1000, False)
        # Ring: 3 steps x 500 ns + 0.75 * payload / 100.
        assert _wall(row) == pytest.approx(3 * 500 + 750 / 100)

    def test_switch_uses_log_steps(self):
        d = _dim(block=BuildingBlock.SWITCH, size=8, bw=100.0, lat=500.0)
        (row,) = phase_table([d], (0,), PhaseKind.REDUCE_SCATTER, 0, False)
        assert _wall(row) == pytest.approx(3 * 500)

    def test_singleton_dim_zero_duration(self):
        (row,) = phase_table([_dim(size=1)], (0,), PhaseKind.ALL_GATHER,
                             1000, False)
        assert _wall(row) == 0.0


class TestAllReduceDecomposition:
    def test_rs_then_ag_mirrored(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        assert _kinds(rows) == ([PhaseKind.REDUCE_SCATTER] * 2
                                + [PhaseKind.ALL_GATHER] * 2)
        assert _dims(rows) == [0, 1, 1, 0]

    def test_payload_shrinks_through_rs(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        assert _entries(rows) == [800, 400, 100, 400]

    def test_table_iv_message_sizes_exact(self):
        """Reproduce every Table IV message-size row exactly."""
        cases = {
            (2, 4): [1024, 896, 112, 12],
            (2, 8): [1024, 896, 112, 14],
            (2, 16): [1024, 896, 112, 15],
            (2, 32): [1024, 896, 112, 15.5],
            (4, 4): [1536, 448, 56, 6],
            (8, 4): [1792, 224, 28, 3],
            (16, 4): [1920, 112, 14, 1.5],
        }
        for (dim1, dim4), expected in cases.items():
            topo = parse_topology(
                f"Ring({dim1})_FC(8)_Ring(8)_Switch({dim4})", [1000, 200, 100, 50]
            )
            rows = _rows(CollectiveType.ALL_REDUCE, topo, (0, 1, 2, 3),
                         1024 * MiB)
            traffic = _traffic_by_dim(rows)
            got = [traffic[d] / MiB for d in range(4)]
            assert got == expected, f"shape {dim1}_8_8_{dim4}"

    def test_total_traffic_bounded_by_2x_payload(self):
        topo = parse_topology("Ring(4)_FC(4)_Switch(4)", [100, 100, 100])
        rows = _rows(CollectiveType.ALL_REDUCE, topo, (0, 1, 2), GiB)
        total = sum(_traffic_by_dim(rows).values())
        assert total < 2 * GiB
        assert total > 1.9 * GiB  # 2 * (1 - 1/64) * payload


class TestOtherCollectives:
    def test_all_gather_payload_grows(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_GATHER, topo, (0, 1), 1600)
        # Shards: 1600/16 = 100, then 400 entering dim 1.
        assert _entries(rows) == [100, 400]
        assert _kinds(rows) == [PhaseKind.ALL_GATHER] * 2

    def test_all_gather_total_traffic(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_GATHER, topo, (0, 1), 1600)
        # Each NPU receives gathered - shard = 1600 - 100 = 1500 bytes.
        assert sum(_traffic_by_dim(rows).values()) == pytest.approx(1500)

    def test_reduce_scatter_single_pass(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.REDUCE_SCATTER, topo, (0, 1), 1600)
        assert _entries(rows) == [1600, 400]

    def test_alltoall_constant_payload(self):
        topo = parse_topology("Switch(4)_Switch(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_TO_ALL, topo, (0, 1), 1000)
        assert _entries(rows) == [1000, 1000]

    def test_dims_order_respected(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.REDUCE_SCATTER, topo, (1, 0), 800)
        assert _dims(rows) == [1, 0]
        # Visiting the k=4 dim first shrinks the payload faster.
        assert _entries(rows) == [800, 200]

    def test_singleton_dims_skipped(self):
        topo = parse_topology("Ring(1)_FC(4)", [100, 100])
        rows = _rows(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        assert _dims(rows) == [1, 1]
