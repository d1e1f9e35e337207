"""Unit tests for collective phase math — including exact Table IV checks."""

import pytest

from repro.network import DimSpec, BuildingBlock, parse_topology
from repro.system import (
    PhaseKind,
    decompose_collective,
    phase_duration_ns,
    phase_traffic_bytes,
)
from repro.trace import CollectiveType

MiB = 1 << 20
GiB = 1 << 30


def _dim(block=BuildingBlock.RING, size=8, bw=100.0, lat=500.0):
    return DimSpec(block, size, bw, lat)


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
        # Ring: 3 steps x 500 ns + 0.75 * payload / 100.
        assert phase_duration_ns(d, PhaseKind.REDUCE_SCATTER, 1000) == pytest.approx(
            3 * 500 + 750 / 100
        )

    def test_switch_uses_log_steps(self):
        d = _dim(block=BuildingBlock.SWITCH, size=8, bw=100.0, lat=500.0)
        assert phase_duration_ns(d, PhaseKind.REDUCE_SCATTER, 0) == pytest.approx(3 * 500)

    def test_singleton_dim_zero_duration(self):
        assert phase_duration_ns(_dim(size=1), PhaseKind.ALL_GATHER, 1000) == 0.0


class TestAllReduceDecomposition:
    def test_rs_then_ag_mirrored(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        kinds = [p.kind for p in plan.phases]
        dims = [p.dim for p in plan.phases]
        assert kinds == [PhaseKind.REDUCE_SCATTER] * 2 + [PhaseKind.ALL_GATHER] * 2
        assert dims == [0, 1, 1, 0]

    def test_payload_shrinks_through_rs(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        assert [p.payload_bytes for p in plan.phases] == [800, 400, 100, 400]

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
            plan = decompose_collective(
                CollectiveType.ALL_REDUCE, topo, (0, 1, 2, 3), 1024 * MiB
            )
            traffic = plan.traffic_by_dim(topo)
            got = [traffic[d] / MiB for d in range(4)]
            assert got == pytest.approx(expected), f"shape {dim1}_8_8_{dim4}"

    def test_total_traffic_bounded_by_2x_payload(self):
        topo = parse_topology("Ring(4)_FC(4)_Switch(4)", [100, 100, 100])
        plan = decompose_collective(CollectiveType.ALL_REDUCE, topo, (0, 1, 2), GiB)
        total = sum(plan.traffic_by_dim(topo).values())
        assert total < 2 * GiB
        assert total > 1.9 * GiB  # 2 * (1 - 1/64) * payload


class TestOtherCollectives:
    def test_all_gather_payload_grows(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_GATHER, topo, (0, 1), 1600)
        # Shards: 1600/16 = 100, then 400 entering dim 1.
        assert [p.payload_bytes for p in plan.phases] == [100, 400]
        assert [p.kind for p in plan.phases] == [PhaseKind.ALL_GATHER] * 2

    def test_all_gather_total_traffic(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_GATHER, topo, (0, 1), 1600)
        # Each NPU receives gathered - shard = 1600 - 100 = 1500 bytes.
        assert sum(plan.traffic_by_dim(topo).values()) == pytest.approx(1500)

    def test_reduce_scatter_single_pass(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.REDUCE_SCATTER, topo, (0, 1), 1600)
        assert [p.payload_bytes for p in plan.phases] == [1600, 400]

    def test_alltoall_constant_payload(self):
        topo = parse_topology("Switch(4)_Switch(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_TO_ALL, topo, (0, 1), 1000)
        assert [p.payload_bytes for p in plan.phases] == [1000, 1000]

    def test_dims_order_respected(self):
        topo = parse_topology("Ring(2)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.REDUCE_SCATTER, topo, (1, 0), 800)
        assert [p.dim for p in plan.phases] == [1, 0]
        # Visiting the k=4 dim first shrinks the payload faster.
        assert [p.payload_bytes for p in plan.phases] == [800, 200]

    def test_singleton_dims_skipped(self):
        topo = parse_topology("Ring(1)_FC(4)", [100, 100])
        plan = decompose_collective(CollectiveType.ALL_REDUCE, topo, (0, 1), 800)
        assert [p.dim for p in plan.phases] == [1, 1]
