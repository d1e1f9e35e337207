"""Unit tests for ZeRO-Infinity and the Fig. 5 pool-architecture variants."""

import pytest

from repro.memory import (
    HierMemConfig,
    HierarchicalRemoteMemory,
    MemoryRequest,
    MeshPool,
    MultiLevelSwitchPool,
    RingPool,
    ZeroInfinityConfig,
    ZeroInfinityMemory,
)
from repro.trace import TensorLocation

MiB = 1 << 20


def _remote(size):
    return MemoryRequest(size, location=TensorLocation.REMOTE)


class TestZeroInfinity:
    def test_dedicated_path_equation(self):
        mem = ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=100.0, access_latency_ns=2000.0))
        assert mem.access_time_ns(_remote(100 * MiB)) == pytest.approx(
            2000.0 + 100 * MiB / 100.0
        )

    def test_local_rejected(self):
        mem = ZeroInfinityMemory(ZeroInfinityConfig())
        with pytest.raises(ValueError):
            mem.access_time_ns(MemoryRequest(10, location=TensorLocation.LOCAL))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZeroInfinityConfig(path_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            ZeroInfinityConfig(access_latency_ns=-1)


def _pool_config(**overrides):
    params = dict(
        num_nodes=16, gpus_per_node=16, num_out_switches=4,
        num_remote_groups=16, mem_side_bw_gbps=100.0,
        gpu_side_out_bw_gbps=100.0, in_node_bw_gbps=100.0,
        chunk_bytes=MiB, access_latency_ns=0.0,
    )
    params.update(overrides)
    return HierMemConfig(**params)


class TestPoolArchitectures:
    def test_all_designs_return_positive_times(self):
        config = _pool_config()
        for cls in (MultiLevelSwitchPool, RingPool, MeshPool):
            assert cls(config).access_time_ns(_remote(64 * MiB)) > 0

    def test_ring_slowest_due_to_relaying(self):
        """Fig. 5's qualitative point: rings relay, switches don't."""
        config = _pool_config()
        switch_t = MultiLevelSwitchPool(config).access_time_ns(_remote(64 * MiB))
        mesh_t = MeshPool(config).access_time_ns(_remote(64 * MiB))
        ring_t = RingPool(config).access_time_ns(_remote(64 * MiB))
        assert ring_t > mesh_t > switch_t

    def test_hierarchical_tracks_multilevel_switch_when_mem_bound(self):
        """With the group bandwidth as the bottleneck, the hierarchical
        design and the two-level switch fabric deliver the same steady
        state; the hierarchical pipeline only adds its (tiny) fill."""
        config = _pool_config()
        hier = HierarchicalRemoteMemory(config).access_time_ns(_remote(64 * MiB))
        switch = MultiLevelSwitchPool(config).access_time_ns(_remote(64 * MiB))
        assert hier == pytest.approx(switch, rel=0.01)

    def test_zero_size_costs_latency_only(self):
        config = _pool_config(access_latency_ns=3.0)
        for cls in (MultiLevelSwitchPool, RingPool, MeshPool):
            assert cls(config).access_time_ns(_remote(0)) == 3.0

    def test_local_rejected(self):
        pool = RingPool(_pool_config())
        with pytest.raises(ValueError):
            pool.access_time_ns(MemoryRequest(10, location=TensorLocation.LOCAL))

    def test_larger_pools_relay_more_on_ring(self):
        small = RingPool(_pool_config(num_remote_groups=8))
        large = RingPool(_pool_config(num_remote_groups=128))
        # Per-GPU demand held constant; the bigger ring relays further but
        # also has more groups serving, so compare per-chunk beats.
        assert large.per_chunk_beat_ns() > small.per_chunk_beat_ns()
