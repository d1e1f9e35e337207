"""Unit tests for canned paper configurations and the NCCL reference."""

import pytest

from repro.calibration import (
    NCCL_RING_EFFICIENCY,
    nccl_ring_allreduce_reference_ns,
    reference_curve,
)
from repro.configs import (
    CONV_3D,
    CONV_4D,
    TABLE2_TOPOLOGIES,
    W_1D_600,
    W_2D,
    conv_4d_scaled,
    hiermem_baseline,
    hiermem_opt,
    moe_npu_network,
    wafer_scaled,
    zero_infinity_table5,
)

MiB = 1 << 20


class TestTable2:
    def test_all_systems_have_512_npus(self):
        for name, topo in TABLE2_TOPOLOGIES.items():
            assert topo.num_npus == 512, name

    def test_shapes_match_table(self):
        assert W_2D.shape == (32, 16)
        assert CONV_3D.shape == (16, 8, 4)
        assert CONV_4D.shape == (2, 8, 8, 4)

    def test_bandwidths_match_table(self):
        assert [d.bandwidth_gbps for d in CONV_4D.dims] == [250, 200, 100, 50]
        assert [d.bandwidth_gbps for d in CONV_3D.dims] == [200, 100, 50]
        assert W_1D_600.dims[0].bandwidth_gbps == 600

    def test_scaling_variants(self):
        base = conv_4d_scaled()
        assert base.shape == (2, 8, 8, 4)
        assert base.dims[0].bandwidth_gbps == 1000
        assert conv_4d_scaled(last_dim=32).num_npus == 4096
        assert wafer_scaled(16).shape == (16, 8, 8, 4)

    def test_invalid_scaling_rejected(self):
        with pytest.raises(ValueError):
            conv_4d_scaled(last_dim=0)


class TestTable5:
    def test_zero_infinity_column(self):
        config = zero_infinity_table5()
        assert config.compute.peak_tflops == 2048
        assert config.remote_memory is not None
        assert config.remote_memory.config.path_bandwidth_gbps == 100
        assert config.fabric_collectives is None

    def test_hiermem_baseline_column(self):
        config = hiermem_baseline()
        pool = config.remote_memory.config
        assert pool.in_node_bw_gbps == 256
        assert pool.mem_side_bw_gbps == 100
        assert pool.num_remote_groups == 256
        assert pool.num_out_switches == 16
        assert config.fabric_collectives is not None

    def test_hiermem_opt_column(self):
        pool = hiermem_opt().remote_memory.config
        assert pool.in_node_bw_gbps == 512
        assert pool.mem_side_bw_gbps == 500

    def test_moe_network_is_256_gpus(self):
        assert moe_npu_network().num_npus == 256

    def test_hiermem_pool_is_the_derived_geometry(self):
        from repro.memory import HierMemConfig

        assert hiermem_baseline().remote_memory.config == HierMemConfig(
            num_nodes=16, gpus_per_node=16, num_out_switches=16,
            num_remote_groups=256, mem_side_bw_gbps=100.0,
            gpu_side_out_bw_gbps=256.0, in_node_bw_gbps=256.0)


class TestNcclReference:
    def test_monotone_in_payload(self):
        times = [nccl_ring_allreduce_reference_ns(4, s * MiB)
                 for s in (64, 128, 256, 512, 1024)]
        assert times == sorted(times)

    def test_more_gpus_more_time_at_fixed_payload(self):
        # 2(k-1)/k grows with k, and step latencies add.
        assert nccl_ring_allreduce_reference_ns(16, 256 * MiB) > \
            nccl_ring_allreduce_reference_ns(4, 256 * MiB)

    def test_deterministic(self):
        a = nccl_ring_allreduce_reference_ns(4, 100 * MiB)
        b = nccl_ring_allreduce_reference_ns(4, 100 * MiB)
        assert a == b

    def test_close_to_ideal_alpha_beta(self):
        payload = 1024 * MiB
        t = nccl_ring_allreduce_reference_ns(4, payload)
        ideal = 2 * 3 * (payload / 4) / 150.0
        # Within protocol efficiency + jitter of the ideal curve.
        assert ideal < t < ideal / (NCCL_RING_EFFICIENCY * 0.9)

    def test_trivial_ring(self):
        assert nccl_ring_allreduce_reference_ns(1, MiB) == 0.0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            nccl_ring_allreduce_reference_ns(4, -1)

    def test_reference_curve_shape(self):
        sweep = [64 * MiB, 128 * MiB]
        curve = reference_curve(4, sweep)
        assert [s for s, _ in curve] == sweep
        assert all(t > 0 for _, t in curve)
