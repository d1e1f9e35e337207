"""Unit tests for the hierarchical remote-memory model (paper Fig. 6-7).

The key checks reproduce the worked example of Sec. IV-D: 16 nodes x 16
GPUs (256 GPUs), 4 out-node switches, 8 remote memory groups; a load of W
per GPU puts 32W on each remote group, 8W on each group->out-switch link,
4W on each out-switch->node link, and W on each GPU.
"""

import pytest

from repro.memory import HierMemConfig, HierarchicalRemoteMemory, MemoryRequest
from repro.trace import TensorLocation

MiB = 1 << 20


def _paper_example_config(chunk_bytes=MiB, **overrides):
    params = dict(
        num_nodes=16,
        gpus_per_node=16,
        num_out_switches=4,
        num_remote_groups=8,
        mem_side_bw_gbps=400.0,  # group total; 4 out-switch links at 100 each
        gpu_side_out_bw_gbps=100.0,
        in_node_bw_gbps=100.0,
        chunk_bytes=chunk_bytes,
        access_latency_ns=0.0,
    )
    params.update(overrides)
    return HierMemConfig(**params)


def _remote_request(size):
    return MemoryRequest(size, location=TensorLocation.REMOTE)


class TestPaperExampleLinkLoads:
    """Aggregate bytes per link, recovered from stages x beats."""

    def test_pipeline_beats_are_8w_over_chunk(self):
        w = 64 * MiB
        mem = HierarchicalRemoteMemory(_paper_example_config())
        # (W * 256 GPUs) / (8 groups * 4 switches) = 8W per link.
        assert mem.num_pipeline_stages(w) == 8 * w // MiB

    def test_outsw_to_node_total_is_4w(self):
        w = 64 * MiB
        config = _paper_example_config()
        mem = HierarchicalRemoteMemory(config)
        beats = mem.num_pipeline_stages(w)
        per_beat = mem.stage_times_ns(config.chunk_bytes)["outSW2inSW"]
        total_bytes = beats * per_beat * config.gpu_side_out_bw_gbps
        assert total_bytes == pytest.approx(4 * w)

    def test_insw_to_gpu_total_is_w(self):
        w = 64 * MiB
        config = _paper_example_config()
        mem = HierarchicalRemoteMemory(config)
        beats = mem.num_pipeline_stages(w)
        per_beat = mem.stage_times_ns(config.chunk_bytes)["inSW2GPU"]
        total_bytes = beats * per_beat * config.in_node_bw_gbps
        assert total_bytes == pytest.approx(w)

    def test_rem_to_outsw_total_is_8w(self):
        w = 64 * MiB
        config = _paper_example_config()
        mem = HierarchicalRemoteMemory(config)
        beats = mem.num_pipeline_stages(w)
        per_link_bw = config.mem_side_bw_gbps / config.num_out_switches
        per_beat = mem.stage_times_ns(config.chunk_bytes)["rem2outSW"]
        total_bytes = beats * per_beat * per_link_bw
        assert total_bytes == pytest.approx(8 * w)


class TestPipelineCriticalPath:
    def test_total_is_fill_plus_steady_state(self):
        config = _paper_example_config()
        mem = HierarchicalRemoteMemory(config)
        w = 16 * MiB
        n = mem.num_pipeline_stages(w)
        stages = mem.stage_times_ns(config.chunk_bytes)
        expected = sum(stages.values()) + (n - 1) * max(stages.values())
        assert mem.access_time_ns(_remote_request(w)) == pytest.approx(expected)

    def test_memory_bound_steady_state_is_the_group_links(self):
        """With the memory-side links the bottleneck, the steady state
        moves one chunk per beat over each group link (``mem_side_bw /
        num_out_switches``); the other stages only add their fill."""
        config = HierMemConfig(
            num_nodes=16, gpus_per_node=16, num_out_switches=4,
            num_remote_groups=16, mem_side_bw_gbps=100.0,
            gpu_side_out_bw_gbps=100.0, in_node_bw_gbps=100.0,
            chunk_bytes=MiB, access_latency_ns=0.0)
        mem = HierarchicalRemoteMemory(config)
        w = 64 * MiB
        n = mem.num_pipeline_stages(w)
        beat = mem.effective_chunk_bytes(w) / (
            config.mem_side_bw_gbps / config.num_out_switches)
        assert mem.bottleneck_stage() == "rem2outSW"
        assert mem.access_time_ns(_remote_request(w)) == pytest.approx(
            n * beat, rel=0.01)

    def test_latency_added_once(self):
        config = _paper_example_config(access_latency_ns=5000.0)
        mem = HierarchicalRemoteMemory(config)
        base = HierarchicalRemoteMemory(_paper_example_config())
        w = 16 * MiB
        assert mem.access_time_ns(_remote_request(w)) == pytest.approx(
            base.access_time_ns(_remote_request(w)) + 5000.0
        )

    def test_zero_size_costs_latency_only(self):
        mem = HierarchicalRemoteMemory(_paper_example_config(access_latency_ns=7.0))
        assert mem.access_time_ns(_remote_request(0)) == 7.0

    def test_loads_and_stores_symmetric(self):
        mem = HierarchicalRemoteMemory(_paper_example_config())
        w = 8 * MiB
        load = MemoryRequest(w, is_store=False, location=TensorLocation.REMOTE)
        store = MemoryRequest(w, is_store=True, location=TensorLocation.REMOTE)
        assert mem.access_time_ns(load) == mem.access_time_ns(store)

    def test_local_request_rejected(self):
        mem = HierarchicalRemoteMemory(_paper_example_config())
        with pytest.raises(ValueError):
            mem.access_time_ns(MemoryRequest(100, location=TensorLocation.LOCAL))


class TestScalingBehaviour:
    def test_more_remote_groups_reduce_time(self):
        w = 64 * MiB
        few = HierarchicalRemoteMemory(_paper_example_config(num_remote_groups=4))
        many = HierarchicalRemoteMemory(_paper_example_config(num_remote_groups=32))
        assert many.access_time_ns(_remote_request(w)) < few.access_time_ns(
            _remote_request(w)
        )

    def test_bottleneck_stage_identification(self):
        slow_mem_side = HierarchicalRemoteMemory(
            _paper_example_config(mem_side_bw_gbps=1.0)
        )
        assert slow_mem_side.bottleneck_stage() == "rem2outSW"
        slow_in_node = HierarchicalRemoteMemory(
            _paper_example_config(in_node_bw_gbps=0.1)
        )
        assert slow_in_node.bottleneck_stage() == "inSW2GPU"

    def test_pool_bandwidth_positive_and_bounded(self):
        config = _paper_example_config()
        mem = HierarchicalRemoteMemory(config)
        bw = mem.pool_bandwidth_gbps()
        # Bounded by the aggregate mem-side bandwidth (8 groups x 4 links).
        assert 0 < bw <= 8 * 4 * config.mem_side_bw_gbps + 1e-9


class TestConfigValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            HierMemConfig(num_nodes=0)
        with pytest.raises(ValueError):
            HierMemConfig(chunk_bytes=0)

    def test_bad_bandwidths_rejected(self):
        with pytest.raises(ValueError):
            HierMemConfig(mem_side_bw_gbps=0)
        with pytest.raises(ValueError):
            HierMemConfig(in_node_bw_gbps=-5)

    def test_num_gpus_derived(self):
        assert _paper_example_config().num_gpus == 256
