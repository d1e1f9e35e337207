"""Unit tests for the workload -> execution-trace generators."""

import pytest

from repro.core import Simulator, SystemConfig
from repro.network import parse_topology
from repro.system import RooflineCompute
from repro.memory import LocalMemory, ZeroInfinityConfig, ZeroInfinityMemory
from repro.trace import CollectiveType, NodeType
from repro.workload import (
    ParallelismSpec,
    dlrm_paper,
    generate_data_parallel,
    generate_dlrm,
    generate_megatron_hybrid,
    generate_moe,
    generate_pipeline_parallel,
    generate_single_collective,
    gpt3_175b,
    moe_1t,
)
from repro.workload.models import TransformerSpec, MoESpec


def _topo():
    return parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])


def _small_transformer():
    return TransformerSpec("tiny", num_layers=4, hidden=64, seq_len=32,
                           batch_per_replica=2)


def _fast_config(topology, **kwargs):
    defaults = dict(
        topology=topology,
        compute=RooflineCompute(peak_tflops=100.0),
        local_memory=LocalMemory(bandwidth_gbps=1000.0),
        collective_chunks=2,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestSingleCollective:
    def test_one_node_trace(self):
        traces = generate_single_collective(_topo(), CollectiveType.ALL_REDUCE, 100)
        assert list(traces) == [0]
        assert len(traces[0]) == 1

    def test_repeated_collectives_chain(self):
        traces = generate_single_collective(
            _topo(), CollectiveType.ALL_TO_ALL, 100, count=3)
        trace = traces[0]
        assert len(trace) == 3
        assert trace.critical_path_length() == 3


class TestDataParallel:
    def test_structure(self):
        traces = generate_data_parallel(_small_transformer(), _topo())
        trace = traces[0]
        counts = trace.count_by_type()
        # 4 fwd + 4 bwd + 1 optimizer computes, 4 gradient ARs.
        assert counts[NodeType.COMPUTE] == 9
        assert counts[NodeType.COMM_COLLECTIVE] == 4

    def test_grad_ar_overlaps_backward(self):
        """Layer l's AR must not depend on layers < l's backward."""
        traces = generate_data_parallel(_small_transformer(), _topo())
        trace = traces[0]
        ars = [n for n in trace if n.is_collective]
        for ar in ars:
            assert len(ar.deps) == 1  # only its own layer's bwd

    def test_runs_end_to_end(self):
        traces = generate_data_parallel(_small_transformer(), _topo())
        result = Simulator(traces, _fast_config(_topo())).run()
        assert result.total_time_ns > 0
        assert result.nodes_executed == len(traces[0])

    def test_multiple_iterations_chain(self):
        one = generate_data_parallel(_small_transformer(), _topo(), iterations=1)
        two = generate_data_parallel(_small_transformer(), _topo(), iterations=2)
        assert len(two[0]) == 2 * len(one[0])


class TestMegatronHybrid:
    def test_mp_collectives_on_inner_dims(self):
        traces = generate_megatron_hybrid(
            _small_transformer(), _topo(), ParallelismSpec(mp=16, dp=32))
        trace = traces[0]
        mp_ars = [n for n in trace if n.is_collective and "fwdAR" in n.name]
        assert mp_ars and all(n.comm_dims == (0, 1) for n in mp_ars)
        dp_ars = [n for n in trace if n.is_collective and "gradAR" in n.name]
        assert dp_ars and all(n.comm_dims == (2, 3) for n in dp_ars)

    def test_grad_payload_sharded_by_mp(self):
        model = _small_transformer()
        traces = generate_megatron_hybrid(
            model, _topo(), ParallelismSpec(mp=16, dp=32))
        dp_ars = [n for n in traces[0] if "gradAR" in n.name]
        assert dp_ars[0].tensor_bytes == model.layer_grad_bytes() // 16

    def test_pure_mp_has_no_grad_ar(self):
        topo = parse_topology("Ring(4)_FC(4)", [100, 100])
        traces = generate_megatron_hybrid(
            _small_transformer(), topo, ParallelismSpec(mp=16))
        assert not [n for n in traces[0] if "gradAR" in n.name]

    @pytest.mark.parametrize("spec", [
        ParallelismSpec(mp=16, dp=32, pp=2),
        ParallelismSpec(mp=16, dp=32, ep=4)], ids=["pp", "ep"])
    def test_pipeline_and_expert_degrees_rejected(self, spec):
        topo = parse_topology("Switch(512)", [100])
        with pytest.raises(ValueError, match="generate_pipeline_parallel"
                           ".*repro.frontend.plan"):
            generate_megatron_hybrid(_small_transformer(), topo, spec)

    def test_runs_end_to_end(self):
        traces = generate_megatron_hybrid(
            _small_transformer(), _topo(), ParallelismSpec(mp=16, dp=32))
        result = Simulator(traces, _fast_config(_topo())).run()
        assert result.total_time_ns > 0


class TestPipelineParallel:
    def _traces(self, microbatches=2):
        topo = parse_topology("Ring(4)_Ring(4)_Switch(2)", [100, 100, 50])
        return topo, generate_pipeline_parallel(
            _small_transformer(), topo, ParallelismSpec(mp=4, pp=4, dp=2),
            microbatches=microbatches)

    def test_one_trace_per_stage(self):
        topo, traces = self._traces()
        assert len(traces) == 4

    def test_sends_and_recvs_pair_up(self):
        topo, traces = self._traces()
        sends = sum(
            1 for t in traces.values() for n in t if n.node_type is NodeType.COMM_SEND)
        recvs = sum(
            1 for t in traces.values() for n in t if n.node_type is NodeType.COMM_RECV)
        assert sends == recvs > 0

    def test_interior_stages_have_both_directions(self):
        topo, traces = self._traces()
        reps = sorted(traces)
        interior = traces[reps[1]]
        kinds = {n.node_type for n in interior}
        assert NodeType.COMM_SEND in kinds and NodeType.COMM_RECV in kinds

    def test_runs_end_to_end_no_deadlock(self):
        topo, traces = self._traces()
        result = Simulator(traces, _fast_config(topo)).run()
        assert result.total_time_ns > 0
        assert result.nodes_executed == sum(len(t) for t in traces.values())

    def test_more_microbatches_improve_pipeline_utilization(self):
        topo, traces2 = self._traces(microbatches=2)
        _, traces8 = self._traces(microbatches=8)
        # Same total work per stage (microbatch size fixed in this spec, so
        # 8 microbatches do 4x the work but in a deeper pipeline); idle
        # fraction should shrink.
        r2 = Simulator(traces2, _fast_config(topo)).run()
        r8 = Simulator(traces8, _fast_config(topo)).run()
        idle2 = r2.breakdown.idle_ns / r2.total_time_ns
        idle8 = r8.breakdown.idle_ns / r8.total_time_ns
        assert idle8 < idle2

    def test_requires_pp_degree(self):
        topo = parse_topology("Ring(4)_Ring(4)", [100, 100])
        with pytest.raises(ValueError):
            generate_pipeline_parallel(
                _small_transformer(), topo, ParallelismSpec(mp=16),
                microbatches=2)

    def test_invalid_microbatches(self):
        topo, _ = self._traces()
        with pytest.raises(ValueError):
            generate_pipeline_parallel(
                _small_transformer(), topo, ParallelismSpec(mp=4, pp=4, dp=2),
                microbatches=0)


class TestDLRM:
    def test_structure(self):
        traces = generate_dlrm(dlrm_paper(batch_per_npu=4), _topo())
        trace = traces[0]
        a2as = [n for n in trace if n.collective is CollectiveType.ALL_TO_ALL]
        ars = [n for n in trace if n.collective is CollectiveType.ALL_REDUCE]
        assert len(a2as) == 2  # fwd + bwd embedding exchange
        assert len(ars) == 1   # MLP gradients

    def test_runs_end_to_end(self):
        traces = generate_dlrm(dlrm_paper(batch_per_npu=4), _topo())
        result = Simulator(traces, _fast_config(_topo())).run()
        assert result.total_time_ns > 0


class TestMoE:
    def _model(self):
        return MoESpec("tiny-moe", num_layers=4, hidden=32, seq_len=16,
                       num_experts=8, moe_every=2, batch_per_gpu=2)

    def test_remote_parameter_nodes_present(self):
        traces = generate_moe(self._model(), _topo(), remote_parameters=True)
        trace = traces[0]
        loads = [n for n in trace if n.node_type is NodeType.MEMORY_LOAD]
        stores = [n for n in trace if n.node_type is NodeType.MEMORY_STORE]
        # Dense shard per layer + expert shard per MoE layer.
        assert len(loads) == 4 + 2
        # Expert grads per MoE layer + dense shard per layer.
        assert len(stores) == 2 + 4

    def test_zero_mode_emits_network_gather_scatter(self):
        traces = generate_moe(self._model(), _topo(), remote_parameters=True,
                              inswitch_collectives=False)
        trace = traces[0]
        ags = [n for n in trace if n.collective is CollectiveType.ALL_GATHER]
        rss = [n for n in trace
               if n.collective is not None and "gradRS" in n.name]
        assert len(ags) == 4   # one dense param gather per layer
        assert len(rss) == 4
        assert all(not n.attrs for n in ags)

    def test_local_mode_has_no_memory_nodes(self):
        traces = generate_moe(self._model(), _topo(), remote_parameters=False)
        assert not [n for n in traces[0] if n.is_memory]
        # And no ZeRO gathers either: params are resident.
        assert not [n for n in traces[0]
                    if n.collective is CollectiveType.ALL_GATHER]

    def test_inswitch_mode_fuses_gathers_into_memory_path(self):
        traces = generate_moe(self._model(), _topo(),
                              inswitch_collectives=True)
        trace = traces[0]
        # No explicit network gather/scatter collectives remain...
        assert not [n for n in trace
                    if n.collective is CollectiveType.ALL_GATHER]
        assert not [n for n in trace
                    if n.collective is CollectiveType.REDUCE_SCATTER]
        # ...the dense loads/stores carry the fabric tag instead...
        fabric_mem = [n for n in trace if n.is_memory
                      and n.attrs.get("via") == "fabric"]
        assert len(fabric_mem) == 4 + 4  # gather-loads + scatter-stores
        # ...and the token-routing All-to-Alls ride the fabric too.
        a2as = [n for n in trace if n.collective is CollectiveType.ALL_TO_ALL]
        assert a2as and all(n.attrs.get("via") == "fabric" for n in a2as)

    def test_loads_prefetch_along_a_chain(self):
        traces = generate_moe(self._model(), _topo())
        trace = traces[0]
        loads = [n for n in trace if n.node_type is NodeType.MEMORY_LOAD]
        # Every load except the first depends on exactly one earlier
        # acquisition node, never on compute (prefetch chain).
        compute_ids = {n.node_id for n in trace if n.is_compute}
        for load in loads:
            assert not (set(load.deps) & compute_ids)

    def test_runs_end_to_end_with_zero_infinity(self):
        config = _fast_config(_topo(), remote_memory=ZeroInfinityMemory(
            ZeroInfinityConfig(path_bandwidth_gbps=100.0)))
        traces = generate_moe(self._model(), _topo())
        result = Simulator(traces, config).run()
        assert result.total_time_ns > 0
        assert result.breakdown.exposed_mem_remote_ns >= 0

    def test_inswitch_mode_runs_end_to_end(self):
        from repro.memory import HierMemConfig, InSwitchCollectiveMemory, HierarchicalRemoteMemory

        pool = HierMemConfig(num_nodes=4, gpus_per_node=4, num_out_switches=2,
                             num_remote_groups=16)
        topo = parse_topology("Switch(4)_Switch(4)", [256, 25])
        config = _fast_config(
            topo,
            remote_memory=HierarchicalRemoteMemory(pool),
            fabric_collectives=InSwitchCollectiveMemory(pool),
        )
        traces = generate_moe(self._model(), topo, inswitch_collectives=True)
        result = Simulator(traces, config).run()
        assert result.total_time_ns > 0
