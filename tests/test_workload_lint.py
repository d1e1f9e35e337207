"""Unit tests for the static trace linter."""

import pytest

from repro.network import parse_topology
from repro.trace import CollectiveType, ETNode, ExecutionTrace, NodeType
from repro.workload import (
    ParallelismSpec,
    generate_dlrm,
    generate_megatron_hybrid,
    generate_moe,
    generate_pipeline_parallel,
    gpt3_175b,
    dlrm_paper,
    moe_1t,
)
from repro.frontend import zoo_graph, zoo_names
from repro.frontend.ir import FrontendError, OpGraph, OpKind, OpNode, matmul_flops
from repro.workload.lint import lint_op_graph, lint_traces
from repro.workload.models import TransformerSpec


def _topo():
    return parse_topology("Ring(4)_Switch(2)", [100, 50])


class TestCleanTraces:
    def test_generators_produce_clean_traces(self):
        topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                              [250, 200, 100, 50])
        model = TransformerSpec("t", num_layers=4, hidden=64, seq_len=32)
        cases = [
            generate_megatron_hybrid(gpt3_175b(), topo,
                                     ParallelismSpec(mp=16, dp=32)),
            generate_dlrm(dlrm_paper(), topo),
            generate_moe(moe_1t(), topo),
            generate_pipeline_parallel(
                model, parse_topology("Ring(4)_Switch(2)", [100, 50]),
                ParallelismSpec(pp=4, dp=2), microbatches=3),
        ]
        topos = [topo, topo, topo,
                 parse_topology("Ring(4)_Switch(2)", [100, 50])]
        for traces, t in zip(cases, topos):
            assert lint_traces(traces, t) == []

    def test_flat_group_traces_are_clean(self):
        wafer = parse_topology("Switch(512)", [600])
        traces = generate_megatron_hybrid(
            gpt3_175b(), wafer, ParallelismSpec(mp=16, dp=32))
        assert lint_traces(traces, wafer) == []


class TestFindings:
    def test_unmatched_send(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_SEND, tensor_bytes=8, peer=1, tag=7)])
        findings = lint_traces({0: t0}, _topo())
        assert any("1 sends vs 0 receives" in f for f in findings)

    def test_matched_channel_is_clean(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_SEND, tensor_bytes=8, peer=1, tag=7)])
        t1 = ExecutionTrace(1, [
            ETNode(0, NodeType.COMM_RECV, tensor_bytes=8, peer=0, tag=7)])
        assert lint_traces({0: t0, 1: t1}, _topo()) == []

    def test_nonexistent_peer(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_SEND, tensor_bytes=8, peer=99, tag=1)])
        findings = lint_traces({0: t0}, _topo())
        assert any("nonexistent NPU 99" in f for f in findings)

    def test_bad_comm_dims(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_COLLECTIVE, tensor_bytes=8,
                   collective=CollectiveType.ALL_REDUCE, comm_dims=(5,))])
        findings = lint_traces({0: t0}, _topo())
        assert any("out of range" in f for f in findings)

    def test_non_cartesian_group(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_COLLECTIVE, tensor_bytes=8,
                   collective=CollectiveType.ALL_REDUCE,
                   involved_npus=(0, 1, 4))])
        findings = lint_traces({0: t0}, _topo())
        assert any("cartesian" in f for f in findings)

    def test_unbalanced_collective_counts(self):
        ar = dict(node_type=NodeType.COMM_COLLECTIVE, tensor_bytes=8,
                  collective=CollectiveType.ALL_REDUCE, comm_dims=(0,))
        t0 = ExecutionTrace(0, [ETNode(0, **ar), ETNode(1, deps=(0,), **ar)])
        t1 = ExecutionTrace(1, [ETNode(0, **ar)])
        findings = lint_traces({0: t0, 1: t1}, _topo())
        assert any("unequal collective counts" in f for f in findings)

    def test_trace_key_mismatch(self):
        t0 = ExecutionTrace(0, [
            ETNode(0, NodeType.COMPUTE, flops=1)])
        findings = lint_traces({3: t0}, _topo())
        assert any("registered under key 3" in f for f in findings)

    def test_npu_outside_topology(self):
        t0 = ExecutionTrace(99, [ETNode(0, NodeType.COMPUTE, flops=1)])
        findings = lint_traces({99: t0}, _topo())
        assert any("does not exist" in f for f in findings)


def _lint(ops):
    """Lint a bare op list, which an OpGraph would refuse if it is broken."""
    return lint_op_graph(ops, "dirty")


class TestOpGraphLint:
    @pytest.mark.parametrize("name", sorted(zoo_names()))
    def test_zoo_graphs_are_clean(self, name):
        assert lint_op_graph(zoo_graph(name)) == []

    def test_dangling_dep(self):
        findings = _lint([
            OpNode(0, "a", OpKind.MATMUL, deps=(7,), flops=10)])
        assert any("unknown op 7" in f for f in findings)

    def test_duplicate_ids(self):
        findings = _lint([
            OpNode(0, "a", OpKind.MATMUL, flops=10),
            OpNode(0, "b", OpKind.MATMUL, flops=10)])
        assert any("duplicate op id 0" in f for f in findings)

    def test_zero_cost_op(self):
        findings = _lint([
            OpNode(0, "noop", OpKind.ELEMENTWISE)])
        assert any("contributes no cost" in f for f in findings)

    def test_routed_op_with_payload_is_not_zero_cost(self):
        assert _lint([
            OpNode(0, "expert", OpKind.MATMUL, routed=True,
                   route_bytes=1024)]) == []

    def test_matmul_shape_mismatch(self):
        findings = _lint([
            OpNode(0, "mm", OpKind.MATMUL, flops=999,
                   attrs={"m": 4, "k": 8, "n": 16})])
        assert any("does not match its m/k/n" in f for f in findings)
        assert _lint([
            OpNode(0, "mm", OpKind.MATMUL, flops=matmul_flops(4, 8, 16),
                   attrs={"m": 4, "k": 8, "n": 16})]) == []

    def test_attention_shape_mismatch(self):
        findings = _lint([
            OpNode(0, "attn", OpKind.ATTENTION, flops=5,
                   attrs={"batch": 2, "seq": 16, "hidden": 64})])
        assert any("batch/seq/hidden" in f for f in findings)

    def test_tp_on_replicated_kind(self):
        findings = _lint([
            OpNode(0, "ln", OpKind.NORM, param_bytes=8, tp="col")])
        assert any("replicated, not" in f for f in findings)

    def test_cycle_reported(self):
        findings = _lint([
            OpNode(0, "a", OpKind.MATMUL, deps=(1,), flops=10),
            OpNode(1, "b", OpKind.MATMUL, deps=(0,), flops=10)])
        assert any("cycle" in f for f in findings)

    def test_per_op_validate_errors_are_findings(self):
        # self-dep + negative flops + routed without payload, all reported
        findings = _lint([
            OpNode(0, "self", OpKind.MATMUL, deps=(0,), flops=10),
            OpNode(1, "neg", OpKind.MATMUL, flops=-5),
            OpNode(2, "router", OpKind.MATMUL, flops=10, routed=True)])
        assert any("depends on itself" in f for f in findings)
        assert any("must be >= 0" in f for f in findings)
        assert any("no route_bytes" in f for f in findings)

    def test_every_structural_fault_is_reported(self):
        ops = [OpNode(0, "a", OpKind.MATMUL, deps=(7,), flops=10),
               OpNode(1, "b", OpKind.MATMUL, deps=(2,), flops=10),
               OpNode(2, "c", OpKind.MATMUL, deps=(1,), flops=10)]
        findings = _lint(ops)
        assert findings == [
            "op 0 ('a') depends on unknown op 7",
            "graph 'dirty' contains a cycle involving ops [1, 2]"]
        # One rule set: building a graph raises the linter's first finding.
        with pytest.raises(FrontendError) as exc:
            OpGraph("dirty", ops)
        assert str(exc.value) == findings[0]
