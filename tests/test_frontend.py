"""Unit tests for the model-ingestion frontend (repro.frontend)."""

import json

import pytest

from repro.frontend import (
    FrontendError,
    IngestOptions,
    OpGraph,
    OpGraphBuilder,
    OpKind,
    OpNode,
    PlanConfig,
    build_op_graph,
    default_options_for,
    detect_family,
    ingest,
    load_config,
    loads_opgraph,
    opgraph_from_dict,
    plan,
    resolve_parallelism,
    to_opgraph_json,
    zoo_entries,
    zoo_entry,
    zoo_graph,
    zoo_names,
)
from repro.frontend.ir import attention_flops, matmul_flops
from repro.network import parse_topology
from repro.trace import CollectiveType, NodeType
from repro.validate.frontend import run_frontend_suite
from repro.workload.lint import lint_traces

LLAMA_TINY = {
    "model_type": "llama",
    "hidden_size": 256,
    "num_hidden_layers": 4,
    "num_attention_heads": 8,
    "num_key_value_heads": 2,
    "intermediate_size": 1024,
    "hidden_act": "silu",
    "vocab_size": 1000,
    "max_position_embeddings": 512,
}

MIXTRAL_TINY = {
    "model_type": "mixtral",
    "hidden_size": 256,
    "num_hidden_layers": 2,
    "num_attention_heads": 8,
    "intermediate_size": 512,
    "hidden_act": "silu",
    "num_local_experts": 4,
    "num_experts_per_tok": 2,
    "vocab_size": 1000,
    "max_position_embeddings": 512,
}


class TestIR:
    def test_builder_assigns_sequential_ids(self):
        b = OpGraphBuilder("g")
        a = b.add("a", OpKind.MATMUL, flops=10)
        c = b.add("c", OpKind.NORM, deps=(a,), flops=5)
        graph = b.build()
        assert [op.op_id for op in graph] == [0, 1]
        assert graph.op(c).deps == (a,)

    def test_validate_rejects_dangling_dep(self):
        with pytest.raises(FrontendError, match="unknown op"):
            OpGraph("g", [OpNode(0, "a", OpKind.MATMUL, deps=(9,),
                                 flops=1)])

    def test_validate_rejects_cycle(self):
        with pytest.raises(FrontendError, match="cycle"):
            OpGraph("g", [
                OpNode(0, "a", OpKind.MATMUL, deps=(1,), flops=1),
                OpNode(1, "b", OpKind.MATMUL, deps=(0,), flops=1)])

    def test_validate_rejects_duplicate_ids(self):
        with pytest.raises(FrontendError, match="duplicate"):
            OpGraph("g", [OpNode(0, "a", OpKind.MATMUL, flops=1),
                          OpNode(0, "b", OpKind.MATMUL, flops=1)])

    def test_topological_order_is_deterministic(self):
        graph = OpGraph("g", [
            OpNode(2, "c", OpKind.MATMUL, deps=(0, 1), flops=1),
            OpNode(1, "b", OpKind.MATMUL, flops=1),
            OpNode(0, "a", OpKind.MATMUL, flops=1)])
        assert [op.op_id for op in graph.topological_order()] == [0, 1, 2]

    def test_build_walks_once_and_plan_never(self, monkeypatch):
        import repro.frontend.ir as ir
        real, calls = ir.kahn_order, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ir, "kahn_order", counted)
        graph = zoo_graph("llama3-8b", seq_len=256)
        assert len(calls) == 1
        plan(graph, parse_topology("Ring(2)_Switch(2)", [100, 50]))
        assert len(calls) == 1

    def test_consumers_follow_op_order(self):
        graph = OpGraph("g", [
            OpNode(0, "a", OpKind.MATMUL, flops=1),
            OpNode(2, "c", OpKind.MATMUL, deps=(0,), flops=1),
            OpNode(1, "b", OpKind.MATMUL, deps=(0,), flops=1)])
        assert list(graph.consumers(0)) == [2, 1]
        assert list(graph.consumers(1)) == []

    def test_summary_and_layer_groups(self):
        graph = build_op_graph(LLAMA_TINY, IngestOptions(batch=1, seq_len=64))
        summary = graph.summary()
        assert summary["layers"] == 4
        assert summary["ops"] == len(graph)
        assert summary["tensor_parallel_ops"] > 0
        groups = graph.layer_groups()
        # stem, 4 layers, head
        assert [g[0] for g in groups] == [None, 0, 1, 2, 3, None]


class TestHFConfig:
    def test_load_config_from_dict_string_and_path(self, tmp_path):
        assert load_config(LLAMA_TINY)["model_type"] == "llama"
        assert load_config(json.dumps(LLAMA_TINY))["hidden_size"] == 256
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LLAMA_TINY))
        assert load_config(path)["num_hidden_layers"] == 4

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(FrontendError, match="not found"):
            load_config(tmp_path / "missing.json")
        with pytest.raises(FrontendError, match="not valid JSON"):
            load_config("{broken")
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(FrontendError, match="JSON object"):
            load_config(array)

    def test_detect_family(self):
        assert detect_family(LLAMA_TINY) == "decoder"
        assert detect_family({"model_type": "vit", "patch_size": 16,
                              "image_size": 224}) == "vit"
        assert detect_family({"_class_name": "UNet2DConditionModel"}) == "unet"
        assert detect_family({"num_embedding_tables": 26}) == "dlrm"
        with pytest.raises(FrontendError, match="cannot classify"):
            detect_family({"foo": 1})

    def test_decoder_structure_and_gqa(self):
        graph = build_op_graph(LLAMA_TINY, IngestOptions(batch=2, seq_len=64))
        # embed + 7 ops/layer * 4 layers + final_norm + lm_head
        assert len(graph) == 2 + 7 * 4 + 1
        qkv = next(op for op in graph if op.name == "L0.attn.qkv")
        # GQA: 8 heads, 2 kv heads, head_dim 32 → qkv cols = 256 + 2*64
        assert qkv.flops == matmul_flops(2 * 64, 256, 256 + 2 * 64)
        assert qkv.tp == "col"
        out = next(op for op in graph if op.name == "L0.attn.out")
        assert out.tp == "row"

    def test_decoder_divisibility_errors(self):
        bad = dict(LLAMA_TINY, num_attention_heads=7)
        with pytest.raises(FrontendError, match="not divisible"):
            build_op_graph(bad)
        bad = dict(LLAMA_TINY, num_key_value_heads=3)
        with pytest.raises(FrontendError, match="not divisible"):
            build_op_graph(bad)

    def test_moe_layers_are_routed(self):
        graph = build_op_graph(MIXTRAL_TINY, IngestOptions(batch=1,
                                                           seq_len=32))
        routed = [op for op in graph if op.routed]
        # up + down per layer, 2 layers
        assert len(routed) == 4
        assert all(op.route_bytes > 0 for op in routed)
        up = next(op for op in routed if op.name == "L0.mlp.up")
        # expert-replicated params: 4 experts * 2*inter * hidden * 2B
        assert up.param_bytes == 4 * 2 * 512 * 256 * 2

    def test_default_options_per_family(self):
        assert default_options_for(LLAMA_TINY).batch == 1
        dlrm = default_options_for({"num_embedding_tables": 8})
        assert dlrm.batch == 64 and dlrm.dtype_bytes == 4

    def test_ingest_options_validation(self):
        with pytest.raises(FrontendError):
            IngestOptions(batch=0)
        with pytest.raises(FrontendError):
            IngestOptions(dtype_bytes=0)


class TestOpgraphJSON:
    def test_shape_derived_costs(self):
        graph = loads_opgraph(json.dumps({
            "format": "repro-opgraph", "version": 1, "name": "mlp",
            "ops": [
                {"id": 0, "kind": "matmul", "m": 8, "k": 16, "n": 32,
                 "tp": "col"},
                {"id": 1, "kind": "elementwise", "deps": [0],
                 "elements": 256},
                {"id": 2, "kind": "attention", "deps": [1], "batch": 2,
                 "seq": 8, "hidden": 16},
            ]}))
        assert graph.op(0).flops == matmul_flops(8, 16, 32)
        assert graph.op(0).param_bytes == 16 * 32 * 2
        assert graph.op(1).flops == 256
        assert graph.op(2).flops == attention_flops(2, 8, 16)

    def test_round_trip_preserves_costs(self):
        original = zoo_graph("llama3-8b")
        restored = loads_opgraph(to_opgraph_json(original))
        assert restored.name == original.name
        assert len(restored) == len(original)
        assert restored.total_flops() == original.total_flops()
        assert restored.total_param_bytes() == original.total_param_bytes()
        for a, b in zip(original, restored):
            assert (a.op_id, a.kind, a.deps, a.tp, a.routed) == \
                (b.op_id, b.kind, b.deps, b.tp, b.routed)

    def test_format_and_version_gates(self):
        with pytest.raises(FrontendError, match="not a repro opgraph"):
            opgraph_from_dict({"format": "onnx", "ops": []})
        with pytest.raises(FrontendError, match="version"):
            opgraph_from_dict({"format": "repro-opgraph", "version": 99,
                               "ops": []})

    @pytest.mark.parametrize("op_fields,doc_fields,match", [
        ({"deps": ["a"]}, {}, "op 1: field 'deps' is not an integer"),
        ({"layer": "x"}, {}, "op 1: field 'layer' is not an integer"),
        ({"attrs": [1, 2]}, {}, "op 1: field 'attrs' must be an object"),
        ({"routed": "false", "route_bytes": 8}, {},
         "op 1: field 'routed' must be true or false"),
        ({}, {"dtype_bytes": "two"},
         "opgraph field 'dtype_bytes' is not an integer"),
        ({"m": 4.7}, {}, "op 1: field 'm' is not an integer: 4.7"),
        ({"layer": True}, {}, "op 1: field 'layer' is not an integer: True"),
    ], ids=["deps", "layer", "attrs", "routed", "dtype_bytes",
            "fractional-shape", "boolean-layer"])
    def test_malformed_fields_are_frontend_errors(self, op_fields,
                                                  doc_fields, match):
        doc = {"format": "repro-opgraph", "version": 1, **doc_fields,
               "ops": [{"id": 0, "kind": "matmul", "m": 4, "k": 4, "n": 4},
                       {"id": 1, "kind": "matmul", "m": 4, "k": 4, "n": 4,
                        **op_fields}]}
        with pytest.raises(FrontendError, match=match):
            opgraph_from_dict(doc)

    def test_costless_op_rejected(self):
        with pytest.raises(FrontendError, match="no cost derivable"):
            opgraph_from_dict({
                "format": "repro-opgraph", "version": 1,
                "ops": [{"id": 0, "kind": "matmul"}]})


class TestPlanner:
    def _graph(self):
        return build_op_graph(LLAMA_TINY, IngestOptions(batch=4, seq_len=64))

    def test_auto_resolution_uses_inner_dim_for_tp(self):
        topo = parse_topology("Ring(4)_Switch(2)", [100, 50])
        spec = resolve_parallelism(self._graph(), topo, PlanConfig())
        assert (spec.mp, spec.dp, spec.pp, spec.ep) == (4, 2, 1, 1)

    def test_plan_traces_are_lint_clean_and_sharded(self):
        topo = parse_topology("Ring(4)_Switch(2)", [100, 50])
        graph = self._graph()
        planned = plan(graph, topo, PlanConfig(tp=4, dp=2))
        assert lint_traces(planned.traces, topo) == []
        rep = next(iter(planned.traces.values()))
        compute = sum(n.flops for n in rep if n.node_type is NodeType.COMPUTE)
        # fwd+bwd = 3x fwd; TP=4 shards the parallel ops but norms stay
        # replicated, so per-rank compute sits between 1/4 and 1x.
        assert graph.total_flops() * 3 / 4 <= compute < graph.total_flops() * 3
        # DP gradient All-Reduces are present.
        ars = [n for n in rep if n.collective is CollectiveType.ALL_REDUCE]
        assert ars

    def test_ep_plan_emits_alltoalls(self):
        topo = parse_topology("Ring(2)_Switch(4)", [100, 50])
        graph = build_op_graph(MIXTRAL_TINY, IngestOptions(batch=2,
                                                           seq_len=32))
        planned = plan(graph, topo, PlanConfig(tp=2, ep=4))
        rep = next(iter(planned.traces.values()))
        a2a = [n for n in rep if n.collective is CollectiveType.ALL_TO_ALL]
        assert a2a  # dispatch/combine pairs around every routed op
        assert planned.summary()["parallelism"]["ep"] == 4

    def test_pp_plan_has_stage_sendrecv(self):
        topo = parse_topology("Ring(2)_Switch(2)", [100, 50])
        planned = plan(self._graph(), topo,
                       PlanConfig(tp=1, pp=2, dp=2, microbatches=2))
        assert len(planned.stage_layers) == 2
        sends = [n for t in planned.traces.values() for n in t
                 if n.node_type is NodeType.COMM_SEND]
        assert sends
        assert lint_traces(planned.traces, topo) == []

    def test_overcommitted_degrees_rejected(self):
        topo = parse_topology("Ring(4)", [100])
        with pytest.raises(FrontendError):
            plan(self._graph(), topo, PlanConfig(tp=4, dp=4))

    def test_unknown_schedule_rejected_at_construction(self):
        with pytest.raises(FrontendError, match="unknown pipeline schedule"):
            PlanConfig(schedule="interleaved")


class TestZoo:
    def test_names_and_entries_agree(self):
        names = zoo_names()
        assert set(names) == {e.name for e in zoo_entries()}
        assert {"llama3-8b", "llama-70b", "vit-l16", "unet-sd",
                "dlrm-large", "gpt3-175b-hf"} <= set(names)

    def test_unknown_entry_lists_choices(self):
        with pytest.raises(FrontendError, match="llama3-8b"):
            zoo_entry("nope")

    def test_llama_70b_parameter_count(self):
        graph = zoo_graph("llama-70b")
        # Known ~70B dense decoder; analytic accounting lands within 5%.
        assert abs(graph.total_params() - 70e9) / 70e9 < 0.05

    def test_zoo_graphs_build_and_cost(self):
        for entry in zoo_entries():
            graph = entry.graph()
            assert graph.total_flops() > 0
            assert len(graph) > 3


class TestIngestDispatch:
    def test_zoo_name(self):
        assert ingest("llama3-8b").name == "llama3-8b"

    def test_hf_dict_and_path(self, tmp_path):
        assert ingest(LLAMA_TINY).num_layers == 4
        path = tmp_path / "config.json"
        path.write_text(json.dumps(LLAMA_TINY))
        assert ingest(path).num_layers == 4

    def test_opgraph_payload(self):
        graph = ingest({
            "format": "repro-opgraph", "version": 1, "name": "g",
            "ops": [{"id": 0, "kind": "matmul", "m": 4, "k": 4, "n": 4}]})
        assert graph.name == "g" and len(graph) == 1


class TestExampleFixtures:
    @pytest.mark.parametrize("fixture", [
        "examples/llama_70b_config.json",
        "examples/mixtral_8x7b_config.json",
        "examples/tiny_opgraph.json",
    ])
    def test_example_specs_ingest_cleanly(self, fixture):
        from pathlib import Path

        from repro.workload.lint import lint_op_graph
        root = Path(__file__).resolve().parents[1]
        graph = ingest(root / fixture)
        assert lint_op_graph(graph) == []
        assert graph.total_flops() > 0


class TestFrontendConformance:
    def test_quick_suite_passes(self):
        report = run_frontend_suite(quick=True)
        failed = [c for c in report.cases if not c.passed]
        assert report.passed, failed
        axes = {c.axis for c in report.cases}
        assert "gpt3-twin" in axes and "zoo" in axes
        doc = report.to_dict()
        assert doc["passed"] is True
        assert len(doc["cases"]) == len(report.cases)


class TestCLIIngest:
    def test_list_models(self, capsys):
        from repro.cli import main
        assert main(["ingest", "--list-models"]) == 0
        out = capsys.readouterr().out
        for name in zoo_names():
            assert name in out

    def test_ingest_summary_and_lint(self, capsys):
        from repro.cli import main
        assert main(["ingest", "llama3-8b", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "llama3-8b" in out
        assert "lint" in out.lower()

    def test_lint_reports_every_structural_fault(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "dirty.json"
        path.write_text(json.dumps({
            "format": "repro-opgraph", "version": 1, "name": "dirty",
            "ops": [
                {"id": 0, "kind": "matmul", "flops": 8, "deps": [7]},
                {"id": 1, "kind": "matmul", "flops": 8, "deps": [2]},
                {"id": 2, "kind": "matmul", "flops": 8, "deps": [1]}]}))
        assert main(["ingest", str(path), "--lint"]) == 1
        out = capsys.readouterr().out
        assert "lint     : 2 finding(s)" in out
        assert "op 0 ('op0') depends on unknown op 7" in out
        assert "graph 'dirty' contains a cycle involving ops [1, 2]" in out
        assert "model    :" not in out

    def test_ingest_export_and_reingest(self, tmp_path, capsys):
        from repro.cli import main
        out_path = tmp_path / "llama.opgraph.json"
        assert main(["ingest", "llama3-8b", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["ingest", str(out_path)]) == 0
        assert "llama3-8b" in capsys.readouterr().out

    def test_ingest_emit_traces(self, tmp_path, capsys):
        from repro.cli import main
        code = main([
            "ingest", "llama3-8b", "--seq-len", "128",
            "--emit-traces", str(tmp_path), "--topology", "Ring(2)",
            "--bandwidths", "100", "--mp", "1", "--dp", "2"])
        assert code == 0
        files = list(tmp_path.glob("*.json"))
        assert files
        from repro.trace import load_trace
        trace = load_trace(files[0])
        assert len(trace) > 0

    def test_run_with_model_flag(self, capsys):
        from repro.cli import main
        code = main([
            "run", "--model", "llama3-8b", "--seq-len", "128",
            "--topology", "Ring(2)_Switch(2)", "--bandwidths", "100,50",
            "--mp", "2", "--dp", "2"])
        assert code == 0
        assert "ingest:llama3-8b" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,label", [
        (["run"], "workload : ingest:llama3-8b "),
        (["validate", "--suite", "invariants"],
         "Ring(2)_Switch(2)/ingest:llama3-8b)"),
    ], ids=["run", "validate"])
    def test_model_is_ingested_once(self, argv, label, monkeypatch, capsys):
        import repro.frontend
        from repro.cli import main
        real = repro.frontend.build_op_graph
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.frontend, "build_op_graph", counted)
        assert main(argv + [
            "--model", "llama3-8b", "--seq-len", "128",
            "--topology", "Ring(2)_Switch(2)", "--bandwidths", "100,50",
            "--mp", "2", "--dp", "2"]) == 0
        assert len(calls) == 1
        assert label in capsys.readouterr().out

    def test_run_rejects_model_and_model_json_together(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--model", "llama3-8b", "--model-json", "x.json",
                  "--topology", "Ring(2)", "--bandwidths", "100"])
