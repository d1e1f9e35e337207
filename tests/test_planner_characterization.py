"""Characterization: the planner's and pipeline generators' traces, pinned.

Every trace :func:`repro.frontend.plan` emits over a grid of zoo models,
topologies and parallelizations (TP, PP, EP, GPipe/1F1B, microbatches,
two iterations), plus the builtin :func:`generate_pipeline_parallel` and
:func:`generate_megatron_hybrid` traces, is serialized with
:func:`repro.trace.serialization.dumps_trace` and pinned by sha256.  A
refactor of the lowering must leave every digest unchanged.

The layered zoo decoders are cut to four layers so the grid stays fast;
one full-size Llama-70B plan keeps the real layer count covered.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend import PlanConfig, plan, zoo_entry
from repro.frontend.hf_config import build_op_graph
from repro.network import parse_topology
from repro.trace.serialization import dumps_trace
from repro.workload import (
    ParallelismSpec,
    generate_megatron_hybrid,
    generate_pipeline_parallel,
)
from repro.workload.models import TransformerSpec

_MIXTRAL = Path(__file__).resolve().parents[1] / "examples" / \
    "mixtral_8x7b_config.json"

_TOPOLOGIES = {
    "r2r2s2": ("Ring(2)_Ring(2)_Switch(2)", [200, 100, 50]),
    "r2s4": ("Ring(2)_Switch(4)", [100, 50]),
    "s512": ("Switch(512)", [100]),
}

_LAYER_KEY = {"llama3-8b": "num_hidden_layers", "llama-70b": "num_hidden_layers",
              "vit-l16": "num_hidden_layers", "gpt3-175b-hf": "n_layer"}


def _graph(name, layers=4):
    if name == "mixtral":
        config = json.loads(_MIXTRAL.read_text())
        config["num_hidden_layers"] = layers
        return build_op_graph(config)
    entry = zoo_entry(name)
    config = dict(entry.config)
    if name in _LAYER_KEY and layers:
        config[_LAYER_KEY[name]] = layers
    graph = build_op_graph(config, entry.options)
    graph.name = name
    return graph


def _digest(traces):
    h = hashlib.sha256()
    for npu in sorted(traces):
        h.update(f"{npu}\n{dumps_trace(traces[npu])}\n".encode())
    return h.hexdigest()


def _plan_configs(routed):
    """The (tp, pp, ep, schedule, microbatches) grid, plus auto degrees."""
    yield "auto", PlanConfig(iterations=2)
    for tp in (1, 2):
        for ep in ((1, 2) if routed else (1,)):
            yield f"tp{tp}-ep{ep}", PlanConfig(tp=tp, ep=ep, iterations=2)
            if not routed or routed == "layered":
                for schedule in ("gpipe", "1f1b"):
                    for mb in (1, 3):
                        yield (f"tp{tp}-ep{ep}-pp2-{schedule}-mb{mb}",
                               PlanConfig(tp=tp, ep=ep, pp=2,
                                          schedule=schedule,
                                          microbatches=mb, iterations=2))


def _planner_cases():
    cases = {}
    models = (("llama3-8b", None), ("llama-70b", None), ("vit-l16", None),
              ("unet-sd", None), ("gpt3-175b-hf", None),
              ("dlrm-large", "flat"), ("mixtral", "layered"))
    for model, routed in models:
        for label, config in _plan_configs(routed):
            cases[f"{model}-r2r2s2-{label}"] = (model, 4, "r2r2s2", config)
    for model in ("llama3-8b", "mixtral", "dlrm-large"):
        cases[f"{model}-r2s4-tp2"] = (
            model, 4, "r2s4", PlanConfig(tp=2, iterations=2))
        # tp=4 straddles the Ring(2)/Switch(4) boundary: flat groups.
        cases[f"{model}-r2s4-tp4-flat"] = (
            model, 4, "r2s4", PlanConfig(tp=4, iterations=2))
    for model in ("llama3-8b", "gpt3-175b-hf"):
        cases[f"{model}-s512-tp16-flat"] = (
            model, 4, "s512", PlanConfig(tp=16, iterations=2))
    cases["llama-70b-full-r2r2s2-tp2-pp2-1f1b-mb2"] = (
        "llama-70b", 0, "r2r2s2",
        PlanConfig(tp=2, pp=2, microbatches=2, iterations=2))
    return cases


_PLANNER_CASES = _planner_cases()


def _generator_cases():
    model = TransformerSpec("tiny", num_layers=8, hidden=64, seq_len=32,
                            batch_per_replica=2)
    cases = {}
    for schedule in ("gpipe", "1f1b"):
        for topo, spec in (("r2r2s2", ParallelismSpec(mp=2, pp=2, dp=2)),
                           ("r2s4", ParallelismSpec(pp=2, dp=4))):
            cases[f"pipeline-{topo}-{spec.mp}x{spec.pp}x{spec.dp}-{schedule}"] = (
                generate_pipeline_parallel,
                (model, topo, spec),
                {"microbatches": 3, "iterations": 2, "schedule": schedule})
    for topo, spec in (("r2r2s2", ParallelismSpec(mp=2, dp=4)),
                       ("r2s4", ParallelismSpec(mp=4, dp=2)),
                       ("s512", ParallelismSpec(mp=16, dp=32))):
        cases[f"megatron-{topo}-{spec.mp}x{spec.dp}"] = (
            generate_megatron_hybrid, (model, topo, spec), {"iterations": 2})
    return cases


_GENERATOR_CASES = _generator_cases()


def _topology(key):
    notation, bandwidths = _TOPOLOGIES[key]
    return parse_topology(notation, bandwidths)


@pytest.mark.parametrize("case", sorted(_PLANNER_CASES))
def test_planned_traces_are_pinned(case):
    model, layers, topo, config = _PLANNER_CASES[case]
    traces = plan(_graph(model, layers), _topology(topo), config).traces
    assert _digest(traces) == _PINS[case]


@pytest.mark.parametrize("case", sorted(_GENERATOR_CASES))
def test_generated_traces_are_pinned(case):
    generate, (model, topo, spec), kwargs = _GENERATOR_CASES[case]
    traces = generate(model, _topology(topo), spec, **kwargs)
    assert _digest(traces) == _PINS[case]


_PINS = {
    "dlrm-large-r2r2s2-auto":
        "e1dee5916942f81fad9414d2fb6588986f7a372250bf07b65f2aee9e5f34852d",
    "dlrm-large-r2r2s2-tp1-ep1":
        "e1dee5916942f81fad9414d2fb6588986f7a372250bf07b65f2aee9e5f34852d",
    "dlrm-large-r2r2s2-tp1-ep2":
        "0cb6714be0f9c4ed62d1845159adbac3e472f1750a692228f88e4cb06cf3100d",
    "dlrm-large-r2r2s2-tp2-ep1":
        "0dddafe75a0eed5fc421199374a21246f5b9a1f9f3affa049b5766ce97c867cd",
    "dlrm-large-r2r2s2-tp2-ep2":
        "d5cc04a3e1d81116580e316d23649fc8100af68dbd171c0eb929d9c43cfb37eb",
    "dlrm-large-r2s4-tp2":
        "1aede09cd78f5109313c10d9fc9e7f97481d5f2b365c145107c07aa8b6d94c1b",
    "dlrm-large-r2s4-tp4-flat":
        "7f30a00385c085e9b871ee95aa673b565ddecf17ed192a65b86a6a6c764db42c",
    "gpt3-175b-hf-r2r2s2-auto":
        "7c5b70673004d04c628f0f4fe9468d2ca61cd3e262f14235361c734e3de7a979",
    "gpt3-175b-hf-r2r2s2-tp1-ep1":
        "4cc9f8e2b37acca952163d2c6ee68a5157fcc0f7ac71aa3b778f4f040704222c",
    "gpt3-175b-hf-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "499d12042ca37e9c86c65620d61d9345dbfef1e01aa80e7d301c020c7d33b08f",
    "gpt3-175b-hf-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "dc33521e7d20b479964bafcd2717602bc1a309ea7f4e7e5d97b059fbda06f87e",
    "gpt3-175b-hf-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "499d12042ca37e9c86c65620d61d9345dbfef1e01aa80e7d301c020c7d33b08f",
    "gpt3-175b-hf-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "6d979b9653762b94251558d695ef27cb11aba91c08e9879cd4a709ab19cfd0d1",
    "gpt3-175b-hf-r2r2s2-tp2-ep1":
        "7c5b70673004d04c628f0f4fe9468d2ca61cd3e262f14235361c734e3de7a979",
    "gpt3-175b-hf-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "ee7a8d0b04147d6c1e9c6010e51cd9e492247ff158f5248407eb3a2f75f0484f",
    "gpt3-175b-hf-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "f29b6c637e1cfc9db8b0454b78bf68d7e578dbb811aff0bb39ca1faa0b9e4689",
    "gpt3-175b-hf-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "ee7a8d0b04147d6c1e9c6010e51cd9e492247ff158f5248407eb3a2f75f0484f",
    "gpt3-175b-hf-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "c61f947eebd863ba919154d1073ee974507eb91f3e672498948078412cfcc058",
    "gpt3-175b-hf-s512-tp16-flat":
        "00bb167b86ec962ec8c10789ee66d9a6b6b40cc277f5aec6a0b151fb95330be0",
    "llama-70b-full-r2r2s2-tp2-pp2-1f1b-mb2":
        "714fce399894a0cf6d41d39b2114237eb5a71b5abf5f36f7e0d043ff5ae829ef",
    "llama-70b-r2r2s2-auto":
        "ce9118e1613bf5715913f5e57220a3124dfcc88b7d422e9dd3da99dae4684f1f",
    "llama-70b-r2r2s2-tp1-ep1":
        "4f14744b1d3df77b03434b83f1d0d2a692bf32f0f0563e5bf710d954cebcd378",
    "llama-70b-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "afc90a714188ac4ade8ec7510d358f9d319dbd26d3d8d28c545475f2d723b06e",
    "llama-70b-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "0986d6d397804cec5985e8e5021af40f9cbbd1bd191fa88bd78a9ed9b1babdd9",
    "llama-70b-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "afc90a714188ac4ade8ec7510d358f9d319dbd26d3d8d28c545475f2d723b06e",
    "llama-70b-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "5887789d15675f677a0a12f89c2ec672318708b93dbc1d8786ae61446f966b82",
    "llama-70b-r2r2s2-tp2-ep1":
        "ce9118e1613bf5715913f5e57220a3124dfcc88b7d422e9dd3da99dae4684f1f",
    "llama-70b-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "4737e44b82ff6106f1ebe170e55617d7c778c259a02ec5a2521bff7b8ca77442",
    "llama-70b-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "0ab9fc9d7ce36f690fcd57b4a0fbbf4798fc54eb3d173a25ed192f42ebe725e6",
    "llama-70b-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "4737e44b82ff6106f1ebe170e55617d7c778c259a02ec5a2521bff7b8ca77442",
    "llama-70b-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "e0f65912749aa209612c9821648b2f88b6faaec4b3f4967808fa4ee233c4446e",
    "llama3-8b-r2r2s2-auto":
        "5084d57d3097060762283ff33fce146384a83293519dbef408a7637abe70213d",
    "llama3-8b-r2r2s2-tp1-ep1":
        "8e379fbd64f9d5718df7d20a6911ee391b6c262b68333216077be7a9c1a7789a",
    "llama3-8b-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "45f03498fd409b1b7a36e86c74e31b492c2af077516124fb4c49a7602ebf18eb",
    "llama3-8b-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "a7c5143d7b9a35c7ee828c8f1a6e773ba3a1b81e50386c6acfa4dc1be6b7b300",
    "llama3-8b-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "45f03498fd409b1b7a36e86c74e31b492c2af077516124fb4c49a7602ebf18eb",
    "llama3-8b-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "2fbdecea0e88ffd26f21ea2337a7c1d9b3f5f2915d963c913f3c02982c2799e2",
    "llama3-8b-r2r2s2-tp2-ep1":
        "5084d57d3097060762283ff33fce146384a83293519dbef408a7637abe70213d",
    "llama3-8b-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "90d05aad16d8e3d74e3ef1ce7c1e5112a28bef2b5f9d7556c2d21d35001c385b",
    "llama3-8b-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "1a9286d711f5aa4172ca0e147f6dc72f1c245bfd6aa0386293df8975bd8aee59",
    "llama3-8b-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "90d05aad16d8e3d74e3ef1ce7c1e5112a28bef2b5f9d7556c2d21d35001c385b",
    "llama3-8b-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "f72751f71545ef2a32dfbaac9ed15978424fee7c036954e4ac12e51ae58ba521",
    "llama3-8b-r2s4-tp2":
        "6f62416b182539114e5f34d3978a50a539a2d89947979334e52dfbc482ef1b21",
    "llama3-8b-r2s4-tp4-flat":
        "cd4d35749a310861be79d25ba216888b78635d0ac98140097e310b0cbe722157",
    "llama3-8b-s512-tp16-flat":
        "ad66bdcd92839d03f45067e342754d7d1fde81f49cb6b558e19130dd3ac4d6c1",
    "megatron-r2r2s2-2x4":
        "35076ea3afe286f4b8da8bc8d57301c12303a75a69b83713183a8d804d45554b",
    "megatron-r2s4-4x2":
        "ab53a3eaa0ce27cbb70335a22cdfa015c235082601faa1e2566a7ecfe00fbed8",
    "megatron-s512-16x32":
        "2a07df38342c07753e5a50ae381903ab42bb9e8babd34957075ff1a6be979213",
    "mixtral-r2r2s2-auto":
        "b64c13a955369f41230294d090a8bad3dafef922f4bf0675f701c2e928ce2b0f",
    "mixtral-r2r2s2-tp1-ep1":
        "b1477ccf76baa78c16ce39326d9beca652de07d6ca67ddcfae1e82f1092e9c42",
    "mixtral-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "205fbdd12af8bfe840af695e3fe82e22580f572549dff9fe79b98a4fcdf1727c",
    "mixtral-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "65a9627a2903e485e95f0e6a2605937c408f3d1e4ebcfe01ede80ff3e789637a",
    "mixtral-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "205fbdd12af8bfe840af695e3fe82e22580f572549dff9fe79b98a4fcdf1727c",
    "mixtral-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "3083b296a42b77f8d3af3a5db7408828c76ac6b6af99ecaf55fc6c9728169e40",
    "mixtral-r2r2s2-tp1-ep2":
        "5b9d475d5ec3cdbb2c8bb5c078866349ac2b2757c77d32f9e2d483c3584faf50",
    "mixtral-r2r2s2-tp1-ep2-pp2-1f1b-mb1":
        "bdcea208935435a6f5ee7c4a997eb0e81d79627815327bc2f4eef7a6284867a7",
    "mixtral-r2r2s2-tp1-ep2-pp2-1f1b-mb3":
        "3c95471e158802af94c2834d326d28604a9c6b631a7512d35e324580702f72a3",
    "mixtral-r2r2s2-tp1-ep2-pp2-gpipe-mb1":
        "bdcea208935435a6f5ee7c4a997eb0e81d79627815327bc2f4eef7a6284867a7",
    "mixtral-r2r2s2-tp1-ep2-pp2-gpipe-mb3":
        "10c8e1a455d64395299d6caf22870df2e272cd05b745fb97f0aed64fa83d80a0",
    "mixtral-r2r2s2-tp2-ep1":
        "b64c13a955369f41230294d090a8bad3dafef922f4bf0675f701c2e928ce2b0f",
    "mixtral-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "7b296edb5973e5e70a7a0c9e048bbe007c82392ad5c8ea6e6e86a3b84c72017e",
    "mixtral-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "786ce5d5548d520632bba85ffce98d40ea528fbc731d1bff30a57397d6b7c4c5",
    "mixtral-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "7b296edb5973e5e70a7a0c9e048bbe007c82392ad5c8ea6e6e86a3b84c72017e",
    "mixtral-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "fbf388254f5a44705b291fdd95f3da228dbe7bdda39abaec04743c2c146d0aae",
    "mixtral-r2r2s2-tp2-ep2":
        "62250996e9b1e459ad910d539e111e1c37fa200976f0a9b428713e3032e3f8eb",
    "mixtral-r2r2s2-tp2-ep2-pp2-1f1b-mb1":
        "ba928bb52a66b196e85b95f90b9eebe910fc4e905f5b2144412378c73a66a8e6",
    "mixtral-r2r2s2-tp2-ep2-pp2-1f1b-mb3":
        "44a4525f152e79e910706bd7b3663e2f3f40225172a9abb1d61b6f8421713815",
    "mixtral-r2r2s2-tp2-ep2-pp2-gpipe-mb1":
        "ba928bb52a66b196e85b95f90b9eebe910fc4e905f5b2144412378c73a66a8e6",
    "mixtral-r2r2s2-tp2-ep2-pp2-gpipe-mb3":
        "30c7a37f505a694e9989e0a43923aaac58116745e323e61bbc6727668d4dc113",
    "mixtral-r2s4-tp2":
        "118f67ed4705ec4fb8d2b43b548a47c553067471d0aad18817ab896a55aa243f",
    "mixtral-r2s4-tp4-flat":
        "575f308b15e7ceab88adae5c6ed722548797987e23064db7f5234127c91ac0a3",
    "pipeline-r2r2s2-2x2x2-1f1b":
        "44a681e6777a58069bc6eb5ac1cb4811f8a35e9c44ec33630f15ef3f6b1ba8d8",
    "pipeline-r2r2s2-2x2x2-gpipe":
        "d7ee800f9f74ca7b98c397096433dfa25d8996b757760d49c45a3ef333c0368d",
    "pipeline-r2s4-1x2x4-1f1b":
        "13385069cb38110e2fe14ea7b99367de289c585475122c928842fcc170ca83d9",
    "pipeline-r2s4-1x2x4-gpipe":
        "76c7450de70eba726e53d753f2f3fa75b30b5301d3ed25ec55dd3db5cda8dd7b",
    "unet-sd-r2r2s2-auto":
        "649acbaf7ebe5b9fe5fa947a940d07a017c0462b348d226e48b475ca2e29d84d",
    "unet-sd-r2r2s2-tp1-ep1":
        "522d36216ac236e7571cbdf773a9eb0172144a9c8e24b72ae02bcb5c5f403867",
    "unet-sd-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "79c0115d90c79b33a4feb9561b4b1dec33a7bdb15c8a91a87f8967866b18fba1",
    "unet-sd-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "219a0b5560cb4759f0cd37e679b77d8d76e6969925fac5f04733ba5b57517216",
    "unet-sd-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "79c0115d90c79b33a4feb9561b4b1dec33a7bdb15c8a91a87f8967866b18fba1",
    "unet-sd-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "cd50b93189edb2b4fb7243bdcd63d193ba9461dda17391242f74bf25b9382ead",
    "unet-sd-r2r2s2-tp2-ep1":
        "649acbaf7ebe5b9fe5fa947a940d07a017c0462b348d226e48b475ca2e29d84d",
    "unet-sd-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "5eaa9ada1788873539fd1ea463436c557e19451defce9e27043db2895ff0bc4c",
    "unet-sd-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "e1e46f930e08b461f739c100b6dfc69c832c1e84582e0ff711b3e0471d9322e3",
    "unet-sd-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "5eaa9ada1788873539fd1ea463436c557e19451defce9e27043db2895ff0bc4c",
    "unet-sd-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "7ab999faa43bb87a204e15dff4ea3127e2bffcd914f8c57e23ca3b868292e078",
    "vit-l16-r2r2s2-auto":
        "5d08f27085ef6e23af9f3a6bf5055af341c27c379edc2e28cedfb3f2531046ac",
    "vit-l16-r2r2s2-tp1-ep1":
        "db2a36197e57c708ab2c022a963793acfa96a5b4ebaf5e4d330c5e69f36d8f10",
    "vit-l16-r2r2s2-tp1-ep1-pp2-1f1b-mb1":
        "489ff97c4732efc9688a281cc9c8ba18f153e9d32125bfb5062363248465e8a3",
    "vit-l16-r2r2s2-tp1-ep1-pp2-1f1b-mb3":
        "53c5d7568fe7f94920715b0e7fb98302556ade6fb8acc0480d2408cb30c89acf",
    "vit-l16-r2r2s2-tp1-ep1-pp2-gpipe-mb1":
        "489ff97c4732efc9688a281cc9c8ba18f153e9d32125bfb5062363248465e8a3",
    "vit-l16-r2r2s2-tp1-ep1-pp2-gpipe-mb3":
        "1468d0ac13f214f3aa397bda1468070ca83e7828cc5ef45546aac8a49c4381d4",
    "vit-l16-r2r2s2-tp2-ep1":
        "5d08f27085ef6e23af9f3a6bf5055af341c27c379edc2e28cedfb3f2531046ac",
    "vit-l16-r2r2s2-tp2-ep1-pp2-1f1b-mb1":
        "e3b6aa1861360bfcd9ae38fbf3a5ddc86357af11f5dd4980a36fadda420d801d",
    "vit-l16-r2r2s2-tp2-ep1-pp2-1f1b-mb3":
        "fc634110caf17a0c7031f4e90ad38655a4b1213fcf5f398517ccd538835a562c",
    "vit-l16-r2r2s2-tp2-ep1-pp2-gpipe-mb1":
        "e3b6aa1861360bfcd9ae38fbf3a5ddc86357af11f5dd4980a36fadda420d801d",
    "vit-l16-r2r2s2-tp2-ep1-pp2-gpipe-mb3":
        "0fa32f9e85da1a0f59cb8bc5ec28f4765a7c8af7a1da64f1033a2cd3d61ccfee",
}
