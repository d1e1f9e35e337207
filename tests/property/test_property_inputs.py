"""Property: a mutated input either loads and round-trips or raises InputError.

One mutation strategy serves every loader: take a valid document, then
replace, delete or add values at random places with values drawn from
``JUNK`` (wrong numbers such as NaN, infinities, ``2.7``, ``True`` and
``"3"``, and wrong types).  Each loader must then either return a result
that round-trips through its writer, or raise
:class:`~repro.errors.InputError`.  Nothing else (``TypeError``,
``KeyError``, ``AttributeError``, a bare ``ValueError``) may escape.

The run fields are also parsed alike on every entry point: a flag, a
``--grid`` value and a JSON value go through the same normalizer.
"""

import argparse
import copy
import json
import math
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import ServeConfig, serve_in_thread
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import SweepSpec, canonical_json
from repro.errors import InputError
from repro.faults import FaultSchedule
from repro.frontend import (
    build_op_graph,
    load_config,
    opgraph_from_dict,
    zoo_entry,
)
from repro.frontend.hf_config import IngestOptions
from repro.frontend.opgraph_json import to_opgraph_json
from repro.network import parse_topology
from repro.runspec import (
    RUN_FIELDS,
    PointConfigError,
    add_run_flags,
    integer,
    integer_or_none,
    normalize_point,
    number,
    number_list,
    number_or_inf,
)
from repro.trace import dumps_trace, loads_trace
from repro.trace.converters import (
    convert_flexflow_taskgraph,
    convert_pytorch_eg,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

JUNK = st.sampled_from([
    None, True, False, 0, 1, -1, 3, 4.0, 2.7, -0.5,
    math.nan, math.inf, -math.inf, "", "x", "3", "Ring",
    [], [1], [1.5], ["a"], {}, {"k": 1},
])

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _keys(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _keys(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


@st.composite
def mutated(draw, valid):
    """``valid`` with one to three random replacements, deletions or additions."""
    doc = copy.deepcopy(valid)
    keys = sorted(set(_keys(valid)) | {"extra"})
    junk = JUNK.map(copy.deepcopy)  # never share a drawn list or dict
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            if action == "replace":
                doc = draw(junk)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        target = parent[path[-1]]
        if action == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(keys))] = draw(junk)
        elif action == "add" and isinstance(target, list):
            target.append(draw(junk))
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(junk)
    return doc


def _loads_or_input_error(load, doc):
    """``load(doc)``, or ``None`` when it raises InputError; else re-raise."""
    try:
        return load(doc)
    except InputError:
        return None


# -- ET JSON and the two converters -------------------------------------------------

TRACE = {
    "format": "astra-sim-et", "version": 1, "npu_id": 2,
    "nodes": [
        {"id": 0, "type": "compute", "name": "fwd", "flops": 2000,
         "tensor_bytes": 64, "attrs": {"layer": 0}},
        {"id": 1, "type": "comm_collective", "collective": "all_reduce",
         "deps": [0], "tensor_bytes": 4096, "comm_dims": [0, 1],
         "involved_npus": [0, 1, 2, 3]},
        {"id": 2, "type": "comm_send", "deps": [1], "tensor_bytes": 128,
         "peer": 3, "tag": 7},
        {"id": 3, "type": "memory_load", "deps": [0], "tensor_bytes": 256,
         "location": "remote"},
    ],
}

PYTORCH_EG = {
    "schema": "pytorch-eg", "rank": 1,
    "nodes": [
        {"id": 1, "name": "aten::mm", "inputs": [100, 101], "outputs": [102],
         "flops": 8192, "tensor_bytes": 4096},
        {"id": 2, "name": "autograd::engine", "inputs": [102],
         "outputs": [103]},
        {"id": 3, "name": "nccl:all_reduce", "inputs": [103],
         "outputs": [104], "tensor_bytes": 4096, "comm_dims": [0]},
        {"id": 4, "name": "nccl:send", "inputs": [104], "outputs": [],
         "tensor_bytes": 64, "peer": 0, "tag": 1, "ctrl_deps": [1]},
        {"id": 5, "name": "aten::copy_", "inputs": [102], "outputs": [105],
         "tensor_bytes": 512, "location": "remote", "direction": "store"},
    ],
}

FLEXFLOW = {
    "schema": "flexflow-taskgraph", "device": 2,
    "tasks": [
        {"task_id": 0, "kind": "task", "name": "linear", "deps": [],
         "flops": 1000000, "bytes": 4096},
        {"task_id": 1, "kind": "allreduce", "deps": [0], "bytes": 8192,
         "comm_dims": [0]},
        {"task_id": 2, "kind": "send", "deps": [1], "bytes": 64, "peer": 3,
         "tag": 5},
        {"task_id": 3, "kind": "load", "deps": [], "bytes": 16,
         "location": "remote"},
    ],
}


def _assert_trace_round_trips(trace):
    text = dumps_trace(trace)
    assert dumps_trace(loads_trace(text)) == text


@SETTINGS
@given(mutated(TRACE))
def test_trace_json(doc):
    trace = _loads_or_input_error(loads_trace, json.dumps(doc))
    if trace is not None:
        _assert_trace_round_trips(trace)


@SETTINGS
@given(mutated(PYTORCH_EG))
def test_pytorch_eg(doc):
    trace = _loads_or_input_error(convert_pytorch_eg, doc)
    if trace is not None:
        _assert_trace_round_trips(trace)


@SETTINGS
@given(mutated(FLEXFLOW))
def test_flexflow_taskgraph(doc):
    trace = _loads_or_input_error(convert_flexflow_taskgraph, doc)
    if trace is not None:
        _assert_trace_round_trips(trace)


# -- op graphs and HF configs --------------------------------------------------------

OPGRAPH = json.loads((EXAMPLES / "tiny_opgraph.json").read_text())
OPGRAPH["ops"] += [
    {"id": 3, "kind": "attention", "deps": [2], "batch": 2, "seq": 16,
     "hidden": 64, "layer": 1},
    {"id": 4, "kind": "conv", "deps": [3], "c_in": 3, "c_out": 8, "h": 8},
    {"id": 5, "kind": "embedding", "rows": 100, "dim": 16, "tokens": 4,
     "routed": True, "route_bytes": 64, "attrs": {"experts": 2}},
    {"id": 6, "kind": "norm", "deps": [4, 5], "elements": 256,
     "flops": 99, "param_bytes": 8},
]


def _assert_graph_round_trips(graph):
    text = to_opgraph_json(graph)
    assert to_opgraph_json(opgraph_from_dict(json.loads(text))) == text


@SETTINGS
@given(mutated(OPGRAPH))
def test_opgraph_json(doc):
    graph = _loads_or_input_error(opgraph_from_dict, doc)
    if graph is not None:
        _assert_graph_round_trips(graph)


def _hf_config(name, **overrides):
    return {**zoo_entry(name).config, **overrides}


HF_CONFIGS = [
    json.loads((EXAMPLES / "mixtral_8x7b_config.json").read_text()),
    _hf_config("llama3-8b", num_hidden_layers=2),
    _hf_config("vit-l16", num_hidden_layers=2),
    _hf_config("unet-sd"),
    _hf_config("dlrm-large"),
]
HF_CONFIGS[0]["num_hidden_layers"] = 2


@SETTINGS
@given(st.sampled_from(HF_CONFIGS).flatmap(mutated))
def test_hf_config(config):
    graph = _loads_or_input_error(
        lambda c: build_op_graph(load_config(json.dumps(c)),
                                 IngestOptions(seq_len=64)), config)
    if graph is not None:
        _assert_graph_round_trips(graph)


# -- topology strings and their bandwidth / latency lists ---------------------------

PART = st.sampled_from([
    "Ring(4)", "FC(2)", "Switch(8)", "sw(2)", " Ring ( 2 ) ", "Ring(0)",
    "Foo(4)", "Ring", "Ring(4", "Ring(-2)", "", " ", "Ring(2.5)",
])
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 500),
    JUNK)


@SETTINGS
@given(st.lists(PART, min_size=1, max_size=3).map("_".join),
       st.lists(NUMBER, min_size=1, max_size=3),
       st.lists(NUMBER, max_size=3))
def test_topology_string(notation, bandwidths, latencies):
    topology = _loads_or_input_error(
        lambda _: parse_topology(notation, bandwidths, latencies), None)
    if topology is not None:
        dims = topology.dims
        again = parse_topology(topology.notation(),
                               [d.bandwidth_gbps for d in dims],
                               [d.latency_ns for d in dims])
        assert again.dims == dims


# -- POST /run bodies ------------------------------------------------------------------

POINT = {"topology": "Ring(4)_Switch(2)", "bandwidths": [100, 50],
         "latencies": "500,250", "workload": "allreduce", "payload_mib": 64,
         "scheduler": "themis", "chunks": 8, "inswitch": False,
         "faults": ["straggler@npu1:1.5x@t=1ms"], "fault_seed": None}


NUMBER_FIELDS = {f.name for f in RUN_FIELDS
                 if f.normalize in (integer, integer_or_none, number,
                                    number_or_inf)}


@SETTINGS
@given(mutated(POINT))
def test_run_body(body):
    point = _loads_or_input_error(normalize_point, body)
    if point is not None:
        assert canonical_json(normalize_point(point)) == canonical_json(point)
        for name, value in body.items():
            # A number is kept as given: never truncated, never a boolean.
            if name in NUMBER_FIELDS and not isinstance(value, str):
                assert not isinstance(value, bool) and point[name] == value
            if name in ("bandwidths", "latencies") and isinstance(value, list):
                assert not any(isinstance(v, bool) for v in value)


# -- run flags and JSON/grid values: one parser ---------------------------------------

FLAG_TEXTS = ["4", "4.0", "4.7", "nan", "inf", "true", ""]
REJECTED = "<rejected>"


def _via_flag(name, text):
    parser = argparse.ArgumentParser(exit_on_error=False)
    add_run_flags(parser, [name])
    try:
        args = parser.parse_args([f"--{name.replace('_', '-')}={text}"])
    except argparse.ArgumentError:
        return REJECTED
    if name == "bandwidths" and args.bandwidths == "":
        return REJECTED  # no bandwidths: a run rejects it, as a point does
    return getattr(args, name)


def _via_point(name, text):
    try:
        return normalize_point(
            {"topology": "Ring(4)", "bandwidths": "100", name: text})[name]
    except PointConfigError:
        return REJECTED


@pytest.mark.parametrize("name, text", [
    (f.name, text) for f in RUN_FIELDS
    if f.name in NUMBER_FIELDS or f.normalize is number_list
    for text in FLAG_TEXTS + ["100,25,"] * (f.normalize is number_list)])
def test_flag_and_point_parse_alike(name, text):
    assert _via_flag(name, text) == _via_point(name, text)


# -- fault-spec text -------------------------------------------------------------------

FAULT_TEXT = st.one_of(
    st.builds(
        lambda kind, target, clauses: "@".join([kind, target] + clauses),
        st.sampled_from(["straggler", "stall", "fail", "degrade",
                         "linkdown", "STALL", "bogus", ""]),
        st.sampled_from(["npu3:1.5x", "npu0", "dim0:0.5x", "dim1:link2",
                         "dim0:link1:0.25x", "npu1:1e400x", "dim0:0x",
                         "npu-1", "npu\u00b3", "dimx", "npu1:nanx", ""]),
        st.lists(st.sampled_from([
            "t=2ms", "t=0", "t=1e400ns", "t=1e300s", "t=nan", "t=-1",
            "for=1.5us", "for=0", "for=1e400", "for=", "x=1"]),
            max_size=3)),
    st.text(alphabet="@:;=.-xnpudimlktsfor0123456789e\u00b3", max_size=40))


@SETTINGS
@given(st.lists(FAULT_TEXT, min_size=1, max_size=3).map(";".join))
def test_fault_spec_text(text):
    schedule = _loads_or_input_error(FaultSchedule.parse, text)
    if schedule is not None:
        assert FaultSchedule.parse(schedule.describe()) == schedule


# -- sweep-spec documents and POST /sweep bodies -------------------------------------

SWEEP_DOCS = [
    {"base": {"topology": "Ring(4)", "bandwidths": "100"},
     "grid": {"chunks": [2, 4], "scheduler": ["baseline", "themis"]},
     "zip": {"workload": ["allreduce", "alltoall"], "payload_mib": [1, 2]}},
    {"base": {"topology": "Ring(4)_Switch(2)", "bandwidths": [100, 50]},
     "points": [{"chunks": 2}, {"payload_mib": "2", "fault_seed": 3}]},
]


def _stream_validated(doc):
    """The spec of ``doc``, once ``CampaignRunner.stream`` has normalized
    every point (the stream itself is never run)."""
    spec = SweepSpec.from_dict(doc)
    CampaignRunner().stream(spec).close()
    return spec


@SETTINGS
@given(st.sampled_from(SWEEP_DOCS).flatmap(mutated))
def test_sweep_spec(doc):
    spec = _loads_or_input_error(_stream_validated, doc)
    if spec is not None:
        assert SweepSpec.from_dict(spec.to_dict()).expand() == spec.expand()


def _stub_executor(point):
    return {"total_time_ns": 0.0}


_stub_executor.normalize = normalize_point


@pytest.fixture(scope="module")
def sweep_url():
    server = serve_in_thread(ServeConfig(port=0), executor=_stub_executor)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}/sweep"
    server.shutdown()
    server.server_close()


@SETTINGS
@given(st.sampled_from(SWEEP_DOCS + [{"spec": SWEEP_DOCS[0],
                                      "fail_fast": False}]).flatmap(mutated))
def test_sweep_body(sweep_url, body):
    request = urllib.request.Request(sweep_url, data=json.dumps(body).encode())
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            lines = resp.read().decode().splitlines()
        assert "summary" in json.loads(lines[-1])
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        error_type = json.loads(exc.read())["error"]["type"]
        assert error_type in {"PointConfigError", "SweepSpecError"}
