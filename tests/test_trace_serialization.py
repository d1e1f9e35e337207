"""Unit tests for ET JSON (de)serialization."""

import json

import pytest

from repro.trace import (
    CollectiveType,
    ETNode,
    ExecutionTrace,
    NodeType,
    TensorLocation,
    TraceValidationError,
    load_trace,
    save_trace,
)
from repro.trace.serialization import dumps_trace, loads_trace


def _rich_trace():
    nodes = [
        ETNode(0, NodeType.COMPUTE, name="mm", flops=1000, tensor_bytes=64),
        ETNode(1, NodeType.MEMORY_LOAD, tensor_bytes=4096, deps=(0,),
               location=TensorLocation.REMOTE),
        ETNode(2, NodeType.COMM_COLLECTIVE, tensor_bytes=8192, deps=(1,),
               collective=CollectiveType.ALL_TO_ALL, comm_dims=(0, 2),
               attrs={"via": "fabric"}),
        ETNode(3, NodeType.COMM_SEND, tensor_bytes=16, deps=(2,), peer=7, tag=3),
        ETNode(4, NodeType.COMM_RECV, tensor_bytes=16, deps=(2,), peer=7, tag=4),
        ETNode(5, NodeType.MEMORY_STORE, tensor_bytes=128, deps=(3, 4)),
    ]
    return ExecutionTrace(9, nodes)


def test_roundtrip_preserves_everything():
    trace = _rich_trace()
    restored = loads_trace(dumps_trace(trace))
    assert restored.npu_id == 9
    assert len(restored) == len(trace)
    for original in trace:
        copy = restored.node(original.node_id)
        assert copy.node_type == original.node_type
        assert copy.deps == original.deps
        assert copy.tensor_bytes == original.tensor_bytes
        assert copy.flops == original.flops
        assert copy.collective == original.collective
        assert copy.comm_dims == original.comm_dims
        assert copy.peer == original.peer
        assert copy.tag == original.tag
        assert copy.location == original.location
        assert copy.attrs == original.attrs


def test_file_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    save_trace(_rich_trace(), path)
    assert load_trace(path).npu_id == 9


def test_default_fields_omitted_from_json():
    trace = ExecutionTrace(0, [ETNode(0, NodeType.COMPUTE, flops=5)])
    payload = json.loads(dumps_trace(trace))
    node = payload["nodes"][0]
    assert "deps" not in node
    assert "location" not in node
    assert "tensor_bytes" not in node


def test_wrong_format_rejected():
    with pytest.raises(TraceValidationError):
        loads_trace(json.dumps({"format": "something-else", "version": 1}))


def test_wrong_version_rejected():
    with pytest.raises(TraceValidationError):
        loads_trace(json.dumps({"format": "astra-sim-et", "version": 99}))


@pytest.mark.parametrize("version", [True, "1", 1.5, None])
def test_non_integer_version_rejected(version):
    with pytest.raises(TraceValidationError, match="'version' is not an"):
        loads_trace(json.dumps({"format": "astra-sim-et",
                                "version": version}))


def test_bad_node_type_rejected():
    payload = {
        "format": "astra-sim-et", "version": 1, "npu_id": 0,
        "nodes": [{"id": 0, "type": "quantum"}],
    }
    with pytest.raises(TraceValidationError):
        loads_trace(json.dumps(payload))


def test_loaded_graph_is_validated():
    payload = {
        "format": "astra-sim-et", "version": 1, "npu_id": 0,
        "nodes": [
            {"id": 0, "type": "compute", "flops": 1, "deps": [1]},
            {"id": 1, "type": "compute", "flops": 1, "deps": [0]},
        ],
    }
    with pytest.raises(TraceValidationError):
        loads_trace(json.dumps(payload))


def test_indent_option_produces_pretty_json():
    text = dumps_trace(_rich_trace(), indent=2)
    assert "\n" in text
    loads_trace(text)
