"""The trace builder's direct node path, and the checks that stay.

:class:`~repro.workload.generators.TraceBuilder` makes its nodes without
``ETNode.__post_init__``.  These tests pin what that path must keep:
nodes equal to the checked constructor's, no larger in memory, the same
errors for the rules the builder cannot guarantee, per-node checks in the
loaders of user input, and :class:`ExecutionTrace` as the check on the
whole set.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.frontend import PlanConfig, plan, zoo_graph
from repro.network import parse_topology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import (
    CollectiveType,
    ETNode,
    NodeType,
    TraceValidationError,
)
from repro.trace.serialization import FORMAT_NAME, FORMAT_VERSION, loads_trace
from repro.workload.generators import TraceBuilder, generate_moe
from repro.workload.models import moe_1t

SRC = str(Path(repro.__file__).resolve().parents[1])


def _llama70b_traces():
    topology = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)",
                              [250, 200, 100, 50])
    return plan(zoo_graph("llama-70b"), topology,
                PlanConfig(tp=16, pp=8, dp=4)).traces


def _moe1t_hiermem_traces(inswitch):
    topology = parse_topology("Switch(16)_Switch(16)", [256, 12.5])
    return generate_moe(moe_1t(), topology, remote_parameters=True,
                        inswitch_collectives=inswitch)


@pytest.mark.parametrize("make", [
    _llama70b_traces,
    lambda: _moe1t_hiermem_traces(False),
    lambda: _moe1t_hiermem_traces(True),
], ids=["llama-70b-tp16-pp8-dp4", "moe1t-hiermem", "moe1t-hiermem-inswitch"])
def test_builder_nodes_equal_checked_constructor(make):
    traces = make()
    count = 0
    for trace in traces.values():
        for node in trace:
            checked = ETNode(**vars(node))
            assert node == checked
            assert list(vars(node)) == list(vars(checked))
            count += 1
    assert count > 100


#: Bytes per node under tracemalloc, checked constructor first: a node
#: type's instance-dict layout is per process, and one node whose dict is
#: filled in a single call turns key sharing off for every later node, so
#: the builder's nodes are measured in a fresh interpreter after the
#: constructor's.
_NODE_BYTES = """
import json, tracemalloc
from repro.trace.node import CollectiveType, ETNode, NodeType
from repro.workload.generators import TraceBuilder

NAME, DEPS, DIMS, COUNT = "it0.fwdAR.L0.attn.o.mb0", (), (0, 1), 2000

def checked():
    return [ETNode(i, NodeType.COMM_COLLECTIVE, NAME, DEPS, 4096, 0,
                   CollectiveType.ALL_REDUCE, DIMS) for i in range(COUNT)]

def built():
    b = TraceBuilder(0)
    for _ in range(COUNT):
        b.collective(NAME, CollectiveType.ALL_REDUCE, 4096, DIMS, deps=DEPS)
    return b._nodes

sizes = {}
for make in (checked, built):
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = make()
    sizes[make.__name__] = (tracemalloc.get_traced_memory()[0] - before) / COUNT
    tracemalloc.stop()
print(json.dumps(sizes))
"""


def test_builder_node_is_no_larger_than_checked_node():
    """Attributes set one by one in field order keep CPython's
    key-sharing instance dict; filling ``__dict__`` in one call would
    double a node's size."""
    proc = subprocess.run(
        [sys.executable, "-c", _NODE_BYTES], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout.splitlines()[-1])
    assert sizes["built"] <= sizes["checked"], sizes


@pytest.mark.parametrize("build, checked", [
    (lambda b: b.compute("x", 1, -1),
     lambda: ETNode(0, NodeType.COMPUTE, "x", flops=1, tensor_bytes=-1)),
    (lambda b: b.send("x", -1, 8, 0),
     lambda: ETNode(0, NodeType.COMM_SEND, "x", tensor_bytes=8, peer=-1)),
    (lambda b: b.recv("x", None, 8, 0),
     lambda: ETNode(0, NodeType.COMM_RECV, "x", tensor_bytes=8)),
    (lambda b: b.collective("x", None, 8, None),
     lambda: ETNode(0, NodeType.COMM_COLLECTIVE, "x", tensor_bytes=8)),
    (lambda b: b.compute("x", 1, deps=(0,)),
     lambda: ETNode(0, NodeType.COMPUTE, "x", (0,), flops=1)),
], ids=["negative-bytes", "negative-peer", "missing-peer",
        "missing-collective", "self-dependency"])
def test_builder_raises_the_checked_constructors_error(build, checked):
    with pytest.raises(TraceValidationError) as expected:
        checked()
    builder = TraceBuilder(0)
    with pytest.raises(TraceValidationError,
                       match=f"^{re.escape(str(expected.value))}$"):
        build(builder)
    assert builder._nodes == []


@pytest.mark.parametrize("fields, message", [
    ({"tensor_bytes": -1}, "tensor_bytes must be >= 0, got -1"),
    ({"deps": [1]}, "node 1 depends on itself"),
    ({"type": "comm_send", "tensor_bytes": 8},
     "p2p node 1 lacks a peer"),
])
def test_loader_keeps_per_node_checks(fields, message):
    node = {"id": 1, "type": "compute", "flops": 10, **fields}
    text = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                       "npu_id": 0, "nodes": [node]})
    with pytest.raises(TraceValidationError, match=f"^{re.escape(message)}$"):
        loads_trace(text)


def test_trace_rejects_a_dep_edited_to_name_its_own_node():
    first = ETNode(0, NodeType.COMPUTE, flops=1)
    second = ETNode(1, NodeType.COMPUTE, flops=1, deps=(0,))
    second.deps = (0, 1)
    with pytest.raises(TraceValidationError,
                       match=re.escape("cycle involving nodes [1]")):
        ExecutionTrace(0, [first, second])


def test_builder_trace_rejects_an_edited_self_dependency():
    b = TraceBuilder(3)
    b.compute("a", 1)
    b.compute("b", 1, deps=(0,))
    b._nodes[1].deps = (0, 1)
    with pytest.raises(TraceValidationError,
                       match=re.escape("NPU 3 contains a cycle involving "
                                       "nodes [1]")):
        b.build()
