"""Property-based tests: a run never writes to its execution traces.

Traces are read-only inputs.  The faulted path of
:func:`repro.runsim.simulate_from_args` relies on that: it runs the
fault-free baseline and the faulted run on the same trace objects, built
once.  The digest is the serialized form of every trace
(:func:`repro.trace.serialization.dumps_trace`), which covers every node
field, so any backend, folding mode or fault hook that mutated a node
would change it.  A planned trace set simulated twice must also export
the same document twice.
"""

import copy
import hashlib
import json
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro import runsim
from repro.runspec import run_namespace
from repro.stats.export import result_to_dict
from repro.trace.serialization import dumps_trace

TOPOLOGIES = [("Ring(4)", "100"), ("Ring(2)_Switch(2)", "100,50"),
              ("Ring(4)_FC(2)", "100,200")]

WORKLOADS = {
    "allreduce": {"workload": "allreduce"},
    "alltoall": {"workload": "alltoall"},
    "pp-gpt3": {"workload": "pp-gpt3", "pp": 4, "mp": 1, "microbatches": 2},
}

#: About a second per run: an explicit example only.
GPT3 = {"workload": "gpt3", "mp": 4}


def _digest(traces):
    text = "\n".join(dumps_trace(traces[rank]) for rank in sorted(traces))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(point, **fixed):
    """Run ``point``; return ``(digests, after)`` of each trace build:
    the digest when built and the digest once the run finished."""
    built = []
    original = runsim._build_traces

    def build(args, topology):
        traces, degrees = original(args, topology)
        built.append((traces, _digest(traces)))
        return traces, degrees

    args = run_namespace(point)
    for name, value in fixed.items():
        setattr(args, name, value)
    with mock.patch.object(runsim, "_build_traces", build):
        runsim.simulate_from_args(args)
    return [digest for _, digest in built], [_digest(t) for t, _ in built]


@pytest.mark.parametrize("folding", ["auto", "off"])
@pytest.mark.parametrize("backend", ["analytical", "flow", "garnet",
                                     "adaptive"])
@settings(max_examples=8, deadline=None)
@given(workload=st.sampled_from(sorted(WORKLOADS)),
       shape=st.sampled_from(TOPOLOGIES),
       payload_mib=st.sampled_from([0.25, 1.0]))
def test_run_leaves_traces_unchanged(backend, folding, workload, shape,
                                     payload_mib):
    # GPT-3 activations take seconds per run on the packet backend.
    assume(not (backend == "garnet" and workload == "pp-gpt3"))
    topology, bandwidths = shape
    point = dict(WORKLOADS[workload], topology=topology,
                 bandwidths=bandwidths, backend=backend)
    if workload != "pp-gpt3":  # only the collectives read a payload
        point["payload_mib"] = payload_mib
    before, after = _run(point, folding=folding)
    assert len(before) == 1
    assert after == before


@settings(max_examples=10, deadline=None)
@given(workload=st.sampled_from(["allreduce", "pp-gpt3"]),
       shape=st.sampled_from(TOPOLOGIES),
       fault_seed=st.integers(0, 50))
@example(workload="gpt3", shape=("Ring(4)_Switch(2)", "100,50"), fault_seed=3)
def test_faulted_run_builds_traces_once(workload, shape, fault_seed):
    """Baseline and faulted run share one trace build, left unchanged."""
    topology, bandwidths = shape
    point = dict(GPT3 if workload == "gpt3" else WORKLOADS[workload],
                 topology=topology, bandwidths=bandwidths,
                 fault_seed=fault_seed, checkpoint_interval_ms=1.0)
    if workload == "allreduce":  # the only one here that reads a payload
        point["payload_mib"] = 1.0
    before, after = _run(point)
    assert len(before) == 1
    assert after == before


def test_straggler_on_a_frontend_model_builds_traces_once():
    point = {"topology": "Ring(4)_Switch(2)", "bandwidths": "100,50",
             "model": "llama-70b", "seq_len": 256, "mp": 4, "dp": 2,
             "faults": ["straggler@npu1:2x@t=0"]}
    before, after = _run(point)
    assert len(before) == 1
    assert after == before


def _compiled(traces):
    return {rank: (trace.position, trace.child_positions, trace.indegree,
                   trace.root_positions)
            for rank, trace in traces.items()}


def test_planned_traces_simulate_twice_identically():
    """Two runs on one planned trace set export the same bytes: no
    per-run state (indegree counts) leaks into the compiled traces."""
    point = {"topology": "Ring(2)_Switch(2)", "bandwidths": "100,50",
             "model": "llama3-8b", "seq_len": 256, "pp": 2,
             "microbatches": 2}
    args = run_namespace(point)
    built = runsim._build_traces(args, runsim.build_topology(args))
    traces = built[0]
    compiled = copy.deepcopy(_compiled(traces))
    documents = []
    for _ in range(2):
        with mock.patch.object(runsim, "_build_traces",
                               lambda _args, _topology: built):
            _, result, _ = runsim.simulate_from_args(run_namespace(point))
        documents.append(json.dumps(result_to_dict(result), sort_keys=True))
    assert documents[0] == documents[1]
    assert _compiled(traces) == compiled
