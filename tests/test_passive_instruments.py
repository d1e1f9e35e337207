"""Instruments are passive: faults, telemetry and invariants are handed to
the layers at construction, cost nothing when off, and never change what
a run reports.

- An uninstrumented ``Simulator.run()`` enters no function defined under
  ``repro/faults``, ``repro/telemetry`` or ``repro/validate`` (traced
  with :func:`sys.setprofile`): the deterministic companion of the
  wall-clock gate in ``benchmarks/test_fault_overhead.py``.
- A run with telemetry and invariant checking on exports the plain run's
  schema-v2 document apart from the ``telemetry`` and ``invariants``
  keys: the sampler is not a processed event.
- A :class:`~repro.core.simulator.Simulator` runs once.
"""

import copy
import json
import os
import sys

import pytest

import repro.faults
import repro.telemetry
import repro.validate
from repro.cli import main
from repro.core.config import SystemConfig
from repro.core.simulator import Simulator
from repro.events import SimulationError
from repro.network import parse_topology
from repro.runsim import simulate_from_args
from repro.runspec import run_namespace
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType
from repro.workload.generators import generate_single_collective

_INSTRUMENT_DIRS = tuple(
    os.path.dirname(package.__file__) + os.sep
    for package in (repro.faults, repro.telemetry, repro.validate))

# GPT-3 over 4 pipeline stages x 2 data-parallel replicas: compute,
# point-to-point activations and gradient All-Reduces, in packet trains
# large enough for garnet-lite to stay quick.
_PIPELINE = {"topology": "Ring(4)_Ring(2)", "bandwidths": "150,75",
             "workload": "pp-gpt3", "pp": 4, "chunks": 4,
             "packet_bytes": 1 << 20, "train_packets": 64}
_TABLE_V = {"topology": "Switch(16)_Switch(16)", "bandwidths": "256,12.5",
            "latencies": "250,1000", "workload": "moe1t",
            "scheduler": "themis", "memory_model": "hiermem",
            "peak_tflops": 2048.0, "hbm_gbps": 4096.0}
_LLAMA = {"topology": "Ring(2)_FC(8)_Ring(8)_Switch(4)",
          "bandwidths": "250,200,100,50", "latencies": "50,250,250,500",
          "model": "llama-70b", "mp": 16, "pp": 8, "dp": 4, "chunks": 32,
          "scheduler": "themis"}

POINTS = {
    **{f"pp-gpt3-{backend}-{scheduler}": dict(
        _PIPELINE, backend=backend, scheduler=scheduler)
       for backend in ("analytical", "flow", "garnet", "adaptive")
       for scheduler in ("baseline", "themis")},
    "tableV-hiermem": _TABLE_V,
    "tableV-hiermem-inswitch": dict(_TABLE_V, inswitch=True),
    "llama-70b-tp16-pp8-dp4": _LLAMA,
}


def _traced_run(monkeypatch):
    """Patch ``Simulator.run`` to record every call it makes into
    instrument code; returns the set the calls are recorded in."""
    entered = set()
    run = Simulator.run

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(
                _INSTRUMENT_DIRS):
            entered.add(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    def traced_run(sim):
        sys.setprofile(profile)
        try:
            return run(sim)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(Simulator, "run", traced_run)
    return entered


@pytest.mark.parametrize("name", sorted(POINTS))
def test_uninstrumented_run_enters_no_instrument_code(name, monkeypatch):
    entered = _traced_run(monkeypatch)
    _, result, _ = simulate_from_args(run_namespace(POINTS[name]))
    assert result.telemetry is None and result.invariants is None
    assert not entered, sorted(entered)


def test_uninstrumented_folded_run_enters_no_instrument_code(monkeypatch):
    topology = parse_topology("Ring(4)_Ring(2)", [150.0, 75.0])
    base = [
        ETNode(0, NodeType.COMPUTE, name="fwd", flops=1 << 20,
               tensor_bytes=1 << 16),
        ETNode(1, NodeType.COMM_COLLECTIVE, name="sync", tensor_bytes=1 << 20,
               deps=(0,), collective=CollectiveType.ALL_REDUCE,
               comm_dims=(0,)),
    ]
    traces = {rank: ExecutionTrace(rank, copy.deepcopy(base))
              for rank in range(topology.num_npus)}
    entered = _traced_run(monkeypatch)
    result = Simulator(traces, SystemConfig(topology=topology)).run()
    assert result.folding.active and result.folding.simulated_ranks == 2
    assert not entered, sorted(entered)


def test_the_tracer_sees_instruments_that_are_on(monkeypatch):
    entered = _traced_run(monkeypatch)
    simulate_from_args(run_namespace(dict(
        POINTS["pp-gpt3-analytical-themis"], trace_level="collective",
        check_invariants=True)))
    for package in _INSTRUMENT_DIRS[1:]:
        assert any(name.startswith(package) for name in entered), package


def _run_doc(tmp_path, capsys, tag, backend, *extra):
    path = tmp_path / f"{tag}.json"
    assert main(["run", "--topology", "Ring(4)_Ring(2)",
                 "--bandwidths", "150,75", "--workload", "allreduce",
                 "--payload-mib", "1", "--chunks", "4",
                 "--backend", backend, "--json-out", str(path),
                 *extra]) == 0
    summary = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("total"))
    return json.loads(path.read_text()), summary


@pytest.mark.parametrize("backend", ["analytical", "flow", "garnet"])
def test_instrumented_run_exports_the_plain_document(tmp_path, capsys,
                                                     backend):
    plain, plain_line = _run_doc(tmp_path, capsys, "plain", backend)
    doc, line = _run_doc(
        tmp_path, capsys, "instrumented", backend,
        "--metrics-out", str(tmp_path / "metrics.json"), "--check-invariants")
    assert doc.pop("telemetry")["metrics"]
    assert doc.pop("invariants")["ok"]
    assert doc == plain
    assert line == plain_line


def test_second_run_is_rejected_before_the_engine():
    topology = parse_topology("Ring(4)", [100.0])
    traces = generate_single_collective(
        topology, CollectiveType.ALL_REDUCE, 1 << 20)
    sim = Simulator(traces, SystemConfig(topology=topology))
    first = sim.run()
    fired = sim.engine.events_processed
    with pytest.raises(SimulationError, match="already called"):
        sim.run()
    assert sim.engine.events_processed == fired
    assert sim.execution.nodes_executed == first.nodes_executed
