"""Frontend differential gate — ingestion-path conformance.

The :mod:`repro.frontend` pipeline (HF config → op graph → planner →
traces) must reproduce what the hand-written generators emit for the
workloads both can express.  The anchor is GPT-3: the zoo's
``gpt3-175b-hf`` entry is architecturally identical to the builtin
:func:`repro.workload.models.gpt3_175b` spec, so the planned trace and
the :func:`~repro.workload.generators.generate_megatron_hybrid` trace
must agree — in total compute FLOPs, in per-communicator collective
traffic, and in simulated end-to-end time — within ``REL_FRONTEND``.

The band is wider than the backend-pair bands because the frontend
models the parts the analytic spec rounds away: embedding/LM-head ops,
per-op norm costs, and boundary All-Reduces.  Those contribute < 1% at
GPT-3 scale (the stack dominates), which is why 2e-2 is safe and a
regression that, say, double-counts a projection blows through it.

A zoo axis additionally smoke-plans and simulates every registered zoo
entry, so ``repro validate --suite frontend`` certifies the whole front
door, not just the GPT-3 twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import SystemConfig
from repro.core.simulator import Simulator
from repro.network.topology import parse_topology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import NodeType
from repro.validate.harness import SuiteReport
from repro.workload.generators import generate_megatron_hybrid
from repro.workload.models import gpt3_175b
from repro.workload.parallelism import ParallelismSpec

#: Relative tolerance for frontend-vs-builtin trace agreement.
REL_FRONTEND = 2e-2


@dataclass(frozen=True)
class FrontendCase:
    """One frontend-vs-builtin comparison (or zoo smoke run)."""

    axis: str               # "gpt3-twin" | "zoo"
    case: str               # metric or zoo entry name
    builtin_value: float
    frontend_value: float
    tolerance_rel: float
    rel_error: float
    passed: bool
    message: str = ""


# -- trace aggregation ------------------------------------------------------------------


def trace_compute_flops(traces: Dict[int, ExecutionTrace]) -> float:
    """Total FLOPs across every compute node of a trace set."""
    return float(sum(
        node.flops
        for trace in traces.values()
        for node in trace
        if node.node_type is NodeType.COMPUTE))


def trace_collective_bytes(
    traces: Dict[int, ExecutionTrace],
) -> Dict[Tuple[int, ...], float]:
    """Collective payload totals keyed by communicator dims."""
    out: Dict[Tuple[int, ...], float] = {}
    for trace in traces.values():
        for node in trace:
            if node.node_type is NodeType.COMM_COLLECTIVE:
                key = tuple(node.comm_dims or ())
                out[key] = out.get(key, 0.0) + node.tensor_bytes
    return out


def _rel_error(builtin: float, frontend: float) -> float:
    if builtin == frontend:
        return 0.0
    return abs(frontend - builtin) / max(abs(builtin), 1e-12)


def _case(axis: str, case: str, builtin: float, frontend: float,
          tolerance: float = REL_FRONTEND, message: str = "") -> FrontendCase:
    rel = _rel_error(builtin, frontend)
    passed = rel <= tolerance
    if not passed and not message:
        message = (f"{axis}/{case}: frontend {frontend:g} vs builtin "
                   f"{builtin:g} (rel {rel:.4f} > {tolerance:g})")
    return FrontendCase(
        axis=axis, case=case, builtin_value=builtin, frontend_value=frontend,
        tolerance_rel=tolerance, rel_error=rel, passed=passed,
        message=message)


# -- the GPT-3 twin axis ----------------------------------------------------------------


def run_gpt3_twin(quick: bool = True) -> List[FrontendCase]:
    """Frontend-planned GPT-3 twin vs builtin megatron-hybrid trace."""
    from repro.frontend import PlanConfig, plan, zoo_graph

    if quick:
        notation, bandwidths, mp = "Ring(8)_Switch(4)", [200.0, 50.0], 8
    else:
        notation, bandwidths, mp = (
            "Ring(2)_FC(8)_Ring(8)_Switch(4)", [250.0, 200.0, 100.0, 50.0],
            16)
    topology = parse_topology(notation, bandwidths)
    dp = topology.num_npus // mp
    spec = ParallelismSpec(mp=mp, dp=dp)

    model = gpt3_175b()  # batch_per_replica=2, seq 2048 — the twin's knobs
    builtin = generate_megatron_hybrid(model, topology, spec)
    graph = zoo_graph("gpt3-175b-hf")
    frontend = plan(graph, topology, PlanConfig(tp=mp, dp=dp)).traces

    cases = [
        _case("gpt3-twin", "compute_flops",
              trace_compute_flops(builtin), trace_compute_flops(frontend)),
    ]
    builtin_comm = trace_collective_bytes(builtin)
    frontend_comm = trace_collective_bytes(frontend)
    for dims in sorted(set(builtin_comm) | set(frontend_comm)):
        cases.append(_case(
            "gpt3-twin", f"collective_bytes_dims{list(dims)}",
            builtin_comm.get(dims, 0.0), frontend_comm.get(dims, 0.0)))

    config = SystemConfig(topology=topology)
    builtin_time = Simulator(builtin, config).run().total_time_ns
    frontend_time = Simulator(frontend,
                              SystemConfig(topology=topology)).run(
                              ).total_time_ns
    cases.append(_case("gpt3-twin", "total_time_ns",
                       builtin_time, frontend_time))
    return cases


# -- the zoo axis -----------------------------------------------------------------------


def run_zoo_smoke(quick: bool = True) -> List[FrontendCase]:
    """Every zoo entry must ingest, plan, and simulate end to end."""
    from repro.frontend import FrontendError, PlanConfig, plan, zoo_entry, zoo_names

    topology = parse_topology("Ring(2)_Switch(2)", [200.0, 50.0])
    cases: List[FrontendCase] = []
    for name in zoo_names():
        try:
            entry = zoo_entry(name)
            options = entry.options
            if quick and options.seq_len > 256:
                import dataclasses

                options = dataclasses.replace(options, seq_len=256)
            graph = entry.graph(options)
            planned = plan(graph, topology, PlanConfig())
            result = Simulator(
                planned.traces, SystemConfig(topology=topology)).run()
            ok = result.total_time_ns > 0 and result.nodes_executed == sum(
                len(t) for t in planned.traces.values())
            cases.append(FrontendCase(
                axis="zoo", case=name, builtin_value=0.0,
                frontend_value=result.total_time_ns, tolerance_rel=0.0,
                rel_error=0.0, passed=ok,
                message="" if ok else f"zoo/{name}: incomplete simulation"))
        except (FrontendError, ValueError, RuntimeError) as exc:
            cases.append(FrontendCase(
                axis="zoo", case=name, builtin_value=0.0, frontend_value=0.0,
                tolerance_rel=0.0, rel_error=0.0, passed=False,
                message=f"zoo/{name}: {exc}"))
    return cases


def run_frontend_suite(quick: bool = True) -> SuiteReport:
    """Both axes: the GPT-3 differential twin and the zoo smoke sweep."""
    return SuiteReport(
        suite="frontend", tolerances={"rel_frontend": REL_FRONTEND},
        sections={"cases": run_gpt3_twin(quick=quick)
                  + run_zoo_smoke(quick=quick)},
        quick=quick)
