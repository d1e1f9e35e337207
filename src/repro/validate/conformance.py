"""Cross-backend differential oracle — pillar 3 of :mod:`repro.validate`.

Runs a scenario matrix (topologies x collective algorithms x payload
sizes, plus a memory-model axis through the full simulator) across
backend pairs and asserts agreement within *declared* tolerance bands:

- **flow-level vs analytical** (``REL_FLOW = 1e-6``): a congestion-free
  flow runs at full link rate, which is exactly the closed form — the
  band only absorbs float noise and the flow solver's finish threshold.
- **Garnet-lite vs analytical** (``REL_PACKET = 2e-2``): packet
  segmentation pays one store-and-forward packet serialization per
  extra link crossed per algorithm step (zero on a neighbor ring, one
  through a switch fabric).  That gap has a closed form, so the oracle
  checks the *corrected* agreement ``garnet == analytical + saf`` to
  ``REL_SAF`` while also reporting the raw relative error against the
  coarse documented band.

Every scenario additionally runs with an
:class:`~repro.validate.invariants.InvariantChecker` on, so a
conformance pass certifies both cross-backend agreement *and* a
violation-free run.  The outcome is persisted as a versioned
:class:`~repro.validate.harness.SuiteReport` JSON document (CI uploads
it as an artifact).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.simulator import Simulator
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.memory.remote import HierarchicalRemoteMemory, HierMemConfig
from repro.memory.zero_infinity import ZeroInfinityConfig, ZeroInfinityMemory
from repro.network.garnetlite import DEFAULT_PACKET_BYTES
from repro.network.topology import parse_topology
from repro.stats.export import result_to_dict
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation
from repro.validate.harness import SuiteReport, run_algorithm
from repro.validate.invariants import InvariantConfig

KiB = 1 << 10
MiB = 1 << 20

# Declared tolerance bands (mirrors tests/integration/test_backend_differential.py).
REL_FLOW = 1e-6    # fluid limit == closed form
REL_PACKET = 2e-2  # raw store-and-forward quantization at packet scale
REL_SAF = 1e-6     # packet backend after closed-form saf correction

#: (notation, bandwidths_gbps, latencies_ns) scenario topologies.
SCENARIO_TOPOLOGIES: Dict[str, Tuple[str, List[float], List[float]]] = {
    "ring4": ("Ring(4)", [150.0], [50.0]),
    "ring8": ("Ring(8)", [100.0], [100.0]),
    "switch4": ("Switch(4)", [200.0], [250.0]),
    "switch8": ("Switch(8)", [50.0], [500.0]),
}

#: algorithm -> saf step count as a function of the group size.  Steps
#: measure how many serialized message stages the algorithm performs;
#: the packet backend pays one extra packet serialization per stage per
#: extra link crossed (1 through a switch fabric, 0 on a neighbor ring).
ALGORITHM_STEPS = {
    "ring_allreduce": lambda k: 2 * (k - 1),
    "ring_allgather": lambda k: k - 1,
    "halving_doubling_allreduce": lambda k: 2 * int(math.log2(k)),
}


def matrix_algorithms(notation: str) -> List[str]:
    """The scenario matrix's algorithms on topology ``notation``.

    Halving-doubling partners sit multiple ring hops apart, so its saf
    term is only closed-form through a single switch fabric.
    """
    algorithms = ["ring_allreduce", "ring_allgather"]
    if notation.startswith("Switch"):
        algorithms.append("halving_doubling_allreduce")
    return algorithms


@dataclass(frozen=True)
class ConformanceCase:
    """One (scenario, backend-pair) comparison with its verdict."""

    scenario: str
    topology: str
    algorithm: str
    payload_bytes: int
    backend: str
    baseline_backend: str
    baseline_ns: float
    candidate_ns: float
    tolerance_rel: float
    saf_allowance_ns: float
    rel_error: float
    adjusted_rel_error: float
    invariant_violations: int
    passed: bool
    message: str = ""


@dataclass(frozen=True)
class MemoryModelCase:
    """One full-simulator run on the memory-model axis."""

    scenario: str
    memory_model: str
    total_time_ns: float
    invariant_checks: int
    invariant_violations: int
    passed: bool
    message: str = ""


@dataclass(frozen=True)
class FoldingCase:
    """One folded-vs-unfolded bit-identity comparison.

    ``identical`` is strict: the two runs' schema-v2 result documents
    must serialize to the same JSON text, byte for byte.
    """

    scenario: str
    backend: str
    collective: str
    traced_ranks: int
    simulated_ranks: int
    fold_active: bool
    expect_active: bool
    identical: bool
    passed: bool
    message: str = ""


# -- backend-pair axis -----------------------------------------------------------------


def _saf_allowance_ns(notation: str, bandwidth_gbps: float, group_size: int,
                      algorithm: str, packet_bytes: int) -> float:
    """Closed-form store-and-forward gap of the packet backend."""
    extra_links = 1 if notation.startswith("Switch") else 0
    steps = ALGORITHM_STEPS[algorithm](group_size)
    return steps * extra_links * packet_bytes / bandwidth_gbps


def run_backend_pairs(
    quick: bool = True,
    check_invariants: bool = True,
    packet_bytes: int = DEFAULT_PACKET_BYTES,
) -> List[ConformanceCase]:
    """Backend-pair axis of the matrix: flow and garnet vs analytical."""
    sizes = [64 * KiB, 1 * MiB] if quick else [64 * KiB, 1 * MiB, 4 * MiB]
    cases: List[ConformanceCase] = []
    for scenario, (notation, bws, lats) in sorted(SCENARIO_TOPOLOGIES.items()):
        k = parse_topology(notation, list(bws)).num_npus
        for algorithm in matrix_algorithms(notation):
            for payload in sizes:
                base_ns, _, base_viol, _ = run_algorithm(
                    "analytical", notation, bws, lats, algorithm, payload,
                    packet_bytes, check_invariants)
                for backend in ("flow", "garnet"):
                    cand_ns, _, cand_viol, _ = run_algorithm(
                        backend, notation, bws, lats, algorithm, payload,
                        packet_bytes, check_invariants)
                    rel_error = abs(cand_ns - base_ns) / base_ns
                    if backend == "flow":
                        tolerance, saf = REL_FLOW, 0.0
                        adjusted = rel_error
                    else:
                        tolerance = REL_PACKET
                        saf = _saf_allowance_ns(notation, bws[0], k,
                                                algorithm, packet_bytes)
                        adjusted = abs(cand_ns - base_ns - saf) / base_ns
                    violations = base_viol + cand_viol
                    # The gate is the *corrected* agreement: the raw gap
                    # on small payloads is dominated by the saf term and
                    # is reported, not judged (REL_PACKET documents the
                    # end-to-end band packet *coalescing* must stay in).
                    band = REL_FLOW if backend == "flow" else REL_SAF
                    agreement = adjusted <= band
                    passed = agreement and violations == 0
                    message = ""
                    if not agreement:
                        message = (f"{backend} disagrees with analytical by "
                                   f"{adjusted:.3g} after the "
                                   f"{saf:.6g} ns saf correction")
                    elif violations:
                        message = f"{violations} invariant violations"
                    cases.append(ConformanceCase(
                        scenario=scenario, topology=notation,
                        algorithm=algorithm, payload_bytes=payload,
                        backend=backend, baseline_backend="analytical",
                        baseline_ns=base_ns, candidate_ns=cand_ns,
                        tolerance_rel=tolerance, saf_allowance_ns=saf,
                        rel_error=rel_error, adjusted_rel_error=adjusted,
                        invariant_violations=violations, passed=passed,
                        message=message,
                    ))
    return cases


# -- memory-model axis -----------------------------------------------------------------


def _remote_workload(payload_bytes: int) -> Dict[int, ExecutionTrace]:
    """Remote load -> compute -> All-Reduce -> remote store microbenchmark."""
    nodes = [
        ETNode(0, NodeType.MEMORY_LOAD, name="load.params",
               tensor_bytes=4 * MiB, location=TensorLocation.REMOTE),
        ETNode(1, NodeType.COMPUTE, name="fwd", flops=1 << 24,
               tensor_bytes=1 * MiB, deps=(0,)),
        ETNode(2, NodeType.COMM_COLLECTIVE, name="grad.allreduce",
               tensor_bytes=payload_bytes, deps=(1,),
               collective=CollectiveType.ALL_REDUCE),
        ETNode(3, NodeType.MEMORY_STORE, name="store.params",
               tensor_bytes=4 * MiB, deps=(2,),
               location=TensorLocation.REMOTE),
    ]
    return {0: ExecutionTrace(0, nodes)}


def _memory_model(name: str):
    if name == "local":
        return None
    if name == "hiermem":
        return HierarchicalRemoteMemory(HierMemConfig(
            num_nodes=2, gpus_per_node=4, num_out_switches=2,
            num_remote_groups=8, mem_side_bw_gbps=100.0,
            gpu_side_out_bw_gbps=256.0, in_node_bw_gbps=256.0,
            chunk_bytes=1 * MiB, access_latency_ns=1000.0))
    if name == "zero-infinity":
        return ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=100.0, access_latency_ns=2000.0))
    raise ValueError(f"unknown memory model {name!r}")


def run_memory_matrix(quick: bool = True) -> List[MemoryModelCase]:
    """Memory-model axis: full simulator runs, invariant-checked.

    The remote models must never beat local-only (remote hops cannot
    create time), and every run must finish violation-free.
    """
    del quick  # three fast runs either way
    notation, bws = "Ring(2)_Switch(4)", [200.0, 50.0]
    cases: List[MemoryModelCase] = []
    local_total: Optional[float] = None
    for name in ("local", "hiermem", "zero-infinity"):
        topo = parse_topology(notation, list(bws))
        remote = _memory_model(name)
        # The local-only control replaces remote tensors with local ones.
        traces = _remote_workload(1 * MiB)
        if remote is None:
            nodes = [ETNode(
                n.node_id, n.node_type, name=n.name, flops=n.flops,
                tensor_bytes=n.tensor_bytes, deps=n.deps,
                collective=n.collective,
            ) for n in traces[0].nodes]
            traces = {0: ExecutionTrace(0, nodes)}
        config = SystemConfig(topology=topo, remote_memory=remote,
                              invariants=InvariantConfig())
        result = Simulator(traces, config).run()
        report = result.invariants
        passed = report.ok and math.isfinite(result.total_time_ns)
        message = "" if report.ok else (
            f"{report.violations_total} invariant violations: "
            f"{report.counts_by_name()}")
        if name == "local":
            local_total = result.total_time_ns
        elif local_total is not None and (
                result.total_time_ns < local_total * (1.0 - 1e-9)):
            passed = False
            message = (f"remote model {name} finished in "
                       f"{result.total_time_ns:.6g} ns, faster than the "
                       f"{local_total:.6g} ns local-only control")
        cases.append(MemoryModelCase(
            scenario=f"{notation}/allreduce+remote-io",
            memory_model=name,
            total_time_ns=result.total_time_ns,
            invariant_checks=report.checks,
            invariant_violations=report.violations_total,
            passed=passed, message=message,
        ))
    return cases


# -- folding axis ----------------------------------------------------------------------


def _replicated_traces(
    num_npus: int, collective: CollectiveType, payload_bytes: int,
    comm_dims: Tuple[int, ...],
) -> Dict[int, ExecutionTrace]:
    """The same compute -> collective -> compute trace on every rank."""
    base = [
        ETNode(0, NodeType.COMPUTE, name="fwd", flops=1 << 22,
               tensor_bytes=256 * KiB),
        ETNode(1, NodeType.COMM_COLLECTIVE, name="grad.sync",
               tensor_bytes=payload_bytes, deps=(0,),
               collective=collective, comm_dims=comm_dims),
        ETNode(2, NodeType.COMPUTE, name="opt", flops=1 << 20,
               tensor_bytes=64 * KiB, deps=(1,)),
    ]
    return {
        rank: ExecutionTrace(rank, [copy.deepcopy(n) for n in base])
        for rank in range(num_npus)
    }


def _folded_vs_unfolded(
    scenario: str,
    backend: str,
    collective_name: str,
    traces_factory,
    expect_active: bool,
    config_extra: Optional[Dict[str, Any]] = None,
    notation: str = "Ring(2)_FC(4)",
    bandwidths: Sequence[float] = (100.0, 50.0),
) -> FoldingCase:
    """Run one workload folded and unfolded; demand byte-equal documents."""
    docs: Dict[str, str] = {}
    fold_report = None
    for folding in ("auto", "off"):
        topo = parse_topology(notation, list(bandwidths))
        config = SystemConfig(topology=topo, network_backend=backend,
                              folding=folding, **(config_extra or {}))
        sim = Simulator(traces_factory(topo.num_npus), config)
        result = sim.run()
        docs[folding] = json.dumps(result_to_dict(result), sort_keys=True)
        if folding == "auto":
            fold_report = result.folding
    identical = docs["auto"] == docs["off"]
    active = bool(fold_report is not None and fold_report.active)
    passed = identical and active == expect_active
    message = ""
    if not identical:
        message = "folded and unfolded result documents differ"
    elif active != expect_active:
        state = "active" if active else "inactive"
        reason = fold_report.reason if fold_report is not None else ""
        message = (f"folding unexpectedly {state}"
                   + (f" ({reason})" if reason else ""))
    return FoldingCase(
        scenario=scenario, backend=backend, collective=collective_name,
        traced_ranks=(fold_report.traced_ranks if fold_report else 0),
        simulated_ranks=(fold_report.simulated_ranks if fold_report else 0),
        fold_active=active, expect_active=expect_active,
        identical=identical, passed=passed, message=message,
    )


def run_folding_matrix(quick: bool = True) -> List[FoldingCase]:
    """Folding axis: folded vs unfolded runs must be byte-identical.

    Symmetric replicated workloads must fold (one representative per
    communicator) on every backend; asymmetric inputs — a fault
    schedule, heterogeneous per-rank traces — must auto-disable folding,
    and in every case the exported schema-v2 document must not change by
    a single byte.
    """
    payload = 256 * KiB
    collectives = [CollectiveType.ALL_REDUCE]
    if not quick:
        collectives.append(CollectiveType.ALL_GATHER)
    cases: List[FoldingCase] = []
    for collective in collectives:
        cname = collective.name.lower()
        for backend in ("analytical", "flow", "garnet"):
            cases.append(_folded_vs_unfolded(
                scenario="Ring(2)_FC(4)/replicated", backend=backend,
                collective_name=cname,
                traces_factory=lambda n, c=collective: _replicated_traces(
                    n, c, payload, comm_dims=(1,)),
                expect_active=True,
            ))
    # A fault schedule breaks rank symmetry: folding must stand down and
    # the (identical) unfolded path must be taken both times.
    straggler = FaultSchedule((FaultSpec(
        kind=FaultKind.STRAGGLER, start_ns=0.0, duration_ns=1e6,
        npu=1, factor=2.0),))
    cases.append(_folded_vs_unfolded(
        scenario="Ring(2)_FC(4)/faulted", backend="analytical",
        collective_name="all_reduce",
        traces_factory=lambda n: _replicated_traces(
            n, CollectiveType.ALL_REDUCE, payload, comm_dims=(1,)),
        expect_active=False,
        config_extra={"faults": straggler},
    ))

    # Heterogeneous traces (rank-dependent compute) leave only singleton
    # classes: folding must report itself inactive.
    def heterogeneous(num_npus: int) -> Dict[int, ExecutionTrace]:
        traces = _replicated_traces(
            num_npus, CollectiveType.ALL_REDUCE, payload, comm_dims=(1,))
        for rank, trace in traces.items():
            trace.node(0).flops += rank  # every rank now unique
        return traces

    cases.append(_folded_vs_unfolded(
        scenario="Ring(2)_FC(4)/heterogeneous", backend="analytical",
        collective_name="all_reduce",
        traces_factory=heterogeneous,
        expect_active=False,
    ))
    return cases


def run_conformance_suite(
    quick: bool = True,
    check_invariants: bool = True,
) -> SuiteReport:
    """Full matrix: backend pairs + memory models + folding -> report."""
    return SuiteReport(
        suite="conformance",
        tolerances={"rel_flow": REL_FLOW, "rel_packet": REL_PACKET,
                    "rel_saf": REL_SAF},
        sections={
            "cases": run_backend_pairs(quick=quick,
                                       check_invariants=check_invariants),
            "memory_cases": run_memory_matrix(quick=quick),
            "folding_cases": run_folding_matrix(quick=quick),
        },
        quick=quick,
    )
