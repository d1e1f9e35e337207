"""Metamorphic relation suite — pillar 2 of :mod:`repro.validate`.

Where the invariant checker (pillar 1) asserts laws *inside* one run,
metamorphic relations assert laws *between* runs: transform the input in
a way whose effect on the output is known, and check the outputs relate
accordingly.  No golden numbers are involved, so the relations survive
model refinements that legitimately move absolute results.

Relations checked:

- **bandwidth monotonicity** — doubling every link bandwidth never
  increases a collective's completion time (full simulator stack, both
  schedulers);
- **NPU permutation symmetry** — on a symmetric topology, running the
  same ring collective over a rotated or reversed rank order gives the
  identical time (all three network backends);
- **payload additivity** — collective time is monotone in payload, and
  two back-to-back collectives of payload ``p`` cost exactly the sum of
  their standalone times (ports drain completely between them), with
  ``t(2p) <= t(p) + t(p)`` because the latency term is paid once;
- **fluid-limit convergence** — the packet backend's gap to the
  analytical closed form is the store-and-forward term, proportional to
  the packet size: it shrinks monotonically as packets get smaller and
  is bounded by the closed-form envelope at every granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.config import SystemConfig
from repro.core.simulator import simulate
from repro.network.topology import parse_topology
from repro.trace.node import CollectiveType
from repro.validate.harness import run_algorithm
from repro.workload.generators import generate_single_collective

MiB = 1 << 20

#: Relative slack for relations that hold exactly in real arithmetic.
REL_EXACT = 1e-9


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one metamorphic relation on one scenario."""

    relation: str
    case: str
    passed: bool
    detail: Dict[str, float] = field(default_factory=dict)
    message: str = ""

    def to_dict(self) -> Dict[str, Any]:
        # Pin the document's types: a detail is always written as a
        # float and ``passed`` as a bool, whatever a relation computed.
        return {
            "relation": self.relation,
            "case": self.case,
            "passed": bool(self.passed),
            "detail": {k: float(v) for k, v in self.detail.items()},
            "message": self.message,
        }


# -- harness ---------------------------------------------------------------------------


def _simulate_collective(
    notation: str,
    bandwidths: Sequence[float],
    payload_bytes: int,
    scheduler: str = "baseline",
    count: int = 1,
    collective: CollectiveType = CollectiveType.ALL_REDUCE,
) -> float:
    """Full-stack collective time through the Simulator (analytical)."""
    topo = parse_topology(notation, list(bandwidths))
    traces = generate_single_collective(topo, collective, payload_bytes,
                                        count=count)
    result = simulate(traces, SystemConfig(topology=topo, scheduler=scheduler))
    return result.total_time_ns


# -- relations -------------------------------------------------------------------------


def check_bandwidth_monotonicity(quick: bool = True) -> List[RelationResult]:
    """Doubling every dimension's bandwidth never slows a collective."""
    topologies = [("Ring(8)", [100.0]), ("Switch(8)", [50.0])]
    if not quick:
        topologies.append(("Ring(2)_Switch(4)", [200.0, 50.0]))
    results = []
    for notation, bws in topologies:
        for scheduler in ("baseline", "themis"):
            base = _simulate_collective(notation, bws, 4 * MiB,
                                        scheduler=scheduler)
            fast = _simulate_collective(notation, [2 * b for b in bws],
                                        4 * MiB, scheduler=scheduler)
            passed = fast <= base * (1.0 + REL_EXACT)
            results.append(RelationResult(
                relation="bandwidth_monotonicity",
                case=f"{notation}/{scheduler}",
                passed=passed,
                detail={"base_ns": base, "doubled_bw_ns": fast},
                message="" if passed else (
                    f"doubling bandwidth slowed the collective: "
                    f"{base:.6g} ns -> {fast:.6g} ns"),
            ))
    return results


def check_npu_permutation_symmetry(quick: bool = True) -> List[RelationResult]:
    """Rank-order permutations on a symmetric ring change nothing.

    A rotation maps every neighbor pair onto another neighbor pair and a
    reversal flips traffic direction; both leave the link-load pattern
    of a ring collective invariant, so the completion time must match to
    float noise on every backend.
    """
    notation, bws, lats = "Ring(8)", [100.0], [100.0]
    k = 8
    identity = list(range(k))
    permutations = {
        "rotate3": identity[3:] + identity[:3],
        "reversed": list(reversed(identity)),
    }
    backends = ["analytical", "flow"] if quick else [
        "analytical", "flow", "garnet"]
    results = []
    for backend in backends:
        base = run_algorithm(backend, notation, bws, lats,
                             "ring_allreduce", 1 * MiB)[0]
        for perm_name, group in permutations.items():
            permuted = run_algorithm(backend, notation, bws, lats,
                                     "ring_allreduce", 1 * MiB,
                                     group=group)[0]
            passed = abs(permuted - base) <= REL_EXACT * max(base, 1.0)
            results.append(RelationResult(
                relation="npu_permutation_symmetry",
                case=f"{backend}/{perm_name}",
                passed=passed,
                detail={"identity_ns": base, "permuted_ns": permuted},
                message="" if passed else (
                    f"permutation {perm_name} changed the time: "
                    f"{base:.6g} ns -> {permuted:.6g} ns"),
            ))
    return results


def check_payload_additivity(quick: bool = True) -> List[RelationResult]:
    """Sequential composition adds; payload scaling is monotone.

    With the ports fully drained between two identical collectives, the
    second replays the first shifted in time: ``t(p then p) == 2 t(p)``.
    A single collective of ``2p`` pays the per-step latency only once,
    so ``t(p) <= t(2p) <= 2 t(p)``.
    """
    del quick  # both checks are cheap; always run everything
    results = []
    # Executor path: exact closed-form behaviour on the analytical backend.
    notation, bws, lats = "Ring(8)", [100.0], [100.0]
    t_p = run_algorithm("analytical", notation, bws, lats,
                        "ring_allreduce", 1 * MiB)[0]
    t_2p = run_algorithm("analytical", notation, bws, lats,
                         "ring_allreduce", 2 * MiB)[0]
    monotone = t_p <= t_2p * (1.0 + REL_EXACT)
    latency_once = t_2p <= 2.0 * t_p * (1.0 + REL_EXACT)
    results.append(RelationResult(
        relation="payload_additivity",
        case="executor/scaling",
        passed=monotone and latency_once,
        detail={"t_p_ns": t_p, "t_2p_ns": t_2p},
        message="" if monotone and latency_once else (
            f"expected t(p) <= t(2p) <= 2 t(p), got t(p)={t_p:.6g}, "
            f"t(2p)={t_2p:.6g}"),
    ))
    # Simulator path: two dependent collectives cost the sum of one each.
    s_p = _simulate_collective("Ring(8)", [100.0], 1 * MiB, count=1)
    s_seq = _simulate_collective("Ring(8)", [100.0], 1 * MiB, count=2)
    passed = abs(s_seq - 2.0 * s_p) <= REL_EXACT * max(2.0 * s_p, 1.0)
    results.append(RelationResult(
        relation="payload_additivity",
        case="simulator/sequential",
        passed=passed,
        detail={"single_ns": s_p, "sequential_ns": s_seq},
        message="" if passed else (
            f"two back-to-back collectives cost {s_seq:.6g} ns, not "
            f"2 x {s_p:.6g} ns"),
    ))
    return results


def check_fluid_limit_convergence(quick: bool = True) -> List[RelationResult]:
    """Garnet-lite converges to the analytical closed form as packets shrink.

    The only modelled difference on congestion-free traffic is
    store-and-forward packet quantization — one extra packet
    serialization per extra link per step, so the relative gap is
    ``steps * packet_bytes / (bandwidth * t_analytical)``.  The gap must
    shrink monotonically with the packet size and stay inside that
    closed-form envelope at every granularity.  (The paper's fluid limit
    runs the other way: *growing* packets coarsen the model; see
    docs/validation.md.)
    """
    notation, bws, lats = "Switch(8)", [50.0], [500.0]
    extra_links, steps = 1, 2 * (8 - 1)
    payload = 1 * MiB
    packet_sizes = [16384, 4096, 1024] if quick else [16384, 8192, 4096,
                                                      2048, 1024]
    analytical = run_algorithm("analytical", notation, bws, lats,
                               "ring_allreduce", payload)[0]
    results = []
    prev_gap = None
    for packet_bytes in packet_sizes:
        garnet = run_algorithm("garnet", notation, bws, lats,
                               "ring_allreduce", payload,
                               packet_bytes=packet_bytes)[0]
        gap = abs(garnet - analytical) / analytical
        envelope = (steps * extra_links * packet_bytes / bws[0]) / analytical
        shrinking = prev_gap is None or gap <= prev_gap * (1.0 + REL_EXACT)
        bounded = gap <= envelope * (1.0 + 1e-6) + 1e-12
        passed = shrinking and bounded
        results.append(RelationResult(
            relation="fluid_limit_convergence",
            case=f"packet{packet_bytes}",
            passed=passed,
            detail={"analytical_ns": analytical, "garnet_ns": garnet,
                    "rel_gap": gap, "envelope": envelope},
            message="" if passed else (
                f"gap {gap:.3g} at packet_bytes={packet_bytes} "
                + ("is not shrinking" if not shrinking
                   else f"exceeds the closed-form envelope {envelope:.3g}")),
        ))
        prev_gap = gap
    return results


RELATIONS = (
    check_bandwidth_monotonicity,
    check_npu_permutation_symmetry,
    check_payload_additivity,
    check_fluid_limit_convergence,
)


def run_metamorphic_suite(quick: bool = True) -> List[RelationResult]:
    """Run every relation; returns one result per (relation, case)."""
    results: List[RelationResult] = []
    for relation in RELATIONS:
        results.extend(relation(quick=quick))
    return results
