"""Adaptive-granularity conformance — the ``adaptive`` pillar.

Gates the :class:`repro.network.adaptive.AdaptiveFlowNetwork` controller
on three axes, reusing the differential oracle's scenario matrix
and tolerance bands (:mod:`repro.validate.conformance`):

1. **identity** — ``threshold=inf`` never escalates, so the controller
   must be *bit-identical* to the pure fluid backend: exact simulated
   time, exact event count, zero escalations, across the full scenario
   matrix at every conformance payload size.
2. **packet_parity** — ``threshold=0`` escalates everything, so the
   controller must match the pure packet backend within the
   saf-adjusted band: the sub-flow model reproduces garnet-lite's
   timing up to the closed-form store-and-forward term (zero on a
   neighbor ring, one packet serialization per step through a switch
   fabric), checked to ``REL_SAF`` — at strictly fewer events.
3. **contended** — on the contended reference scenario (Ring(8)
   all-to-all, where multi-hop routes genuinely converge flows onto
   shared links), adaptive mode must stay within the raw garnet error
   band (``REL_PACKET``) while simulating at most ``1/EVENT_REDUCTION_
   FLOOR`` of the pure-packet event count, with real escalations and a
   clean invariant sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.network import parse_topology
from repro.network.garnetlite import DEFAULT_PACKET_BYTES
from repro.validate.conformance import (
    KiB,
    MiB,
    REL_PACKET,
    REL_SAF,
    SCENARIO_TOPOLOGIES,
    _saf_allowance_ns,
    matrix_algorithms,
)
from repro.validate.harness import SuiteReport, run_algorithm

#: Adaptive mode must simulate the contended reference scenario in at
#: most 1/3 of the pure-packet event count (ISSUE 10 acceptance).
EVENT_REDUCTION_FLOOR = 3.0

#: Contended reference scenario: Ring(8) all-to-all.  Distances span
#: 1..7 hops, so routes genuinely converge onto shared links and the
#: max-min model diverges from store-and-forward — exactly the regime
#: escalation is for.  (The switch fabrics' FIFO downlink pile-up under
#: all-to-all bursts is *not* closed-form, so the switch scenarios gate
#: the identity/parity axes only.)
CONTENDED_SCENARIO = ("ring8",) + SCENARIO_TOPOLOGIES["ring8"]
CONTENDED_ALGORITHM = "alltoall"


@dataclass(frozen=True)
class AdaptiveCase:
    """One adaptive-vs-reference comparison."""

    axis: str
    scenario: str
    topology: str
    algorithm: str
    payload_bytes: int
    threshold: float
    baseline_backend: str
    baseline_ns: float
    candidate_ns: float
    baseline_events: int
    candidate_events: int
    escalations: int
    deescalations: int
    tolerance_rel: float
    saf_allowance_ns: float
    rel_error: float
    adjusted_rel_error: float
    event_reduction: float
    invariant_violations: int
    passed: bool
    message: str = ""


def run_adaptive_suite(
    quick: bool = True,
    check_invariants: bool = True,
    packet_bytes: int = DEFAULT_PACKET_BYTES,
) -> SuiteReport:
    """Sweep the three adaptive axes; returns a versioned report."""
    sizes = [64 * KiB, 1 * MiB] if quick else [64 * KiB, 1 * MiB, 4 * MiB]
    cases: List[AdaptiveCase] = []

    for scenario, (notation, bws, lats) in sorted(
            SCENARIO_TOPOLOGIES.items()):
        k = parse_topology(notation, list(bws)).num_npus
        for algorithm in matrix_algorithms(notation):
            for payload in sizes:
                # Axis 1: threshold=inf is bit-identical to pure fluid.
                base_ns, base_ev, base_viol, _ = run_algorithm(
                    "flow", notation, bws, lats, algorithm, payload,
                    packet_bytes, check_invariants)
                cand_ns, cand_ev, cand_viol, net = run_algorithm(
                    "adaptive", notation, bws, lats, algorithm, payload,
                    packet_bytes, check_invariants,
                    escalation_threshold=math.inf)
                violations = base_viol + cand_viol
                identical = (cand_ns == base_ns and cand_ev == base_ev
                             and net.escalations == 0)
                passed = identical and violations == 0
                message = ""
                if not identical:
                    message = (f"threshold=inf diverged from fluid: "
                               f"{cand_ns} ns / {cand_ev} events vs "
                               f"{base_ns} ns / {base_ev} events, "
                               f"{net.escalations} escalations")
                elif violations:
                    message = f"{violations} invariant violations"
                rel = abs(cand_ns - base_ns) / base_ns
                cases.append(AdaptiveCase(
                    axis="identity", scenario=scenario, topology=notation,
                    algorithm=algorithm, payload_bytes=payload,
                    threshold=math.inf, baseline_backend="flow",
                    baseline_ns=base_ns, candidate_ns=cand_ns,
                    baseline_events=base_ev, candidate_events=cand_ev,
                    escalations=net.escalations,
                    deescalations=net.deescalations,
                    tolerance_rel=0.0, saf_allowance_ns=0.0,
                    rel_error=rel, adjusted_rel_error=rel,
                    event_reduction=1.0,
                    invariant_violations=violations, passed=passed,
                    message=message))

                # Axis 2: threshold=0 matches pure packet after the
                # closed-form store-and-forward correction.
                base_ns, base_ev, base_viol, _ = run_algorithm(
                    "garnet", notation, bws, lats, algorithm, payload,
                    packet_bytes, check_invariants)
                cand_ns, cand_ev, cand_viol, net = run_algorithm(
                    "adaptive", notation, bws, lats, algorithm, payload,
                    packet_bytes, check_invariants,
                    escalation_threshold=0.0)
                violations = base_viol + cand_viol
                saf = _saf_allowance_ns(notation, bws[0], k, algorithm,
                                        packet_bytes)
                rel = abs(cand_ns - base_ns) / base_ns
                adjusted = abs(cand_ns + saf - base_ns) / base_ns
                reduction = base_ev / max(1, cand_ev)
                agreement = adjusted <= REL_SAF and cand_ev < base_ev
                passed = agreement and violations == 0
                message = ""
                if not agreement:
                    message = (f"threshold=0 disagrees with garnet by "
                               f"{adjusted:.3g} after the {saf:.6g} ns "
                               f"saf correction ({cand_ev} vs {base_ev} "
                               "events)")
                elif violations:
                    message = f"{violations} invariant violations"
                cases.append(AdaptiveCase(
                    axis="packet_parity", scenario=scenario,
                    topology=notation, algorithm=algorithm,
                    payload_bytes=payload, threshold=0.0,
                    baseline_backend="garnet", baseline_ns=base_ns,
                    candidate_ns=cand_ns, baseline_events=base_ev,
                    candidate_events=cand_ev,
                    escalations=net.escalations,
                    deescalations=net.deescalations,
                    tolerance_rel=REL_SAF, saf_allowance_ns=saf,
                    rel_error=rel, adjusted_rel_error=adjusted,
                    event_reduction=reduction,
                    invariant_violations=violations, passed=passed,
                    message=message))

    # Axis 3: the contended reference scenario.  Larger payloads than
    # the matrix sizes: the backends' constant ~hop-latency offset must
    # be small relative to the serialization time being compared.
    scenario, notation, bws, lats = CONTENDED_SCENARIO
    contended_sizes = [2 * MiB] if quick else [2 * MiB, 4 * MiB]
    for payload in contended_sizes:
        base_ns, base_ev, base_viol, _ = run_algorithm(
            "garnet", notation, bws, lats, CONTENDED_ALGORITHM, payload,
            packet_bytes, check_invariants)
        cand_ns, cand_ev, cand_viol, net = run_algorithm(
            "adaptive", notation, bws, lats, CONTENDED_ALGORITHM, payload,
            packet_bytes, check_invariants, escalation_threshold=1.0,
            deescalation_hysteresis=1.0)
        violations = base_viol + cand_viol
        rel = abs(cand_ns - base_ns) / base_ns
        reduction = base_ev / max(1, cand_ev)
        in_band = rel <= REL_PACKET
        reduced = reduction >= EVENT_REDUCTION_FLOOR
        escalated = net.escalations > 0
        passed = in_band and reduced and escalated and violations == 0
        message = ""
        if not in_band:
            message = (f"contended run off the garnet band: rel error "
                       f"{rel:.3g} > {REL_PACKET}")
        elif not reduced:
            message = (f"event reduction {reduction:.2f}x below the "
                       f"{EVENT_REDUCTION_FLOOR}x floor "
                       f"({cand_ev} vs {base_ev} events)")
        elif not escalated:
            message = "contended run never escalated"
        elif violations:
            message = f"{violations} invariant violations"
        cases.append(AdaptiveCase(
            axis="contended", scenario=scenario, topology=notation,
            algorithm=CONTENDED_ALGORITHM, payload_bytes=payload,
            threshold=1.0, baseline_backend="garnet",
            baseline_ns=base_ns, candidate_ns=cand_ns,
            baseline_events=base_ev, candidate_events=cand_ev,
            escalations=net.escalations, deescalations=net.deescalations,
            tolerance_rel=REL_PACKET, saf_allowance_ns=0.0,
            rel_error=rel, adjusted_rel_error=rel,
            event_reduction=reduction,
            invariant_violations=violations, passed=passed,
            message=message))

    return SuiteReport(
        suite="adaptive",
        tolerances={"rel_packet": REL_PACKET, "rel_saf": REL_SAF,
                    "event_reduction_floor": EVENT_REDUCTION_FLOOR},
        sections={"cases": cases}, quick=quick)
