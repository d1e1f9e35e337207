"""Machinery shared by the validation suites.

- :func:`run_algorithm` runs one send/recv collective algorithm over a
  freshly built backend (any name :func:`repro.network.make_network`
  accepts), optionally under an invariant checker;
- :class:`SuiteReport` is the versioned document of the conformance,
  adaptive and frontend suites: named sections of case dataclasses,
  each carrying a ``passed`` verdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.events import EventEngine
from repro.network import NetworkBackend, make_network, parse_topology
from repro.network.garnetlite import DEFAULT_PACKET_BYTES
from repro.system.executor import SendRecvCollectiveExecutor
from repro.validate.invariants import InvariantChecker, InvariantConfig

#: Version of the :meth:`SuiteReport.to_dict` document layout.
SUITE_SCHEMA_VERSION = 1


def run_algorithm(
    backend: str,
    notation: str,
    bandwidths: Sequence[float],
    latencies: Sequence[float],
    algorithm: str,
    payload_bytes: int,
    packet_bytes: int = DEFAULT_PACKET_BYTES,
    check_invariants: bool = False,
    group: Optional[Sequence[int]] = None,
    **backend_options: Any,
) -> Tuple[float, int, int, NetworkBackend]:
    """Run ``algorithm`` over ``group`` (default: every NPU) on a fresh
    ``backend``; ``backend_options`` go to :func:`make_network`.

    Returns ``(time_ns, events, invariant_violations, network)``.
    """
    topo = parse_topology(notation, list(bandwidths),
                          latencies_ns=list(latencies))
    checker = InvariantChecker(InvariantConfig()) if check_invariants else None
    engine = EventEngine(invariants=checker)
    net = make_network(backend, engine, topo, packet_bytes=packet_bytes,
                       invariants=checker, **backend_options)
    executor = SendRecvCollectiveExecutor(engine, net)
    out: Dict[str, float] = {}
    getattr(executor, f"run_{algorithm}")(
        list(range(topo.num_npus)) if group is None else list(group),
        payload_bytes, on_complete=lambda t: out.update(t=t))
    engine.run()
    violations = 0
    if checker is not None:
        violations = checker.finalize(
            engine.now, engine=engine, network=net).violations_total
    return out["t"], engine.events_processed, violations, net


@dataclass
class SuiteReport:
    """Versioned outcome of one suite sweep.

    ``sections`` maps a document key (``"cases"``, plus e.g.
    ``"memory_cases"``) to its list of case dataclasses.
    """

    suite: str
    tolerances: Dict[str, float]
    sections: Dict[str, List[Any]]
    quick: bool = True

    @property
    def cases(self) -> List[Any]:
        return self.sections["cases"]

    @property
    def cases_total(self) -> int:
        return sum(len(cases) for cases in self.sections.values())

    @property
    def failures(self) -> List[Any]:
        return [c for cases in self.sections.values() for c in cases
                if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        failures = self.failures
        doc: Dict[str, Any] = {
            "schema_version": SUITE_SCHEMA_VERSION,
            "suite": self.suite,
            "quick": self.quick,
            "passed": not failures,
            "cases_total": self.cases_total,
            "cases_failed": len(failures),
            "tolerances": dict(self.tolerances),
        }
        for name, cases in self.sections.items():
            doc[name] = [asdict(c) for c in cases]
        return doc

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
