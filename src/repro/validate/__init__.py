"""Cross-backend conformance and invariant checking (``repro.validate``).

Five pillars (see ``docs/validation.md``):

1. **Runtime invariants** — :class:`InvariantChecker` is built before
   the layers and handed to the constructors of the event kernel, the
   network backend and the execution engine (which checks collectives
   and memory accesses), the same zero-cost-when-absent slot pattern as
   telemetry and fault injection, asserting causality, conservation,
   capacity, and finiteness laws while a simulation runs.
2. **Metamorphic relations** — :func:`run_metamorphic_suite` checks laws
   *between* runs (bandwidth monotonicity, permutation symmetry, payload
   additivity, fluid-limit convergence) with no golden numbers.
3. **Differential oracle** — :func:`run_conformance_suite` sweeps a
   scenario matrix across backend pairs and memory models within
   declared tolerance bands.
4. **Frontend gate** — :func:`run_frontend_suite` differentially checks
   the :mod:`repro.frontend` ingestion pipeline against the builtin
   analytic generators (the GPT-3 twin) and smoke-simulates the zoo.
5. **Adaptive gate** — :func:`run_adaptive_suite` gates the adaptive
   granularity controller (:mod:`repro.network.adaptive`): threshold=inf
   bit-identical to fluid, threshold=0 equal to garnet-lite after the
   closed-form saf correction, and the contended reference scenario
   inside the garnet band at a fraction of the events.

Pillars 3-5 each return a versioned :class:`SuiteReport`; all of them
drive backends through the one :func:`run_algorithm` harness or the
full :class:`~repro.core.simulator.Simulator`.
"""

from repro.validate.adaptive import (
    EVENT_REDUCTION_FLOOR,
    AdaptiveCase,
    run_adaptive_suite,
)
from repro.validate.conformance import (
    REL_FLOW,
    REL_PACKET,
    REL_SAF,
    ConformanceCase,
    FoldingCase,
    MemoryModelCase,
    matrix_algorithms,
    run_conformance_suite,
    run_folding_matrix,
)
from repro.validate.harness import (
    SUITE_SCHEMA_VERSION,
    SuiteReport,
    run_algorithm,
)
from repro.validate.invariants import (
    INVARIANTS_SCHEMA_VERSION,
    InvariantChecker,
    InvariantConfig,
    InvariantError,
    InvariantReport,
    InvariantViolation,
    expected_collective_traffic,
)
from repro.validate.frontend import (
    REL_FRONTEND,
    FrontendCase,
    run_frontend_suite,
)
from repro.validate.metamorphic import (
    RelationResult,
    run_metamorphic_suite,
)

__all__ = [
    "AdaptiveCase",
    "ConformanceCase",
    "EVENT_REDUCTION_FLOOR",
    "FoldingCase",
    "FrontendCase",
    "INVARIANTS_SCHEMA_VERSION",
    "InvariantChecker",
    "InvariantConfig",
    "InvariantError",
    "InvariantReport",
    "InvariantViolation",
    "MemoryModelCase",
    "REL_FLOW",
    "REL_FRONTEND",
    "REL_PACKET",
    "REL_SAF",
    "RelationResult",
    "SUITE_SCHEMA_VERSION",
    "SuiteReport",
    "expected_collective_traffic",
    "matrix_algorithms",
    "run_adaptive_suite",
    "run_algorithm",
    "run_conformance_suite",
    "run_folding_matrix",
    "run_frontend_suite",
    "run_metamorphic_suite",
]
