"""Top-level simulation configuration.

A :class:`SystemConfig` bundles everything below the workload layer: the
topology, the collective scheduling policy and chunking degree, the
roofline compute model, and the memory models (local HBM, optional
disaggregated remote pool, optional in-switch collective fabric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import InputError
from repro.faults.checkpoint import CheckpointConfig
from repro.faults.spec import FaultSchedule
from repro.memory.api import MemoryModel
from repro.memory.inswitch import InSwitchCollectiveMemory
from repro.memory.local import LocalMemory
from repro.network.topology import MultiDimTopology
from repro.system.compute import RooflineCompute
from repro.telemetry.config import TelemetryConfig

if TYPE_CHECKING:  # repro.validate imports the core layer; keep it lazy here
    from repro.validate.invariants import InvariantConfig

DEFAULT_PEAK_TFLOPS = 234.0  # A100 measurement the paper uses (Sec. V)
DEFAULT_HBM_GBPS = 2039.0  # A100 80GB HBM2e

NETWORK_BACKENDS = ("analytical", "garnet", "flow", "adaptive")

#: ``granularity`` alias -> the ``network_backend`` it names.
GRANULARITY_ALIASES = {"fluid": "flow", "packet": "garnet",
                       "adaptive": "adaptive"}


@dataclass
class SystemConfig:
    """Everything the simulator needs besides the traces.

    Attributes:
        topology: Physical multi-dimensional topology.
        scheduler: Collective chunk scheduler — ``"baseline"`` (fixed
            hierarchical order) or ``"themis"`` (the LP-balanced fluid
            plan, solved exactly in-repo).  The default here is
            ``"baseline"``; ``repro run`` defaults to ``"themis"``.
        collective_chunks: Pipelining degree of each collective.
        network_backend: ``"analytical"`` (default; phase-level
            collectives), ``"garnet"`` (packet-level), ``"flow"``
            (max-min fair flow-level), or ``"adaptive"`` (flow-level with
            the HyGra-style runtime controller,
            :class:`repro.network.adaptive.AdaptiveFlowNetwork`: per-link
            fluid -> packet escalation under contention with
            hysteresis-based de-escalation).  On the detailed backends
            collectives are lowered to explicit send/recv algorithms
            (:class:`repro.system.executor.SendRecvCollectiveExecutor`),
            so every workload runs on every backend and the backends
            cross-validate each other.
        packet_bytes: Packet/segment size for the detailed backends
            (``0`` keeps each backend's default, 4096).
        train_packets: Garnet-lite packet-train coalescing factor; > 1
            trades contention granularity for simulation speed on large
            payloads (see :class:`~repro.network.garnetlite.
            GarnetLiteNetwork`).
        granularity: Alias of ``network_backend``, resolved at
            construction: ``"fluid"`` is ``"flow"``, ``"packet"`` is
            ``"garnet"`` and ``"adaptive"`` is ``"adaptive"`` (``""``, the
            default, leaves ``network_backend`` as given).  The alias may
            refine the default ``"analytical"``, its own backend, or (for
            ``"adaptive"`` only) ``"flow"``; it then overwrites
            ``network_backend`` with the resolved name.  Any other pair
            is a conflict.
        escalation_threshold: Adaptive mode only — a link escalates to
            packet granularity when it carries more than this many
            concurrent flows (``0`` escalates everything, ``inf`` never
            escalates).
        deescalation_hysteresis: Adaptive mode only — a packet-mode link
            de-escalates when its flow count drops to
            ``escalation_threshold - deescalation_hysteresis`` or below.
        compute: Roofline NPU model.
        local_memory: HBM model for LOCAL memory nodes.
        remote_memory: Model for REMOTE memory nodes; required if any
            trace contains remote tensors.
        fabric_collectives: In-switch collective model; required if any
            trace routes collectives via the memory fabric.
        faults: Deterministic fault schedule to inject (stragglers,
            stalls, link degradation/failure, permanent NPU loss); an
            empty or absent schedule leaves the run bit-identical to a
            fault-free build.  Requires the analytical backend.
        checkpoint: Checkpoint/restart cost model used by the resilience
            report to price permanent failures.
        telemetry: Telemetry configuration (metrics registry + span
            tracing); ``None`` (the default) builds no instrumentation
            and keeps every hook on the exact un-instrumented fast path,
            mirroring the ``faults`` contract.
        invariants: Runtime invariant-checking configuration
            (:mod:`repro.validate`); ``None`` (the default) builds no
            checker and keeps every hook on the exact un-instrumented
            fast path — the same zero-cost contract as ``telemetry``.
        folding: Symmetry folding of per-rank traces
            (:mod:`repro.core.folding`): ``"auto"`` (default) simulates
            one representative per equivalence class of symmetric ranks
            and reconstructs the per-rank result bit-identically,
            auto-disabling on any asymmetric input; ``"off"`` always
            simulates every trace.
    """

    topology: MultiDimTopology
    scheduler: str = "baseline"
    collective_chunks: int = 16
    network_backend: str = "analytical"
    packet_bytes: int = 0
    train_packets: int = 1
    granularity: str = ""
    escalation_threshold: float = 4.0
    deescalation_hysteresis: float = 1.0
    compute: RooflineCompute = field(
        default_factory=lambda: RooflineCompute(
            peak_tflops=DEFAULT_PEAK_TFLOPS, mem_bandwidth_gbps=DEFAULT_HBM_GBPS
        )
    )
    local_memory: LocalMemory = field(
        default_factory=lambda: LocalMemory(bandwidth_gbps=DEFAULT_HBM_GBPS)
    )
    remote_memory: Optional[MemoryModel] = None
    fabric_collectives: Optional[InSwitchCollectiveMemory] = None
    faults: Optional[FaultSchedule] = None
    checkpoint: Optional[CheckpointConfig] = None
    telemetry: Optional[TelemetryConfig] = None
    invariants: Optional["InvariantConfig"] = None
    folding: str = "auto"

    def __post_init__(self) -> None:
        if self.folding not in ("auto", "off"):
            raise InputError(
                f"folding must be 'auto' or 'off', got {self.folding!r}")
        if self.collective_chunks < 1:
            raise InputError(
                f"collective_chunks must be >= 1, got {self.collective_chunks}"
            )
        if self.network_backend not in NETWORK_BACKENDS:
            raise InputError(
                "network_backend must be one of "
                + ", ".join(repr(b) for b in NETWORK_BACKENDS)
                + f", got {self.network_backend!r}")
        if self.granularity:
            resolved = GRANULARITY_ALIASES.get(self.granularity)
            if resolved is None:
                raise InputError(
                    "granularity must be '' or one of "
                    + ", ".join(repr(g) for g in GRANULARITY_ALIASES)
                    + f", got {self.granularity!r}")
            if self.network_backend not in ("analytical", resolved) and (
                    resolved, self.network_backend) != ("adaptive", "flow"):
                raise InputError(
                    f"granularity {self.granularity!r} conflicts with "
                    f"network_backend {self.network_backend!r} (it selects "
                    f"the {resolved!r} backend)")
            self.network_backend = resolved
        if self.packet_bytes < 0:
            raise InputError(
                f"packet_bytes must be >= 0, got {self.packet_bytes}")
        if self.train_packets < 1:
            raise InputError(
                f"train_packets must be >= 1, got {self.train_packets}")
        threshold = self.escalation_threshold
        if threshold != threshold or threshold < 0:  # NaN or negative
            raise InputError(
                f"escalation_threshold must be >= 0 (inf allowed), "
                f"got {threshold}")
        hysteresis = self.deescalation_hysteresis
        if not (0 <= hysteresis < float("inf")):
            raise InputError(
                f"deescalation_hysteresis must be finite and >= 0, "
                f"got {hysteresis}")
        if self.faults and self.network_backend != "analytical":
            raise InputError(
                "fault injection requires the analytical network backend, "
                f"got {self.network_backend!r}")
        # Fail fast on bad scheduler names rather than at first collective.
        from repro.system.scheduler import make_scheduler

        make_scheduler(self.scheduler)
