"""Top-level simulator facade.

Typical use::

    from repro import Simulator, SystemConfig, parse_topology
    from repro.workload import gpt3_175b, generate_megatron_hybrid, ParallelismSpec

    topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])
    traces = generate_megatron_hybrid(gpt3_175b(), topo, ParallelismSpec(mp=16, dp=32))
    result = Simulator(traces, SystemConfig(topology=topo, scheduler="themis")).run()
    print(result.total_time_ms, result.breakdown.exposed_comm_ns)
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.config import SystemConfig
from repro.core.engine import ExecutionEngine
from repro.core.folding import plan_folding
from repro.core.results import RunResult
from repro.events import EventEngine, SimulationError
from repro.network import make_network
from repro.system.scheduler import make_scheduler
from repro.trace.graph import ExecutionTrace


class Simulator:
    """Wires workload traces to the system, network, and memory layers."""

    def __init__(self, traces: Dict[int, ExecutionTrace], config: SystemConfig) -> None:
        self.config = config
        # Symmetry folding (repro.core.folding): simulate one rank per
        # equivalence class and reconstruct per-rank results at finalize.
        # An inactive plan leaves the traces dict untouched.
        self.folding = plan_folding(traces, config)
        if self.folding.active:
            traces = self.folding.folded_traces
        # Instruments first, so each layer receives them in its
        # constructor; an absent config leaves the slot None, on the
        # bit-identical fast path.
        self.injector = None
        if config.faults:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(config.faults, config.topology)
        self.telemetry = None
        if config.telemetry is not None:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry(config.telemetry)
            # Folding never coexists with telemetry (per-rank observation
            # disables it); the counter records that — and why — so
            # instrumented runs can see the fold state they forfeited.
            self.telemetry.metrics.counter(
                "system", "folding_disabled",
                reason=self.folding.report.reason).value = 1.0
        self.invariants = None
        if config.invariants is not None:
            from repro.validate.invariants import InvariantChecker

            self.invariants = InvariantChecker(config.invariants)
        instruments = dict(telemetry=self.telemetry,
                           invariants=self.invariants)
        self.engine = EventEngine(invariants=self.invariants)
        self.network = make_network(
            config.network_backend, self.engine, config.topology,
            packet_bytes=config.packet_bytes,
            train_packets=config.train_packets,
            escalation_threshold=config.escalation_threshold,
            deescalation_hysteresis=config.deescalation_hysteresis,
            faults=self.injector, **instruments)
        self.scheduler = make_scheduler(config.scheduler)
        self.execution = ExecutionEngine(
            engine=self.engine,
            config=config,
            network=self.network,
            scheduler=self.scheduler,
            traces=traces,
            faults=self.injector,
            **instruments,
        )
        if self.telemetry is not None:
            self.telemetry.start_sampler(
                self.engine, self.network, self.execution)
        self._ran = False

    def run(self) -> RunResult:
        """Run to completion and collect results (once per simulator)."""
        if self._ran:
            raise SimulationError("Simulator.run() was already called")
        self._ran = True
        wall_start = time.perf_counter()
        if self.telemetry is not None:
            with self.telemetry.profile.section("run"):
                total = self.execution.run()
        else:
            total = self.execution.run()
        wall = time.perf_counter() - wall_start
        per_npu = {
            npu: self.execution.activity.breakdown(npu, total)
            for npu in self.execution.traces
        }
        nodes_executed = self.execution.nodes_executed
        events_processed = self.engine.events_processed
        collectives = list(self.execution.collective_records)
        fold = self.folding
        if fold.active:
            # Un-fold: every dropped rank is a bit-exact replica of its
            # class representative, so the per-rank view is reconstructed
            # in the original trace order (same Breakdown values, same
            # merge order, same record membership as an unfolded run).
            per_npu = {
                npu: per_npu[fold.class_of[npu]]
                for npu in fold.original_order
            }
            nodes_executed += fold.extra_nodes
            events_processed += fold.extra_events
            collectives = fold.expand_records(collectives)
        from repro.stats.breakdown import Breakdown

        breakdown = Breakdown.merge(list(per_npu.values()))
        resilience = None
        if self.injector is not None:
            resilience = self.injector.report(
                total_ns=total, checkpoint=self.config.checkpoint)
        invariant_report = None
        if self.invariants is not None:
            # Before telemetry finalizes, so the violation counters land
            # in the same metrics registry snapshot.
            invariant_report = self.invariants.finalize(
                total, engine=self.engine, network=self.network,
                execution=self.execution, telemetry=self.telemetry)
        report = None
        if self.telemetry is not None:
            with self.telemetry.profile.section("finalize"):
                report = self.telemetry.finalize(
                    total, engine=self.engine, network=self.network,
                    breakdown=breakdown)
        return RunResult(
            total_time_ns=total,
            breakdown=breakdown,
            per_npu_breakdown=per_npu,
            nodes_executed=nodes_executed,
            events_processed=events_processed,
            collectives=collectives,
            activity=self.execution.activity,
            resilience=resilience,
            telemetry=report,
            invariants=invariant_report,
            wall_time_s=wall,
            folding=fold.report,
        )


def simulate(traces: Dict[int, ExecutionTrace], config: SystemConfig) -> RunResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(traces, config).run()
