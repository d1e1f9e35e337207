"""Integration tests for fault injection and resilience accounting.

Covers the two hard requirements of the subsystem:

1. an **empty** fault schedule is bit-identical to no schedule at all
   (the hooks must be zero-cost no-ops), and
2. a single 1.5x straggler on one rank of a Ring(16) All-Reduce stretches
   the collective by the expected amplification factor — a synchronous
   ring step paces at its slowest member, so the whole collective runs
   ~1.5x slower while the straggler is active.
"""

import dataclasses

import pytest

import repro
from repro.faults import CheckpointConfig, FaultSchedule

MiB = 1 << 20

RING16 = repro.parse_topology("Ring(16)", [100])


def run_allreduce(topology, faults=None, scheduler="baseline",
                  payload=256 * MiB, checkpoint=None):
    traces = repro.generate_single_collective(
        topology, repro.CollectiveType.ALL_REDUCE, payload)
    config = repro.SystemConfig(topology=topology, scheduler=scheduler,
                                faults=faults, checkpoint=checkpoint)
    return repro.simulate(traces, config)


class TestStragglerAmplification:
    """Acceptance: 1.5x straggler on one rank stretches Ring(16) AR ~1.5x."""

    @pytest.mark.parametrize("scheduler", ["baseline", "themis"])
    def test_single_straggler_paces_the_ring(self, scheduler):
        baseline = run_allreduce(RING16, scheduler=scheduler)
        faulted = run_allreduce(
            RING16,
            faults=FaultSchedule.parse("straggler@npu3:1.5x@t=0"),
            scheduler=scheduler)
        ratio = faulted.total_time_ns / baseline.total_time_ns
        # The serialization term dominates at 256 MiB (per-hop latency is
        # negligible), so amplification lands essentially on the straggler
        # factor despite only 1 of 16 ranks being slow.  Themis keeps its
        # fluid plan and integrates the loads over the fault, so it
        # stretches by the factor too.
        assert ratio == pytest.approx(1.5, rel=0.05)
        assert ratio > 1.0

    def test_amplification_scales_with_severity(self):
        baseline = run_allreduce(RING16).total_time_ns
        totals = [
            run_allreduce(
                RING16,
                faults=FaultSchedule.parse(f"straggler@npu3:{f}x@t=0"),
            ).total_time_ns
            for f in (1.25, 1.5, 2.0)
        ]
        assert totals[0] < totals[1] < totals[2]
        assert totals[2] / baseline == pytest.approx(2.0, rel=0.05)

    def test_windowed_straggler_costs_less_than_permanent(self):
        permanent = run_allreduce(
            RING16, faults=FaultSchedule.parse("straggler@npu3:1.5x@t=0"))
        windowed = run_allreduce(
            RING16,
            faults=FaultSchedule.parse("straggler@npu3:1.5x@t=0@for=1ms"))
        baseline = run_allreduce(RING16)
        assert (baseline.total_time_ns
                < windowed.total_time_ns
                < permanent.total_time_ns)

    def test_resilience_report_attached_and_attributed(self):
        result = run_allreduce(
            RING16, faults=FaultSchedule.parse("straggler@npu3:1.5x@t=0"))
        report = result.resilience
        assert report is not None
        assert len(report.records) == 1
        record = report.records[0]
        assert record.fired
        assert record.extra_ns > 0
        assert report.injected_ns == pytest.approx(record.extra_ns)

    def test_injected_is_an_attribution_not_a_bound(self):
        # A whole-run straggler on NPU 0 slows its compute ops and the
        # port time it spends in gradient all-reduces that overlap them.
        # Both stretches are charged to the fault, but only the critical
        # path's share lengthens the run: injected exceeds the exact
        # loss, faulted minus baseline.
        topology = repro.parse_topology("Ring(2)", [100])

        def run(faults=None):
            traces = repro.generate_data_parallel(repro.gpt3_175b(), topology)
            return repro.simulate(traces, repro.SystemConfig(
                topology=topology, collective_chunks=4, faults=faults))

        faulted = run(FaultSchedule.parse("straggler@npu0:2x@t=0"))
        lost = faulted.total_time_ns - run().total_time_ns
        assert lost > 0
        assert faulted.resilience.injected_ns > 1.1 * lost


class TestStall:
    """A stall is a zero-capacity window on its NPU's compute unit."""

    def test_in_flight_op_pauses_inside_the_window(self):
        topology = repro.parse_topology("Ring(8)", [100])

        def run(faults=None):
            traces = repro.generate_data_parallel(repro.gpt3_175b(), topology)
            return repro.simulate(traces, repro.SystemConfig(
                topology=topology, scheduler="baseline", faults=faults))

        clean = run()
        stalled = run(FaultSchedule.parse("stall@npu0@t=10ms@for=1ms"))
        # NPU 0's first op (0-65.195 ms) is in flight at 10 ms: it makes
        # no progress for 1 ms and finishes 1 ms late; the next op
        # follows it with no gap.
        (_, clean_end, _), _ = clean.activity.intervals(0)[:2]
        (start, end, _), (next_start, _, _) = stalled.activity.intervals(0)[:2]
        assert start == 0.0 and clean_end == pytest.approx(65.195e6, abs=1e3)
        assert end == clean_end + 1e6 == next_start
        assert stalled.total_time_ns == clean.total_time_ns + 1e6
        # The frozen time lands in the compute bucket, not idle.
        assert stalled.breakdown.compute_ns == \
            pytest.approx(clean.breakdown.compute_ns + 1e6)
        assert stalled.breakdown.idle_ns == clean.breakdown.idle_ns
        (record,) = stalled.resilience.records
        assert (record.activated_ns, record.cleared_ns) == (10e6, 11e6)
        assert record.extra_ns == 1e6


class TestEmptyScheduleBitIdentical:
    """Hard requirement: empty schedule => bit-identical to faults=None."""

    def test_totals_and_records_identical(self):
        clean = run_allreduce(RING16, faults=None)
        empty = run_allreduce(RING16, faults=FaultSchedule.empty())
        assert empty.total_time_ns == clean.total_time_ns  # exact, not approx
        assert empty.resilience is None  # no injector was ever built
        assert [dataclasses.astuple(c) for c in empty.collectives] == \
            [dataclasses.astuple(c) for c in clean.collectives]

    def test_breakdowns_identical(self):
        topo = repro.parse_topology("Ring(4)_Switch(4)", [100, 50])
        traces = repro.generate_megatron_hybrid(
            repro.gpt3_175b(), topo, repro.ParallelismSpec(mp=4, dp=4))
        clean = repro.simulate(
            traces, repro.SystemConfig(topology=topo, faults=None))
        traces = repro.generate_megatron_hybrid(
            repro.gpt3_175b(), topo, repro.ParallelismSpec(mp=4, dp=4))
        empty = repro.simulate(
            traces,
            repro.SystemConfig(topology=topo, faults=FaultSchedule.empty()))
        assert empty.total_time_ns == clean.total_time_ns
        assert empty.breakdown == clean.breakdown


class TestDeterminism:
    def test_same_schedule_same_result(self):
        schedule = FaultSchedule.generate(
            seed=42, num_npus=16, num_dims=1, horizon_ns=5e6,
            straggler_mtbf_ns=1e6, degrade_mtbf_ns=2e6)
        r1 = run_allreduce(RING16, faults=schedule)
        r2 = run_allreduce(RING16, faults=schedule)
        assert r1.total_time_ns == r2.total_time_ns
        assert r1.resilience == r2.resilience

    def test_different_seed_different_impact(self):
        def total(seed):
            schedule = FaultSchedule.generate(
                seed=seed, num_npus=16, num_dims=1, horizon_ns=5e6,
                straggler_mtbf_ns=0.5e6, straggler_factor=(1.5, 3.0))
            return run_allreduce(RING16, faults=schedule).total_time_ns

        totals = {total(s) for s in (1, 2, 3)}
        assert len(totals) > 1


class TestFailureAndCheckpoint:
    def test_permanent_failure_restart_accounting(self):
        checkpoint = CheckpointConfig(interval_ns=1e6, snapshot_bytes=1e6,
                                      write_bandwidth_gbps=100.0,
                                      restart_overhead_ns=1e6)
        result = run_allreduce(
            RING16,
            faults=FaultSchedule.parse("fail@npu5@t=2.5ms"),
            checkpoint=checkpoint)
        report = result.resilience
        assert report.num_failures == 1
        # Replay since the 2 ms checkpoint boundary: 0.5 ms, plus fixed
        # overhead (1 ms) and snapshot reload (0.01 ms).
        assert report.restart_lost_ns == pytest.approx(1e6 + 1e4 + 0.5e6)
        assert report.effective_total_ns > result.total_time_ns

    def test_tighter_checkpointing_reduces_restart_loss(self):
        def lost(interval_ns):
            result = run_allreduce(
                RING16,
                faults=FaultSchedule.parse("fail@npu5@t=4.9ms"),
                checkpoint=CheckpointConfig(
                    interval_ns=interval_ns, snapshot_bytes=1e6,
                    write_bandwidth_gbps=100.0, restart_overhead_ns=1e6))
            return result.resilience.restart_lost_ns

        assert lost(0.5e6) < lost(2.5e6)
