"""Unit tests for pipeline schedules (GPipe vs 1F1B)."""

import pytest

import repro
from repro.memory import LocalMemory
from repro.network import parse_topology
from repro.system import RooflineCompute
from repro.workload import ParallelismSpec, generate_pipeline_parallel
from repro.workload.models import TransformerSpec
from repro.workload.parallelism import stage_op_sequence


def _model():
    return TransformerSpec("tiny", num_layers=8, hidden=64, seq_len=32,
                           batch_per_replica=2)


def _topo():
    return parse_topology("Ring(4)_Switch(2)", [100, 50])


def _config(topology):
    return repro.SystemConfig(
        topology=topology,
        compute=RooflineCompute(peak_tflops=100.0),
        local_memory=LocalMemory(bandwidth_gbps=1000.0),
        collective_chunks=4,
    )


class TestOpSequences:
    def test_gpipe_all_forwards_then_reversed_backwards(self):
        ops = stage_op_sequence("gpipe", 4, 1, 3)
        assert ops == [("f", 0), ("f", 1), ("f", 2),
                       ("b", 2), ("b", 1), ("b", 0)]

    def test_1f1b_last_stage_alternates_immediately(self):
        ops = stage_op_sequence("1f1b", 4, 3, 4)
        assert ops == [("f", 0), ("b", 0), ("f", 1), ("b", 1),
                       ("f", 2), ("b", 2), ("f", 3), ("b", 3)]

    def test_1f1b_first_stage_warmup_depth(self):
        ops = stage_op_sequence("1f1b", 4, 0, 6)
        # 3 warmup forwards, then steady f/b pairs, then drain backwards.
        assert ops[:3] == [("f", 0), ("f", 1), ("f", 2)]
        assert ops[3:5] == [("f", 3), ("b", 0)]
        assert ops[-3:] == [("b", 3), ("b", 4), ("b", 5)]

    def test_1f1b_warmup_capped_by_microbatches(self):
        ops = stage_op_sequence("1f1b", 8, 0, 2)
        kinds = [k for k, _ in ops]
        assert kinds.count("f") == 2 and kinds.count("b") == 2

    def test_every_schedule_does_all_work_once(self):
        for schedule in ("gpipe", "1f1b"):
            for stage in range(4):
                ops = stage_op_sequence(schedule, 4, stage, 5)
                fwd = [mb for k, mb in ops if k == "f"]
                bwd = [mb for k, mb in ops if k == "b"]
                assert sorted(fwd) == list(range(5))
                assert sorted(bwd) == list(range(5))

    def test_1f1b_backward_never_precedes_its_forward(self):
        for stage in range(4):
            ops = stage_op_sequence("1f1b", 4, stage, 6)
            seen_fwd = set()
            for kind, mb in ops:
                if kind == "f":
                    seen_fwd.add(mb)
                else:
                    assert mb in seen_fwd

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            stage_op_sequence("interleaved", 4, 0, 4)
        with pytest.raises(ValueError):
            generate_pipeline_parallel(
                _model(), _topo(), ParallelismSpec(pp=4, dp=2),
                schedule="interleaved")


class TestSchedulesEndToEnd:
    def _run(self, schedule, microbatches=8):
        topo = _topo()
        traces = generate_pipeline_parallel(
            _model(), topo, ParallelismSpec(pp=4, dp=2),
            microbatches=microbatches, schedule=schedule)
        return repro.simulate(traces, _config(topo))

    def test_both_schedules_complete_same_work(self):
        gpipe = self._run("gpipe")
        f1b = self._run("1f1b")
        assert gpipe.nodes_executed == f1b.nodes_executed
        assert gpipe.breakdown.compute_ns == pytest.approx(
            f1b.breakdown.compute_ns, rel=1e-6)

    def test_1f1b_matches_gpipe_when_compute_bound(self):
        """Both schedules have the same (P-1)-bubble in the synchronous
        flush limit; when compute dominates communication latency their
        makespans coincide.  (In a latency-bound regime 1F1B's tighter
        fwd/bwd coupling exposes round trips — its benefit there is
        activation memory, covered below, not time.)"""
        topo = _topo()
        slow_compute = repro.SystemConfig(
            topology=topo,
            compute=RooflineCompute(peak_tflops=1.0),
            local_memory=LocalMemory(bandwidth_gbps=1000.0),
            collective_chunks=4,
        )
        times = {}
        for schedule in ("gpipe", "1f1b"):
            traces = generate_pipeline_parallel(
                _model(), topo, ParallelismSpec(pp=4, dp=2),
                microbatches=8, schedule=schedule)
            times[schedule] = repro.simulate(
                traces, slow_compute).total_time_ns
        assert times["1f1b"] == pytest.approx(times["gpipe"], rel=0.02)

    def test_1f1b_bounds_activation_working_set(self):
        """The point of 1F1B: in-flight forwards per stage are bounded by
        the pipeline depth, while GPipe holds every microbatch."""
        microbatches, stages = 16, 4

        def max_in_flight(schedule, stage):
            live = peak = 0
            for kind, _ in stage_op_sequence(schedule, stages, stage,
                                              microbatches):
                live += 1 if kind == "f" else -1
                peak = max(peak, live)
            return peak

        for stage in range(stages):
            assert max_in_flight("gpipe", stage) == microbatches
            assert max_in_flight("1f1b", stage) <= stages - stage

    def test_deep_pipeline_runs_1f1b(self):
        topo = parse_topology("Ring(8)_Switch(2)", [100, 50])
        traces = generate_pipeline_parallel(
            _model(), topo, ParallelismSpec(pp=8, dp=2),
            microbatches=4, schedule="1f1b")
        result = repro.simulate(traces, _config(topo))
        assert result.total_time_ns > 0
        assert result.nodes_executed == sum(len(t) for t in traces.values())
