"""Unit tests for the fault taxonomy, spec parser, and seeded generator."""

import pytest

from repro.faults import (
    LINK_DOWN_DEFAULT_FACTOR,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    FaultSpecError,
    parse_fault,
    parse_faults,
    parse_time_ns,
)


class TestTimeParsing:
    @pytest.mark.parametrize("text,expected", [
        ("5", 5.0),
        ("5ns", 5.0),
        ("2us", 2e3),
        ("2ms", 2e6),
        ("1.5ms", 1.5e6),
        ("3s", 3e9),
        ("1e3us", 1e6),
    ])
    def test_units(self, text, expected):
        assert parse_time_ns(text) == expected

    @pytest.mark.parametrize("text", ["", "ms", "2 ms", "2m", "-5ns"])
    def test_rejects_garbage(self, text):
        with pytest.raises(FaultSpecError):
            parse_time_ns(text)


class TestParseFault:
    def test_straggler(self):
        fault = parse_fault("straggler@npu3:1.5x@t=2ms")
        assert fault.kind is FaultKind.STRAGGLER
        assert fault.npu == 3
        assert fault.factor == 1.5
        assert fault.start_ns == 2e6
        assert fault.duration_ns is None
        assert fault.end_ns == float("inf")

    def test_straggler_with_duration(self):
        fault = parse_fault("straggler@npu3:2x@t=2ms@for=500us")
        assert fault.duration_ns == 5e5
        assert fault.end_ns == 2e6 + 5e5

    def test_linkdown(self):
        fault = parse_fault("linkdown@dim1:link4@t=5ms")
        assert fault.kind is FaultKind.LINK_DOWN
        assert fault.dim == 1
        assert fault.npu == 4
        assert fault.factor == LINK_DOWN_DEFAULT_FACTOR

    def test_linkdown_explicit_factor(self):
        fault = parse_fault("linkdown@dim0:link2:0.25x@t=0")
        assert fault.factor == 0.25

    def test_degrade(self):
        fault = parse_fault("degrade@dim2:0.5x@t=1us")
        assert fault.kind is FaultKind.DEGRADE
        assert fault.dim == 2
        assert fault.factor == 0.5

    def test_stall(self):
        fault = parse_fault("stall@npu7@t=1ms@for=100us")
        assert fault.kind is FaultKind.STALL
        assert fault.duration_ns == 1e5

    def test_fail(self):
        fault = parse_fault("fail@npu12@t=8ms")
        assert fault.kind is FaultKind.NPU_FAIL
        assert fault.npu == 12

    def test_parse_list(self):
        faults = parse_faults(
            "straggler@npu0:1.5x@t=0; degrade@dim0:0.9x@t=1ms;")
        assert len(faults) == 2
        assert faults[0].kind is FaultKind.STRAGGLER
        assert faults[1].kind is FaultKind.DEGRADE

    @pytest.mark.parametrize("text", [
        "straggler@npu3",                      # missing t=
        "straggler@npu3@t=0",                  # missing factor
        "straggler@npu3:0.5x@t=0",             # slowdown < 1
        "degrade@dim0:1.5x@t=0",               # fraction > 1
        "degrade@dim0:0x@t=0",                 # fraction = 0
        "stall@npu1@t=0",                      # stall needs duration
        "fail@npu1@t=0@for=1ms",               # permanent can't clear
        "linkdown@dim0@t=0",                   # missing link
        "explode@npu1@t=0",                    # unknown kind
        "straggler@gpu3:1.5x@t=0",             # bad target prefix
        "straggler@npu3:1.5x@t=0@huh=2",       # unknown clause
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault(text)

    @pytest.mark.parametrize("text", [
        "straggler@npu3:1.5x@t=2ms",
        "straggler@npu3:2x@t=2ms@for=500us",
        "linkdown@dim1:link4@t=5ms",
        "linkdown@dim0:link2:0.25x@t=0",
        "degrade@dim2:0.5x@t=1us",
        "stall@npu7@t=1ms@for=100us",
        "fail@npu12@t=8ms",
    ])
    def test_describe_round_trips(self, text):
        fault = parse_fault(text)
        assert parse_fault(fault.describe()) == fault


class TestSchedule:
    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule.empty()
        assert not FaultSchedule(())
        assert len(FaultSchedule.empty()) == 0

    def test_nonempty_schedule_is_truthy(self):
        schedule = FaultSchedule.parse("fail@npu0@t=1ms")
        assert schedule
        assert len(schedule) == 1

    def test_sorted_by_start_time(self):
        schedule = FaultSchedule.parse(
            "fail@npu0@t=5ms; stall@npu1@t=1ms@for=1ms; fail@npu2@t=3ms")
        starts = [f.start_ns for f in schedule]
        assert starts == sorted(starts)

    def test_merge(self):
        a = FaultSchedule.parse("fail@npu0@t=5ms")
        b = FaultSchedule.parse("fail@npu1@t=1ms")
        merged = FaultSchedule.merge([a, b])
        assert len(merged) == 2
        assert merged.faults[0].npu == 1  # re-sorted by time

    def test_describe_round_trips(self):
        schedule = FaultSchedule.parse(
            "straggler@npu3:1.5x@t=2ms;linkdown@dim1:link4@t=5ms")
        assert FaultSchedule.parse(schedule.describe()) == schedule


class TestGenerate:
    def test_same_seed_same_schedule(self):
        kwargs = dict(num_npus=64, num_dims=2, horizon_ns=10e6,
                      straggler_mtbf_ns=1e6, stall_mtbf_ns=2e6,
                      degrade_mtbf_ns=2e6, linkdown_mtbf_ns=2e6,
                      fail_mtbf_ns=5e6)
        assert (FaultSchedule.generate(seed=7, **kwargs)
                == FaultSchedule.generate(seed=7, **kwargs))

    def test_different_seeds_differ(self):
        kwargs = dict(num_npus=64, num_dims=2, horizon_ns=10e6,
                      straggler_mtbf_ns=0.5e6)
        assert (FaultSchedule.generate(seed=1, **kwargs)
                != FaultSchedule.generate(seed=2, **kwargs))

    def test_targets_within_bounds(self):
        schedule = FaultSchedule.generate(
            seed=3, num_npus=8, num_dims=2, horizon_ns=50e6,
            straggler_mtbf_ns=1e6, stall_mtbf_ns=1e6, degrade_mtbf_ns=1e6,
            linkdown_mtbf_ns=1e6, fail_mtbf_ns=10e6)
        assert len(schedule) > 0
        for fault in schedule:
            assert 0 <= fault.start_ns < 50e6
            if fault.npu is not None:
                assert 0 <= fault.npu < 8
            if fault.dim is not None:
                assert 0 <= fault.dim < 2

    def test_disabled_kinds_absent(self):
        schedule = FaultSchedule.generate(
            seed=3, num_npus=8, num_dims=1, horizon_ns=50e6,
            straggler_mtbf_ns=1e6)
        kinds = {f.kind for f in schedule}
        assert kinds == {FaultKind.STRAGGLER}

    def test_records_seed_provenance(self):
        schedule = FaultSchedule.generate(
            seed=9, num_npus=4, num_dims=1, horizon_ns=1e6)
        assert schedule.seed == 9

    def test_rejects_bad_args(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule.generate(seed=0, num_npus=0, num_dims=1,
                                   horizon_ns=1e6)
        with pytest.raises(FaultSpecError):
            FaultSchedule.generate(seed=0, num_npus=1, num_dims=1,
                                   horizon_ns=0)
        with pytest.raises(FaultSpecError):
            FaultSchedule.generate(seed=0, num_npus=1, num_dims=1,
                                   horizon_ns=1e6, straggler_mtbf_ns=-1)


class TestFaultSpecValidation:
    @pytest.mark.parametrize("text, message", [
        ("degrade@dim0:0.5x@t=1e400ns", "fault start is not a finite"),
        ("stall@npu0@t=1ms@for=1e400s", "fault duration is not a finite"),
        ("straggler@npu0:1e400x@t=1ms", "fault factor is not a finite"),
        ("stall@npu\u00b3@t=1ms@for=1ms", "bad target"),
    ], ids=["start", "duration", "factor", "superscript-index"])
    def test_bad_numbers_rejected(self, text, message):
        with pytest.raises(FaultSpecError, match=message):
            FaultSchedule.parse(text)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.NPU_FAIL, start_ns=-1.0, npu=0)

    def test_missing_target_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.STRAGGLER, start_ns=0.0, factor=2.0)
        with pytest.raises(FaultSpecError):
            FaultSpec(kind=FaultKind.DEGRADE, start_ns=0.0, factor=0.5)
