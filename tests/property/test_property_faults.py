"""Property-based tests (hypothesis) for fault-schedule determinism.

The subsystem's contract: fault studies are *reproducible*.  The same
seed and generator arguments always produce the same schedule; the same
schedule driven through a simulation always produces the same
:class:`~repro.stats.resilience.ResilienceReport` and total time; and
different seeds genuinely explore the space (schedules differ).
"""

from hypothesis import given, settings, strategies as st

import repro
from repro.faults import FaultKind, FaultSchedule, FaultSpec

MiB = 1 << 20

RING8 = repro.parse_topology("Ring(8)", [100])

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# -- spec strategies ------------------------------------------------------------------


@st.composite
def fault_specs(draw, num_npus=8, num_dims=1, horizon_ns=5e6):
    kind = draw(st.sampled_from(list(FaultKind)))
    start = draw(st.floats(min_value=0.0, max_value=horizon_ns,
                           allow_nan=False, allow_infinity=False))
    duration = draw(st.one_of(
        st.none(),
        st.floats(min_value=1.0, max_value=horizon_ns,
                  allow_nan=False, allow_infinity=False)))
    npu = draw(st.integers(min_value=0, max_value=num_npus - 1))
    dim = draw(st.integers(min_value=0, max_value=num_dims - 1))
    if kind is FaultKind.STRAGGLER:
        factor = draw(st.floats(min_value=1.0, max_value=4.0))
        return FaultSpec(kind=kind, start_ns=start, duration_ns=duration,
                         npu=npu, factor=factor)
    if kind is FaultKind.STALL:
        duration = duration if duration is not None else 1e5
        return FaultSpec(kind=kind, start_ns=start, duration_ns=duration,
                         npu=npu)
    if kind is FaultKind.NPU_FAIL:
        return FaultSpec(kind=kind, start_ns=start, npu=npu)
    factor = draw(st.floats(min_value=0.1, max_value=1.0))
    if kind is FaultKind.LINK_DOWN:
        return FaultSpec(kind=kind, start_ns=start, duration_ns=duration,
                         dim=dim, npu=npu, factor=factor)
    return FaultSpec(kind=kind, start_ns=start, duration_ns=duration,
                     dim=dim, factor=factor)


# -- generator determinism ------------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_same_seed_same_schedule(seed):
    kwargs = dict(num_npus=8, num_dims=1, horizon_ns=5e6,
                  straggler_mtbf_ns=0.5e6, stall_mtbf_ns=1e6,
                  degrade_mtbf_ns=1e6, linkdown_mtbf_ns=1e6, fail_mtbf_ns=2e6)
    a = FaultSchedule.generate(seed=seed, **kwargs)
    b = FaultSchedule.generate(seed=seed, **kwargs)
    assert a == b
    assert a.describe() == b.describe()


@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_different_seeds_differ(seed):
    kwargs = dict(num_npus=64, num_dims=2, horizon_ns=20e6,
                  straggler_mtbf_ns=0.2e6, stall_mtbf_ns=0.5e6,
                  degrade_mtbf_ns=0.5e6)
    a = FaultSchedule.generate(seed=seed, **kwargs)
    b = FaultSchedule.generate(seed=seed + 1, **kwargs)
    # With ~100 expected faults per schedule a collision means the seed is
    # being ignored, which is exactly the regression this guards against.
    assert a != b


@given(spec=fault_specs())
@settings(max_examples=50, deadline=None)
def test_spec_describe_round_trips(spec):
    from repro.faults import parse_fault
    parsed = parse_fault(spec.describe())
    assert parsed.kind is spec.kind
    assert parsed.npu == spec.npu
    assert parsed.dim == spec.dim
    # Times go through %g formatting: exact for these magnitudes.
    assert parsed.start_ns == spec.start_ns


# -- end-to-end determinism -----------------------------------------------------------


@given(seed=seeds)
@settings(max_examples=5, deadline=None)
def test_simulation_deterministic_under_schedule(seed):
    """Same seed + spec => identical ResilienceReport and total time."""
    schedule = FaultSchedule.generate(
        seed=seed, num_npus=8, num_dims=1, horizon_ns=2e6,
        straggler_mtbf_ns=0.5e6, degrade_mtbf_ns=1e6)

    def run():
        traces = repro.generate_single_collective(
            RING8, repro.CollectiveType.ALL_REDUCE, 64 * MiB)
        config = repro.SystemConfig(topology=RING8, faults=schedule)
        return repro.simulate(traces, config)

    r1, r2 = run(), run()
    assert r1.total_time_ns == r2.total_time_ns
    assert r1.resilience == r2.resilience
    if schedule:
        assert r1.resilience is not None
        assert len(r1.resilience.records) == len(schedule)


# -- pricing: a fault costs what its window takes away -------------------------------

RING4_SWITCH2 = repro.parse_topology("Ring(4)_Switch(2)", [100, 50])
_RATE_KINDS = (FaultKind.STRAGGLER, FaultKind.DEGRADE, FaultKind.LINK_DOWN)


def _mixed_traces():
    """Compute, a whole-system All-Reduce, a dim-1 All-Gather, and a
    send/recv ring whose every message crosses both dimensions."""
    from repro.trace import ETNode, ExecutionTrace, NodeType

    def trace(rank):
        return ExecutionTrace(rank, [
            ETNode(0, NodeType.COMPUTE, flops=20_000_000),
            ETNode(1, NodeType.COMM_COLLECTIVE, deps=(0,),
                   collective=repro.CollectiveType.ALL_REDUCE,
                   tensor_bytes=4 * MiB),
            ETNode(2, NodeType.COMPUTE, flops=10_000_000, deps=(1,)),
            ETNode(3, NodeType.COMM_COLLECTIVE, deps=(2,),
                   collective=repro.CollectiveType.ALL_GATHER,
                   tensor_bytes=2 * MiB, comm_dims=(1,)),
            ETNode(4, NodeType.COMM_SEND, deps=(3,), peer=(rank + 5) % 8,
                   tensor_bytes=1 * MiB),
            ETNode(5, NodeType.COMM_RECV, deps=(3,), peer=(rank + 3) % 8,
                   tensor_bytes=1 * MiB),
            ETNode(6, NodeType.COMPUTE, flops=5_000_000, deps=(4, 5)),
        ])

    return {rank: trace(rank) for rank in range(8)}


def _run_mixed(scheduler, faults=None):
    config = repro.SystemConfig(
        topology=RING4_SWITCH2, scheduler=scheduler, faults=faults,
        compute=repro.RooflineCompute(peak_tflops=100.0))
    return repro.simulate(_mixed_traces(), config)


@given(kind=st.sampled_from(_RATE_KINDS),
       scheduler=st.sampled_from(["baseline", "themis"]),
       npu=st.integers(min_value=0, max_value=7),
       dim=st.integers(min_value=0, max_value=1),
       start=st.floats(min_value=0.0, max_value=400e3),
       duration=st.one_of(st.none(), st.floats(min_value=1.0,
                                               max_value=400e3)))
@settings(max_examples=30, deadline=None)
def test_unit_factor_fault_changes_nothing(kind, scheduler, npu, dim,
                                           start, duration):
    """A factor-1.0 fault of any rate kind leaves the run bit-identical."""
    fault = FaultSpec(kind=kind, start_ns=start, duration_ns=duration,
                      npu=None if kind is FaultKind.DEGRADE else npu,
                      dim=None if kind is FaultKind.STRAGGLER else dim,
                      factor=1.0)
    clean = _run_mixed(scheduler)
    faulted = _run_mixed(scheduler, FaultSchedule((fault,)))
    assert faulted.total_time_ns == clean.total_time_ns
    assert faulted.collectives == clean.collectives
    assert faulted.breakdown == clean.breakdown
    assert faulted.events_processed == clean.events_processed
    assert faulted.resilience.injected_ns == 0.0


def _lost_on_collective(scheduler, kind, factor, start, window):
    """Time one Ring(8) All-Reduce loses to one fault on its only dim."""
    def total(faults):
        traces = repro.generate_single_collective(
            RING8, repro.CollectiveType.ALL_REDUCE, 16 * MiB)
        config = repro.SystemConfig(topology=RING8, scheduler=scheduler,
                                    faults=faults)
        return repro.simulate(traces, config).total_time_ns

    fault = FaultSpec(kind=kind, start_ns=start, duration_ns=window,
                      dim=0, npu=3 if kind is FaultKind.LINK_DOWN else None,
                      factor=factor)
    return total(FaultSchedule((fault,))) - total(None)


def _lost_on_compute(kind, factor, start, window):
    """Time one 1 ms compute op loses to one fault on its NPU."""
    from repro.trace import ETNode, ExecutionTrace, NodeType

    def total(faults):
        traces = {0: ExecutionTrace(0, [
            ETNode(0, NodeType.COMPUTE, flops=1_000_000_000)])}
        config = repro.SystemConfig(
            topology=RING8, faults=faults,
            compute=repro.RooflineCompute(peak_tflops=1.0))
        return repro.simulate(traces, config).total_time_ns

    fault = FaultSpec(kind=kind, start_ns=start, duration_ns=window, npu=0,
                      factor=factor)
    return total(FaultSchedule((fault,))) - total(None)


#: The totals below are ~1e5-1e6 ns, so each carries float rounding of
#: ~1e-10 ns per reservation; a mispriced window costs whole nanoseconds.
ROUNDING_NS = 1e-6

windows = st.lists(st.floats(min_value=1.0, max_value=2e6), min_size=2,
                   max_size=2).map(sorted)


@given(scheduler=st.sampled_from(["baseline", "themis"]),
       kind=st.sampled_from([FaultKind.DEGRADE, FaultKind.LINK_DOWN]),
       factor=st.floats(min_value=0.1, max_value=1.0),
       start=st.floats(min_value=0.0, max_value=300e3),
       windows=windows)
@settings(max_examples=30, deadline=None)
def test_collective_loses_at_most_its_window(scheduler, kind, factor, start,
                                             windows):
    """Lost time grows with the window and is at most what the window
    takes away from the one dim: ``window * (1/factor - 1)``."""
    short, long = (_lost_on_collective(scheduler, kind, factor, start, w)
                   for w in windows)
    assert -ROUNDING_NS <= short <= long + ROUNDING_NS
    assert long <= windows[1] * (1.0 / factor - 1.0) + ROUNDING_NS


@given(kind=st.sampled_from([FaultKind.STRAGGLER, FaultKind.STALL]),
       factor=st.floats(min_value=1.0, max_value=4.0),
       start=st.floats(min_value=0.0, max_value=1.5e6),
       windows=windows)
@settings(max_examples=30, deadline=None)
def test_compute_op_loses_at_most_its_window(kind, factor, start, windows):
    """A straggler costs one compute op at most ``window * (factor - 1)``;
    a stall (no progress) at most its window."""
    if kind is FaultKind.STALL:
        factor = 1.0
    short, long = (_lost_on_compute(kind, factor, start, w) for w in windows)
    assert -ROUNDING_NS <= short <= long + ROUNDING_NS
    bound = windows[1] if kind is FaultKind.STALL else windows[1] * (factor - 1.0)
    assert long <= bound + ROUNDING_NS
