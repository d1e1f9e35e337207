"""Perf smoke suite — CI gate for the hot-path optimisations.

Runs every benchmark family at quick size and enforces the PR's
acceptance floors:

- the batched event-kernel hot loop is at least 3x the seed engine's
  events/sec (per-call paths must merely not regress);
- end-to-end simulation wall time is measurably better than with the
  seed engine patched in;
- the committed ``BENCH_perf.json`` baseline exists, parses, and has
  every section.

Lives outside the tier-1 ``tests/`` tree (``pyproject.toml`` testpaths):
run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

from perf.harness import (
    bench_adaptive,
    bench_backend_speedup,
    bench_campaign,
    bench_event_kernel,
    bench_invariant_overhead,
    bench_scaling,
    bench_telemetry_overhead,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

# Acceptance gate: the batched hot loop must beat the seed engine 3x.
BATCH_SPEEDUP_FLOOR = 3.0
# Stability floor for the bulk per-call path: it must not be slower than
# the seed (kept below 1.0 only to absorb CI timer noise).
PER_CALL_SPEEDUP_FLOOR = 0.9
# The self-scheduling chain shape must beat the seed outright: its
# regression was fixed by inlining Event construction on the schedule
# hot path, so anything below parity is a real regression.
CHAIN_SPEEDUP_FLOOR = 1.0
# Installed-but-idle telemetry must cost < 2% wall clock (same budget as
# the fault-injection hooks).
TELEMETRY_OVERHEAD_BUDGET = 0.02
# A fully-warm content-addressed cache must replay a campaign at least
# 10x faster than simulating it.
WARM_CACHE_SPEEDUP_FLOOR = 10.0
# The *enabled* invariant checker actively validates on every hook, so
# its budget is looser than idle telemetry's — but still < 3% wall
# clock, and it must never move simulated time.
INVARIANT_OVERHEAD_BUDGET = 0.03
# O(npus)-free path: wall time across the 512 -> 1M NPU rows must stay
# flat.  The rows run in ~20 ms each, where timer noise easily doubles a
# single measurement, so the ceiling is a loose 10x — the regression it
# guards against (O(npus) construction) measured ~175x at this spread.
SCALING_FLATNESS_CEILING = 10.0
# The million-NPU analytical row must finish in single-digit seconds
# (ISSUE 9 acceptance: "1M NPUs in seconds, not hours").
MILLION_NPU_WALL_CEILING_S = 9.0
# Full runs only: the 32K-NPU row against the frozen pre-optimization
# baseline (3.113 s committed before the symbolic-group work).
PRE_FOLD_32K_SPEEDUP_FLOOR = 20.0
# Adaptive granularity (ISSUE 10): on the contended reference scenario
# the controller must simulate at most 1/3 of the pure-packet event
# count while staying within the garnet error band (the same REL_PACKET
# tolerance the conformance matrix uses for fluid-vs-packet pairs).
ADAPTIVE_EVENT_REDUCTION_FLOOR = 3.0
ADAPTIVE_REL_BAND = 0.02
# ... and must beat pure packet on wall clock too, not only on events:
# the flow backends solve max-min once per change set, so fewer events
# are no longer paid back in solver time.
ADAPTIVE_WALL_CLOCK_SPEEDUP_FLOOR = 1.0


def test_event_kernel_speedup_gates():
    kernel = bench_event_kernel(quick=True)
    assert kernel["batch"]["speedup"] >= BATCH_SPEEDUP_FLOOR, kernel
    assert kernel["bulk"]["speedup"] >= PER_CALL_SPEEDUP_FLOOR, kernel
    assert kernel["chain"]["speedup"] >= CHAIN_SPEEDUP_FLOOR, kernel


def test_scaling_scenario_and_seed_ab():
    scaling = bench_scaling(quick=True)
    rows = scaling["rows"]
    assert [r["npus"] for r in rows] == [512, 1024, 1_048_576]
    for row in rows:
        # A dp-GPT-3 step runs hundreds of per-layer compute/All-Reduce
        # events — a tiny count means the recorded metric regressed to
        # the old single-collective fluid-limit shape (2 events).
        assert row["events"] > 100, row
        assert row["nodes"] > 100 and row["wall_s"] > 0
        assert row["simulated_ms"] > 0
    # Symmetric collective: event count must not grow with system size
    # (the representative-port model, paper Sec. IV-C).
    assert rows[1]["events"] <= rows[0]["events"] * 1.5
    assert rows[2]["events"] <= rows[0]["events"] * 1.5
    # Event-bound end-to-end run must be measurably faster than with the
    # seed engine (typically ~1.5-1.8x; 1.2 absorbs CI noise).
    ab = scaling["seed_engine_ab"]
    assert ab["end_to_end_speedup"] >= 1.2, ab


def test_scaling_flatness_gate():
    """O(npus)-free: a million-NPU system must cost what 512 NPUs costs.

    The symbolic communicator groups and lazy link graph make per-step
    cost a function of the event count only, so wall time across a
    2048x spread in system size must stay within ``SCALING_FLATNESS_
    CEILING`` — and the 1M-NPU row must finish in single-digit seconds.
    """
    scaling = bench_scaling(quick=True)
    assert scaling["flatness"] <= SCALING_FLATNESS_CEILING, scaling
    assert scaling["million_npu_wall_s"] <= MILLION_NPU_WALL_CEILING_S, \
        scaling


def test_backend_speedup_direction():
    speedup = bench_backend_speedup(quick=True)
    assert speedup["wall_clock_speedup"] > 1.0, speedup
    assert speedup["event_ratio"] > 1.0, speedup
    # Same traffic, same closed-form bandwidths: simulated times agree
    # to within the store-and-forward offset (see the differential suite).
    analytical_ns = speedup["analytical"]["collective_ns"]
    garnet_ns = speedup["garnet_lite"]["collective_ns"]
    assert abs(garnet_ns - analytical_ns) / analytical_ns < 0.05


def _adaptive_beats_packet(attempts=3):
    """Run the adaptive bench until adaptive wins on wall clock.

    Each arm is a single timed run of a few milliseconds, so a busy
    runner can slow either one; the simulated outputs are the same on
    every attempt.  Three losses in a row is a real regression.
    """
    reports = []
    for _ in range(attempts):
        report = bench_adaptive(quick=True)
        reports.append(report)
        if report["wall_clock_speedup"] > ADAPTIVE_WALL_CLOCK_SPEEDUP_FLOOR:
            return report
    raise AssertionError(
        f"adaptive wall_clock_speedup <= {ADAPTIVE_WALL_CLOCK_SPEEDUP_FLOOR} "
        f"on all {attempts} attempts: "
        f"{[r['wall_clock_speedup'] for r in reports]}")


def test_adaptive_granularity_gates():
    """Adaptive vs pure packet: within the band at a fraction of the
    events and less wall clock, with real escalations (the controller
    actually ran)."""
    report = _adaptive_beats_packet()
    assert report["rel_error"] <= ADAPTIVE_REL_BAND, report
    assert (report["event_reduction"]
            >= ADAPTIVE_EVENT_REDUCTION_FLOOR), report
    assert report["escalations"] > 0, report
    assert report["adaptive"]["events"] < report["garnet_lite"]["events"]


def _overhead_within_budget(bench, budget, attempts=3):
    """Run an overhead bench until one attempt lands within budget.

    Scheduler interference on a busy runner can only *inflate* the
    measured overhead (both arms use best-of-repeats with GC off, so
    there is no mechanism for noise to hide a real cost across every
    attempt).  A single clean attempt is therefore proof the true
    overhead is within budget; three sustained-interference attempts in
    a row is a real regression.
    """
    reports = []
    for _ in range(attempts):
        report = bench(quick=False, repeats=15)
        assert report["bit_identical"], report
        reports.append(report)
        if report["overhead"] < budget:
            return report
    raise AssertionError(
        f"overhead exceeded {budget} on all {attempts} attempts: "
        f"{[r['overhead'] for r in reports]}")


def test_telemetry_overhead_gate():
    """Idle telemetry hooks: bit-identical results, < 2% wall clock.

    Full-size scenario with extra interleaved repeats: the quick sizes
    finish in ~10 ms per run, where timer noise alone exceeds the 2%
    budget; the full scenario still costs < 1 s total.
    """
    _overhead_within_budget(bench_telemetry_overhead,
                            TELEMETRY_OVERHEAD_BUDGET)


def test_invariant_overhead_gate():
    """Enabled invariant checking: observation-only, < 3% wall clock.

    Full-size scenario for the same timer-noise reason as the telemetry
    gate.  ``bit_identical`` here means *enabled vs disabled* simulated
    time — the checker observes reservations and records; it must never
    change what the simulator computes.
    """
    _overhead_within_budget(bench_invariant_overhead,
                            INVARIANT_OVERHEAD_BUDGET)


# On a single CPU no pool can beat serial, so the absolute speedup floor
# is only a catastrophic backstop, asserted on the committed full-size
# baseline.  The symbolic-group work cut per-point simulation ~10x
# (the 16-point serial sweep dropped from ~5.7 s to ~0.35 s), so fixed
# IPC dispatch overhead now dominates the ratio on a starved 1-core
# generation host (~0.14 there).  The *relative* gate — warm fleet at
# least as fast as cold spawn — is the real regression check and holds
# at any core count and any size; parallel_speedup > 1.0 is enforced
# wherever the runner actually has a second core to fan out onto.
PARALLEL_SPEEDUP_FLOOR_1CPU = 0.1


def test_campaign_gates():
    """Sweep engine: bit-identical across execution modes, fast fan-out.

    The headline pool gate — warm-fleet fan-out strictly faster than
    serial — is asserted whenever the runner has at least a second core
    to fan out onto; a 1-core container physically cannot beat serial
    (the workers time-slice one CPU), so there the gates are the
    unconditional ones: bit-identical merges, warm fleet at least as
    fast as the legacy cold-spawn pool, and the catastrophic-regression
    speedup backstop.
    """
    report = bench_campaign(quick=True)
    assert report["bit_identical"], report
    assert report["errors"] == 0, report
    assert report["warm_cache_speedup"] >= WARM_CACHE_SPEEDUP_FLOOR, report
    assert report["warm_cache_counters"] == {
        "hits": report["points"], "misses": 0, "corrupted": 0}, report
    # Warm fleet beats the legacy cold-spawn pool everywhere (it skips
    # worker start-up; core count is irrelevant).
    # No absolute speedup floor at quick size: 4 points of ~0.1 s each
    # on a 1-CPU runner put fixed dispatch overhead in charge of the
    # ratio, which makes any absolute threshold a coin flip.
    assert report["parallel_wall_s"] <= report["cold_spawn_wall_s"], report
    if report["cpus"] >= 2:
        assert report["parallel_speedup"] > 1.0, report


def test_committed_baseline_is_fresh_and_complete():
    path = REPO_ROOT / "BENCH_perf.json"
    assert path.exists(), "BENCH_perf.json missing; run benchmarks/perf/run_perf.py"
    data = json.loads(path.read_text())
    assert data["quick"] is False, "committed baseline must be a full run"
    for key in ("event_kernel", "scaling", "backend_speedup",
                "adaptive", "telemetry_overhead", "campaign"):
        assert key in data, f"baseline missing section {key!r}"
    assert data["event_kernel"]["batch"]["speedup"] >= BATCH_SPEEDUP_FLOOR
    assert data["event_kernel"]["chain"]["speedup"] >= CHAIN_SPEEDUP_FLOOR
    assert data["scaling"]["seed_engine_ab"]["end_to_end_speedup"] >= 1.0
    for row in data["scaling"]["rows"]:
        assert row["events"] > 100, row
    # The symmetry-folded, O(npus)-free scale path (ISSUE 9): a 1M-NPU
    # row in single-digit seconds, flat wall time across the rows, and
    # >= 20x on the 32K row vs the frozen pre-optimization baseline.
    scaling = data["scaling"]
    assert any(r["npus"] == 1_048_576 for r in scaling["rows"]), scaling
    assert scaling["million_npu_wall_s"] <= MILLION_NPU_WALL_CEILING_S
    assert scaling["flatness"] <= SCALING_FLATNESS_CEILING, scaling
    assert (scaling["speedup_vs_pre_fold_32k"]
            >= PRE_FOLD_32K_SPEEDUP_FLOOR), scaling
    adaptive = data["adaptive"]
    assert adaptive["rel_error"] <= ADAPTIVE_REL_BAND, adaptive
    assert (adaptive["event_reduction"]
            >= ADAPTIVE_EVENT_REDUCTION_FLOOR), adaptive
    assert adaptive["escalations"] > 0, adaptive
    telemetry = data["telemetry_overhead"]
    assert telemetry["bit_identical"] is True
    assert telemetry["overhead"] < TELEMETRY_OVERHEAD_BUDGET
    campaign = data["campaign"]
    assert campaign["points"] >= 16, campaign
    assert campaign["bit_identical"] is True
    assert campaign["errors"] == 0
    assert campaign["warm_cache_speedup"] >= WARM_CACHE_SPEEDUP_FLOOR
    # The committed baseline must carry the warm-fleet measurements and
    # must not have regressed to the cold-spawn fan-out it replaced.
    for key in ("cold_spawn_wall_s", "parallel_wall_s",
                "warm_vs_cold_spawn_speedup", "start_method", "cpus"):
        assert key in campaign, f"campaign baseline missing {key!r}"
    assert campaign["parallel_wall_s"] <= campaign["cold_spawn_wall_s"]
    assert campaign["parallel_speedup"] >= PARALLEL_SPEEDUP_FLOOR_1CPU
    if campaign["cpus"] >= 2:
        assert campaign["parallel_speedup"] > 1.0, campaign
