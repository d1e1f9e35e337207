"""Performance measurement library for the event kernel and backends.

Three benchmark families, all pure functions returning plain dicts:

- :func:`bench_event_kernel` — events/second of the optimised
  :class:`~repro.events.EventEngine` against the frozen seed engine
  (:mod:`repro.events._seed_reference`) on three microbench shapes:
  *bulk* (pre-scheduled heap drain), *batch* (the
  :meth:`~repro.events.EventEngine.schedule_many` fire-and-forget path
  vs the seed's one-by-one equivalent), and *chain* (self-scheduling
  callback chain, heap stays tiny).
- :func:`bench_scaling` — end-to-end simulation cost of a data-parallel
  GPT-3 step on the paper's Conv-4D system scaled from 512 NPUs up to
  32K NPUs (Sec. IV-C's "profiling systems of scale at speed"), plus an
  A/B of an event-bound scenario with the seed engine patched in.
- :func:`bench_backend_speedup` — wall-clock gap between the analytical
  and Garnet-lite backends on the Sec. IV-C torus experiment.
- :func:`bench_adaptive` — the adaptive granularity controller
  (:mod:`repro.network.adaptive`) against pure packet simulation on the
  contended Ring(8) all-to-all reference scenario: accuracy band,
  event reduction, and wall-clock speedup.
- :func:`bench_campaign` — the sweep/campaign engine
  (:mod:`repro.campaign`): serial vs legacy cold-spawn fan-out vs the
  persistent warm worker fleet vs warm content-addressed cache on a
  Conv-4D chunk-count design-space sweep, with a bit-identical check
  across all execution modes.

``quick=True`` shrinks problem sizes so the whole suite runs in a few
seconds — used by the CI smoke job; the committed ``BENCH_perf.json`` is
produced by the full run (``python benchmarks/perf/run_perf.py``).

Wall times are the best of ``repeats`` runs with GC disabled — the
standard recipe for stable Python microbenchmarks.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List

import repro
from repro.events import EventEngine
from repro.events._seed_reference import SeedEventEngine
from repro.network import (
    AdaptiveFlowNetwork,
    AnalyticalNetwork,
    GarnetLiteNetwork,
    parse_topology,
)
from repro.system import SendRecvCollectiveExecutor
from repro.trace import CollectiveType
from repro.workload import (
    generate_data_parallel,
    generate_single_collective,
    gpt3_175b,
)

GiB = 1 << 30
MiB = 1 << 20


def _noop() -> None:
    pass


def _best_wall(fn: Callable[[], int], repeats: int) -> Dict[str, float]:
    """Run ``fn`` (returns an event count) ``repeats`` times; keep the best."""
    best = float("inf")
    events = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            events = fn()
            wall = time.perf_counter() - start
            best = min(best, wall)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"wall_s": best, "events": events,
            "events_per_sec": events / max(best, 1e-12)}


# -- event-kernel microbenchmarks -------------------------------------------------


def _run_bulk(engine_cls, n: int) -> int:
    engine = engine_cls()
    schedule = engine.schedule
    for i in range(n):
        schedule(float(i % 97), _noop)
    engine.run()
    return engine.events_processed


def _run_batch_new(n: int) -> int:
    engine = EventEngine()
    items = [(float(i % 97), _noop) for i in range(n)]
    engine.schedule_many(items)
    engine.run()
    return engine.events_processed


def _run_batch_seed(n: int) -> int:
    # The seed engine has no batch API: the equivalent is n schedule calls.
    engine = SeedEventEngine()
    items = [(float(i % 97), _noop) for i in range(n)]
    schedule = engine.schedule
    for delay, fn in items:
        schedule(delay, fn)
    engine.run()
    return engine.events_processed


def _run_chain(engine_cls, n: int) -> int:
    engine = engine_cls()
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            engine.schedule(1.0, tick)

    engine.schedule(1.0, tick)
    engine.run()
    return engine.events_processed


def bench_event_kernel(quick: bool = False, repeats: int = 3) -> Dict[str, dict]:
    """Seed-vs-new events/sec on bulk, batch, and chain shapes."""
    n_bulk = 60_000 if quick else 200_000
    n_chain = 20_000 if quick else 100_000
    shapes = {
        "bulk": (lambda: _run_bulk(SeedEventEngine, n_bulk),
                 lambda: _run_bulk(EventEngine, n_bulk)),
        "batch": (lambda: _run_batch_seed(n_bulk),
                  lambda: _run_batch_new(n_bulk)),
        "chain": (lambda: _run_chain(SeedEventEngine, n_chain),
                  lambda: _run_chain(EventEngine, n_chain)),
    }
    out: Dict[str, dict] = {}
    for name, (seed_fn, new_fn) in shapes.items():
        seed = _best_wall(seed_fn, repeats)
        new = _best_wall(new_fn, repeats)
        out[name] = {
            "n_events": seed["events"],
            "seed_events_per_sec": round(seed["events_per_sec"]),
            "new_events_per_sec": round(new["events_per_sec"]),
            "speedup": round(new["events_per_sec"] / seed["events_per_sec"], 2),
        }
    return out


# -- end-to-end scaling -----------------------------------------------------------


def _conv4d_system(scale: int):
    """Paper Conv-4D scaled out: ``512 * scale`` NPUs."""
    return repro.parse_topology(
        f"Ring(2)_FC(8)_Ring(8)_Switch({4 * scale})",
        [250, 200, 100, 50],
        latencies_ns=[50, 250, 250, 500],
    )


def _run_scaling_scenario(scale: int) -> Dict[str, float]:
    # Data-parallel GPT-3 (per-layer compute + gradient All-Reduce)
    # rather than a lone collective: Themis' fluid-limit path resolves a
    # single All-Reduce in ~2 engine events, which made the recorded
    # "events" column meaningless as a cost metric.
    topology = _conv4d_system(scale)
    traces = generate_data_parallel(gpt3_175b(), topology)
    config = repro.SystemConfig(
        topology=topology, scheduler="themis", collective_chunks=32)
    start = time.perf_counter()
    result = repro.simulate(traces, config)
    wall = time.perf_counter() - start
    return {
        "scale": scale,
        "npus": topology.num_npus,
        "simulated_ms": result.total_time_ms,
        "wall_s": round(wall, 4),
        "events": result.events_processed,
        "nodes": result.nodes_executed,
    }


def _ab_seed_engine(quick: bool, repeats: int) -> Dict[str, object]:
    """End-to-end A/B: the Sec. IV-C packet-level torus experiment run
    with the production engine vs the frozen seed engine.

    The analytical scaling scenario schedules too few events for the
    kernel to matter (the representative-port model is the whole point),
    so the end-to-end claim is measured where the engine *is* the
    bottleneck: one event per packet-hop through the full
    backend/executor stack.
    """
    payload = 128 * 1024 if quick else 1 * MiB
    packet = 1024 if quick else 512

    def run_with(engine_cls) -> Callable[[], int]:
        def run_once() -> int:
            return _torus_allreduce(
                GarnetLiteNetwork, 4, payload,
                engine_cls=engine_cls, packet_bytes=packet)["events"]
        return run_once

    new = _best_wall(run_with(EventEngine), repeats)
    seed = _best_wall(run_with(SeedEventEngine), repeats)
    return {
        "scenario": "garnet-lite 64-NPU torus all-reduce (event-bound)",
        "payload_bytes": payload,
        "events": new["events"],
        "seed_wall_s": round(seed["wall_s"], 4),
        "new_wall_s": round(new["wall_s"], 4),
        "end_to_end_speedup": round(seed["wall_s"] / max(new["wall_s"], 1e-12), 2),
    }


# 32K-NPU wall time of the scaling scenario before the symbolic-group /
# lazy-link-graph work (committed BENCH_perf.json baseline at the time):
# the O(npus) construction and group materialization made wall time grow
# linearly in system size.  The symmetry-folded path must beat this by
# >= 20x (ISSUE 9 acceptance floor).
PRE_FOLD_32K_BASELINE_WALL_S = 3.113

#: scale factor whose Conv-4D system is 1,048,576 NPUs
#: (2 * 8 * 8 * (4 * 2048)).
MILLION_NPU_SCALE = 2048


def bench_scaling(quick: bool = False, repeats: int = 3) -> Dict[str, object]:
    """512 -> 1M NPU scaling rows plus a seed-engine A/B.

    The O(npus)-free path makes wall time a function of the *event
    count*, not the system size, so the million-NPU row costs the same
    as the 512-NPU one; both quick and full runs include it.  Reported
    alongside the rows:

    - ``flatness`` — largest-to-smallest wall-time ratio across the
      rows (1.0 is perfectly flat; the committed baseline before the
      symbolic-group work measured ~42x between 512 and 32K NPUs);
    - ``speedup_vs_pre_fold_32k`` — the 32K-NPU row against the frozen
      pre-optimization baseline (full runs only; quick runs skip 32K).
    """
    scales = ((1, 2, MILLION_NPU_SCALE) if quick
              else (1, 2, 8, 16, 64, MILLION_NPU_SCALE))
    _run_scaling_scenario(1)  # warm-up: first-use imports etc.
    rows: List[Dict[str, float]] = [_run_scaling_scenario(s) for s in scales]
    walls = [r["wall_s"] for r in rows]
    out: Dict[str, object] = {
        "rows": rows,
        "flatness": round(max(walls) / max(min(walls), 1e-12), 2),
        "million_npu_wall_s": next(
            r["wall_s"] for r in rows if r["scale"] == MILLION_NPU_SCALE),
    }
    for row in rows:
        if row["scale"] == 64:
            out["speedup_vs_pre_fold_32k"] = round(
                PRE_FOLD_32K_BASELINE_WALL_S / max(row["wall_s"], 1e-12), 1)
    out["seed_engine_ab"] = _ab_seed_engine(
        quick, repeats=2 if quick else repeats)
    return out


# -- sweep campaigns --------------------------------------------------------------


def _campaign_spec(quick: bool):
    """Conv-4D chunk-count DSE: topology last dim x collective chunks."""
    from repro.campaign import SweepSpec

    last_dims = (4, 8) if quick else (4, 8, 12, 16)
    chunk_counts = (16, 32) if quick else (8, 16, 32, 64)
    return SweepSpec(
        base={
            "workload": "dp-gpt3",
            "scheduler": "themis",
            "bandwidths": "250,200,100,50",
            "latencies": "50,250,250,500",
        },
        grid={
            "topology": [f"Ring(2)_FC(8)_Ring(8)_Switch({d})"
                         for d in last_dims],
            "chunks": list(chunk_counts),
        },
    )


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS
        return os.cpu_count() or 1


def bench_campaign(quick: bool = False, jobs: int = 4) -> Dict[str, object]:
    """Serial vs cold-spawn vs warm-fleet vs warm-cache cost of one campaign.

    Runs the same sweep five ways and checks the merged documents are
    bit-identical after canonical serialisation:

    - serial in-process (the reference);
    - *cold spawn* — the normalized points mapped through
      :func:`repro.campaign.pool.run_one` on a plain single-use ``spawn``
      :class:`~concurrent.futures.ProcessPoolExecutor`, i.e. the
      pre-warm-pool fan-out whose ``parallel_speedup`` regressed to ~0.4
      on starved runners (timed here, outside the campaign runner);
    - *warm fleet* — the shared pre-imported fleet
      (:func:`repro.campaign.pool.get_shared_pool`), measured after
      ``warm_up`` so the number reflects steady state (what a second
      sweep or any ``repro serve`` request pays);
    - cold and warm through the content-addressed run cache.

    ``cpus`` records the affinity-visible core count because pool
    speedup over serial is physically bounded by it: a 1-core container
    cannot beat the serial run (the gate in ``test_perf_smoke`` only
    requires ``parallel_speedup > 1`` when ``cpus >= 2``); it still must
    match it bit-for-bit, and the warm fleet must beat cold spawn
    everywhere.
    """
    import multiprocessing
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from repro.campaign import (
        CampaignRunner,
        RunCache,
        canonical_campaign_json,
        canonical_json,
        get_shared_pool,
        normalize_point,
        run_one,
        run_point,
        shutdown_shared_pool,
    )

    spec = _campaign_spec(quick)
    if quick:
        jobs = min(jobs, 2)

    def timed(runner) -> tuple:
        start = time.perf_counter()
        result = runner.run(spec)
        return result, time.perf_counter() - start

    serial, serial_wall = timed(CampaignRunner(jobs=0))
    start = time.perf_counter()
    points = [normalize_point(p) for p in spec.expand()]
    with ProcessPoolExecutor(
            max_workers=min(jobs, len(points)),
            mp_context=multiprocessing.get_context("spawn")) as cold_pool:
        cold_spawn = list(cold_pool.map(
            run_one, [run_point] * len(points), points))
    cold_spawn_wall = time.perf_counter() - start
    shutdown_shared_pool()  # measure the warm fleet from a known state
    pool = get_shared_pool(jobs)
    pool.warm_up()
    warm_fleet, warm_fleet_wall = timed(CampaignRunner(jobs=jobs))
    start_method = pool.start_method
    shutdown_shared_pool()
    with tempfile.TemporaryDirectory() as cache_dir:
        cold, cold_wall = timed(CampaignRunner(jobs=0,
                                               cache=RunCache(cache_dir)))
        warm, warm_wall = timed(CampaignRunner(jobs=0,
                                               cache=RunCache(cache_dir)))
    docs = {canonical_campaign_json(r.to_dict())
            for r in (serial, warm_fleet, cold, warm)}
    cold_spawn_identical = canonical_json(
        [o.get("result") for o in cold_spawn]) == canonical_json(
            serial.results)
    return {
        "scenario": "Conv-4D dp-gpt3 chunk-count sweep "
                    "(topology last dim x collective chunks)",
        "points": len(spec),
        "cpus": _usable_cpus(),
        "jobs": jobs,
        "start_method": start_method,
        "errors": len(serial.errors),
        "serial_wall_s": round(serial_wall, 4),
        "cold_spawn_wall_s": round(cold_spawn_wall, 4),
        "parallel_wall_s": round(warm_fleet_wall, 4),
        "parallel_speedup": round(
            serial_wall / max(warm_fleet_wall, 1e-12), 2),
        "warm_vs_cold_spawn_speedup": round(
            cold_spawn_wall / max(warm_fleet_wall, 1e-12), 2),
        "cold_cache_wall_s": round(cold_wall, 4),
        "warm_cache_wall_s": round(warm_wall, 4),
        "warm_cache_speedup": round(cold_wall / max(warm_wall, 1e-12), 2),
        "warm_cache_counters": warm.cache_counters,
        "bit_identical": len(docs) == 1 and cold_spawn_identical,
    }


# -- telemetry overhead -----------------------------------------------------------


def _telemetry_scenario(telemetry, payload: int, count: int) -> float:
    """64-NPU All-Reduce burst (same shape as the fault-overhead bench)."""
    topology = repro.parse_topology("Ring(8)_Switch(8)", [100, 25])
    traces = generate_single_collective(
        topology, CollectiveType.ALL_REDUCE, payload, count=count)
    config = repro.SystemConfig(
        topology=topology, scheduler="baseline", collective_chunks=32,
        telemetry=telemetry)
    return repro.simulate(traces, config).total_time_ns


def bench_telemetry_overhead(quick: bool = False,
                             repeats: int = 9) -> Dict[str, object]:
    """Cost of the installed-but-idle telemetry collector.

    Mirrors ``benchmarks/test_fault_overhead.py``: the ``if telemetry is
    not None`` guards on the hot paths (phase reservation, collective
    completion, memory issue) must not slow uninstrumented simulations.
    Compares ``telemetry=None`` against a collector at trace level *off*
    with the sampler disabled, so the hooks run but record only counters.

    The full-size collective count is sized so one run costs ~150 ms:
    the symbolic-group fast path made the old 32-collective scenario
    finish in ~20 ms, where timer noise alone exceeds the 2% budget.
    """
    from repro.telemetry import TelemetryConfig, TraceLevel

    payload = 16 * MiB if quick else 64 * MiB
    count = 16 if quick else 256
    idle = TelemetryConfig(trace_level=TraceLevel.OFF, sample_interval_ns=0)

    base_total = _telemetry_scenario(None, payload, count)
    idle_total = _telemetry_scenario(idle, payload, count)

    # Interleave the A/B rounds so clock drift (thermal throttling, cache
    # state left by earlier benchmarks) hits both variants equally.
    base_best = idle_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            _telemetry_scenario(None, payload, count)
            base_best = min(base_best, time.perf_counter() - start)
            start = time.perf_counter()
            _telemetry_scenario(idle, payload, count)
            idle_best = min(idle_best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    overhead = idle_best / max(base_best, 1e-12) - 1.0
    return {
        "scenario": "64-NPU Ring(8)_Switch(8) All-Reduce x%d, 32 chunks" % count,
        "payload_bytes": payload,
        "bit_identical": base_total == idle_total,
        "base_wall_s": round(base_best, 4),
        "idle_wall_s": round(idle_best, 4),
        "overhead": round(overhead, 4),
    }


# -- invariant-checker overhead ---------------------------------------------------


def _invariant_scenario(invariants, payload: int, count: int) -> float:
    """Same 64-NPU All-Reduce burst as the telemetry bench."""
    topology = repro.parse_topology("Ring(8)_Switch(8)", [100, 25])
    traces = generate_single_collective(
        topology, CollectiveType.ALL_REDUCE, payload, count=count)
    config = repro.SystemConfig(
        topology=topology, scheduler="baseline", collective_chunks=32,
        invariants=invariants)
    return repro.simulate(traces, config).total_time_ns


def bench_invariant_overhead(quick: bool = False,
                             repeats: int = 9) -> Dict[str, object]:
    """Cost of the *enabled* runtime invariant checker.

    Unlike the telemetry bench (which measures an installed-but-idle
    collector), the checker has no idle mode: enabled means every hook
    actively validates.  Disabled (``invariants=None``) is the exact
    un-instrumented code path, so the interesting numbers are the
    enabled-run wall-clock overhead and whether checking perturbs
    simulated time (it must not — the checker only observes).

    Full-size collective count sized for a ~150 ms run, same reasoning
    as :func:`bench_telemetry_overhead`.
    """
    from repro.validate import InvariantConfig

    payload = 16 * MiB if quick else 64 * MiB
    count = 16 if quick else 256
    checked = InvariantConfig()

    base_total = _invariant_scenario(None, payload, count)
    checked_total = _invariant_scenario(checked, payload, count)

    base_best = checked_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            _invariant_scenario(None, payload, count)
            base_best = min(base_best, time.perf_counter() - start)
            start = time.perf_counter()
            _invariant_scenario(checked, payload, count)
            checked_best = min(checked_best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    overhead = checked_best / max(base_best, 1e-12) - 1.0
    return {
        "scenario": "64-NPU Ring(8)_Switch(8) All-Reduce x%d, 32 chunks" % count,
        "payload_bytes": payload,
        "bit_identical": base_total == checked_total,
        "base_wall_s": round(base_best, 4),
        "checked_wall_s": round(checked_best, 4),
        "overhead": round(overhead, 4),
    }


# -- backend speedup --------------------------------------------------------------


def _torus_allreduce(backend_cls, k: int, payload: int,
                     engine_cls=EventEngine, **kw) -> Dict[str, float]:
    topo = parse_topology(
        f"Ring({k})_Ring({k})_Ring({k})", [150, 150, 150],
        latencies_ns=[100, 100, 100])
    engine = engine_cls()
    net = backend_cls(engine, topo, **kw)
    executor = SendRecvCollectiveExecutor(engine, net)
    finished: List[float] = []
    groups = [topo.dim_group(npu, 0) for npu in range(topo.num_npus)
              if topo.coords(npu)[0] == 0]
    for group in groups:
        executor.run_ring_allreduce(list(group), payload,
                                    on_complete=finished.append)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    return {"collective_ns": max(finished), "wall_s": round(wall, 4),
            "events": engine.events_processed}


def bench_backend_speedup(quick: bool = False) -> Dict[str, object]:
    """Sec. IV-C: analytical vs Garnet-lite on the 64-NPU torus."""
    payload = 64 * 1024 if quick else 1 * MiB
    packet = 1024 if quick else 512
    analytical = _torus_allreduce(AnalyticalNetwork, 4, payload)
    garnet = _torus_allreduce(GarnetLiteNetwork, 4, payload,
                              packet_bytes=packet)
    return {
        "payload_bytes": payload,
        "packet_bytes": packet,
        "analytical": analytical,
        "garnet_lite": garnet,
        "wall_clock_speedup": round(
            garnet["wall_s"] / max(analytical["wall_s"], 1e-9), 1),
        "event_ratio": round(garnet["events"] / analytical["events"], 1),
    }


# -- adaptive granularity ---------------------------------------------------------


def _contended_alltoall(backend_cls, payload: int, **kw) -> Dict[str, object]:
    """Ring(8) all-to-all — the adaptive pillar's contended scenario."""
    topo = parse_topology("Ring(8)", [100.0], latencies_ns=[100.0])
    engine = EventEngine()
    net = backend_cls(engine, topo, **kw)
    executor = SendRecvCollectiveExecutor(engine, net)
    out: Dict[str, float] = {}
    executor.run_alltoall(list(range(topo.num_npus)), payload,
                          on_complete=lambda t: out.update(t=t))
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    return {"collective_ns": out["t"], "wall_s": round(wall, 4),
            "events": engine.events_processed, "net": net}


def bench_adaptive(quick: bool = False) -> Dict[str, object]:
    """Adaptive granularity vs pure packet on the contended scenario.

    ISSUE 10's headline number: on Ring(8) all-to-all (multi-hop routes
    genuinely converge onto shared links) the runtime controller must
    stay within the garnet error band while simulating a small fraction
    of the pure-packet event count.  Payloads match the adaptive
    pillar's contended axis — large enough that the backends' constant
    ~hop-latency offset is small against the serialization time.
    """
    payload = 2 * MiB if quick else 4 * MiB
    packet = 4096
    garnet = _contended_alltoall(GarnetLiteNetwork, payload,
                                 packet_bytes=packet)
    adaptive = _contended_alltoall(
        AdaptiveFlowNetwork, payload, escalation_threshold=1.0,
        deescalation_hysteresis=1.0, escalation_packet_bytes=packet)
    net = adaptive.pop("net")
    garnet.pop("net")
    rel = (abs(adaptive["collective_ns"] - garnet["collective_ns"])
           / garnet["collective_ns"])
    return {
        "scenario": "Ring(8) all-to-all, threshold=1, hysteresis=1",
        "payload_bytes": payload,
        "packet_bytes": packet,
        "garnet_lite": garnet,
        "adaptive": adaptive,
        "rel_error": round(rel, 6),
        "event_reduction": round(
            garnet["events"] / max(1, adaptive["events"]), 1),
        "wall_clock_speedup": round(
            garnet["wall_s"] / max(adaptive["wall_s"], 1e-9), 1),
        "escalations": net.escalations,
        "deescalations": net.deescalations,
        "granularity_handoffs": net.handoffs,
    }


def run_all(quick: bool = False) -> Dict[str, object]:
    """The full perf sweep as one JSON-serialisable dict."""
    import platform
    import sys

    return {
        "description": "Perf baseline for the event kernel and network "
                       "backends; regenerate with "
                       "`python benchmarks/perf/run_perf.py`.",
        "quick": quick,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "event_kernel": bench_event_kernel(quick=quick),
        "scaling": bench_scaling(quick=quick),
        "backend_speedup": bench_backend_speedup(quick=quick),
        "adaptive": bench_adaptive(quick=quick),
        "telemetry_overhead": bench_telemetry_overhead(quick=quick),
        "invariant_overhead": bench_invariant_overhead(quick=quick),
        "campaign": bench_campaign(quick=quick),
    }
