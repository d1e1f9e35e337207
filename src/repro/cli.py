"""Command-line interface: run simulations without writing Python.

Usage::

    python -m repro.cli run --topology "Ring(2)_FC(8)_Ring(8)_Switch(4)" \\
        --bandwidths 250,200,100,50 --workload gpt3 --mp 16 --dp 32 \\
        --scheduler themis

    python -m repro.cli run --topology "Switch(512)" --bandwidths 600 \\
        --workload allreduce --payload-mib 1024

    python -m repro.cli sweep --topology "Ring(8)_Switch(8)" \\
        --bandwidths 100,25 --grid "payload_mib=64|256|1024" \\
        --grid "scheduler=baseline|themis" --jobs 4 --out results.json

    python -m repro.cli trace-info path/to/trace.json

    python -m repro.cli topology-info "Ring(4)_Switch(8)" --bandwidths 100,25
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import repro
from repro.runspec import PointConfigError, add_run_flags, check_choices
from repro.stats import format_breakdown_table
from repro.trace.analysis import summarize
from repro.workload import (
    ParallelismSpec,
    dlrm_paper,
    generate_data_parallel,
    generate_dlrm,
    generate_fsdp,
    generate_megatron_hybrid,
    generate_moe,
    generate_pipeline_parallel,
    generate_single_collective,
    gpt3_175b,
    moe_1t,
    transformer_1t,
)

def _parse_floats(text: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PointConfigError(f"not a comma-separated float list: {text!r}")


def _build_topology(args: argparse.Namespace):
    if not args.topology or not args.bandwidths:
        raise PointConfigError(
            "--topology and --bandwidths are required (directly or "
            "via a sweep axis)")
    latencies = _parse_floats(args.latencies) if args.latencies else ()
    bandwidths = _parse_floats(args.bandwidths)
    num_dims = len([s for s in args.topology.split("_") if s.strip()])
    if len(bandwidths) != num_dims:
        raise PointConfigError(
            f"--bandwidths lists {len(bandwidths)} value(s) but "
            f"topology {args.topology!r} has {num_dims} dimension(s); "
            "give one bandwidth per dimension")
    if latencies and len(latencies) != num_dims:
        raise PointConfigError(
            f"--latencies lists {len(latencies)} value(s) but "
            f"topology {args.topology!r} has {num_dims} dimension(s)")
    try:
        return repro.parse_topology(args.topology, bandwidths,
                                    latencies_ns=list(latencies))
    except repro.TopologyError as exc:
        raise PointConfigError(str(exc))


def _parallel_degrees(args: argparse.Namespace, topology, mp: int, pp: int = 1):
    """Validate mp/pp against the NPU count and auto-compute dp."""
    shard = mp * pp
    if shard < 1 or topology.num_npus % shard != 0:
        flags = f"--mp {mp}" + (f" x --pp {pp}" if pp > 1 else "")
        raise PointConfigError(
            f"{flags} does not divide the topology's "
            f"{topology.num_npus} NPUs; pick degrees whose product divides "
            "the NPU count")
    dp = args.dp or topology.num_npus // shard
    if mp * pp * dp > topology.num_npus:
        raise PointConfigError(
            f"mp x pp x dp = {mp * pp * dp} exceeds the topology's "
            f"{topology.num_npus} NPUs")
    return dp


def _ingest_from_args(args: argparse.Namespace):
    """Resolve --model / --model-json (+ shape overrides) into an op graph."""
    import dataclasses
    from pathlib import Path

    from repro.frontend import (
        OPGRAPH_FORMAT,
        FrontendError,
        build_op_graph,
        default_options_for,
        load_config,
        opgraph_from_dict,
        zoo_entry,
    )

    model, model_json = args.model, args.model_json
    if model and model_json:
        raise PointConfigError(
            "--model and --model-json are mutually exclusive; give "
            "one spec source")
    if not model and not model_json:
        raise PointConfigError(
            "no model spec; give --model NAME or --model-json PATH")
    try:
        if model:
            entry = zoo_entry(model)
            payload, options = entry.config, entry.options
        else:
            payload = load_config(model_json)
            if payload.get("format") == OPGRAPH_FORMAT:
                # Explicit op graphs carry their own shapes/costs; the
                # batch/seq knobs only apply to architecture configs.
                return opgraph_from_dict(payload)
            options = default_options_for(payload)
        overrides = {}
        if args.batch:
            overrides["batch"] = args.batch
        if args.seq_len:
            overrides["seq_len"] = args.seq_len
        if overrides:
            options = dataclasses.replace(options, **overrides)
        graph = build_op_graph(payload, options)
        graph.name = model or (graph.name or Path(model_json).stem)
        return graph
    except FrontendError as exc:
        raise PointConfigError(str(exc))


def _plan(args: argparse.Namespace, graph, topology):
    """Plan an ingested op graph onto the topology with the run's degrees."""
    from repro.frontend import FrontendError, PlanConfig, plan

    try:
        return plan(graph, topology, PlanConfig(
            tp=args.mp, dp=args.dp, pp=args.pp, ep=args.ep,
            microbatches=args.microbatches))
    except FrontendError as exc:
        raise PointConfigError(str(exc))


def _is_frontend(args: argparse.Namespace) -> bool:
    return bool(args.model or args.model_json)


def _workload_label(args: argparse.Namespace) -> str:
    """The workload's display name: ``ingest:<model>`` on the frontend path."""
    if _is_frontend(args):
        return f"ingest:{_ingest_from_args(args).name}"
    return args.workload


def _build_traces(args: argparse.Namespace, topology):
    if _is_frontend(args):
        return _plan(args, _ingest_from_args(args), topology).traces
    payload = int(args.payload_mib * (1 << 20))
    if args.workload == "allreduce":
        return generate_single_collective(
            topology, repro.CollectiveType.ALL_REDUCE, payload)
    if args.workload == "alltoall":
        return generate_single_collective(
            topology, repro.CollectiveType.ALL_TO_ALL, payload)
    if args.workload == "dlrm":
        return generate_dlrm(dlrm_paper(), topology)
    if args.workload == "moe1t":
        return generate_moe(
            moe_1t(), topology,
            remote_parameters=args.memory_model != "local",
            inswitch_collectives=args.inswitch)
    model = transformer_1t() if args.workload == "transformer1t" else gpt3_175b()
    if args.workload in ("gpt3", "transformer1t"):
        mp = args.mp or 16
        dp = _parallel_degrees(args, topology, mp)
        return generate_megatron_hybrid(
            model, topology, ParallelismSpec(mp=mp, dp=dp))
    if args.workload == "fsdp-gpt3":
        return generate_fsdp(gpt3_175b(), topology)
    if args.workload == "dp-gpt3":
        return generate_data_parallel(gpt3_175b(), topology)
    if args.workload == "pp-gpt3":
        mp = args.mp or 1
        pp = args.pp or 8
        dp = _parallel_degrees(args, topology, mp, pp)
        return generate_pipeline_parallel(
            gpt3_175b(), topology, ParallelismSpec(mp=mp, pp=pp, dp=dp),
            microbatches=args.microbatches)
    raise PointConfigError(f"unknown workload {args.workload!r}")


def _memory_models(args: argparse.Namespace, topology):
    """Local / remote / fabric memory models from the CLI flags.

    ``hiermem`` derives the pool geometry from the topology the way
    Table V does: dim 0 is the in-node switch (GPUs per node), one
    out-node switch per node, one remote memory group per GPU.
    """
    from repro.memory.local import LocalMemory

    local = LocalMemory(bandwidth_gbps=args.hbm_gbps)
    if args.inswitch and args.memory_model != "hiermem":
        raise PointConfigError(
            "--inswitch requires --memory-model hiermem (in-switch "
            "collectives run inside the pooled fabric)")
    if args.memory_model == "local":
        return local, None, None
    if args.memory_model == "zero-infinity":
        from repro.memory.zero_infinity import (
            ZeroInfinityConfig,
            ZeroInfinityMemory,
        )

        remote = ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=args.remote_path_gbps,
            num_gpus=topology.num_npus,
        ))
        return local, remote, None
    from repro.memory.inswitch import InSwitchCollectiveMemory
    from repro.memory.remote import HierMemConfig, HierarchicalRemoteMemory

    gpus_per_node = topology.dims[0].size
    num_nodes = topology.num_npus // gpus_per_node
    pool = HierMemConfig(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        num_out_switches=num_nodes,
        num_remote_groups=topology.num_npus,
        mem_side_bw_gbps=args.group_bw_gbps,
        gpu_side_out_bw_gbps=args.fabric_bw_gbps,
        in_node_bw_gbps=args.fabric_bw_gbps,
    )
    return local, HierarchicalRemoteMemory(pool), InSwitchCollectiveMemory(pool)


def _checkpoint_config(args: argparse.Namespace, topology):
    """Build the checkpoint model from CLI flags (None when disabled)."""
    if not args.checkpoint_interval_ms:
        return None
    from repro.faults import CheckpointConfig

    interval_ns = args.checkpoint_interval_ms * 1e6
    if args.workload in ("gpt3", "transformer1t") and not _is_frontend(args):
        from repro.memory.capacity import transformer_footprint

        model = (transformer_1t() if args.workload == "transformer1t"
                 else gpt3_175b())
        mp = args.mp or 16
        dp = _parallel_degrees(args, topology, mp)
        footprint = transformer_footprint(model, ParallelismSpec(mp=mp, dp=dp))
        return CheckpointConfig.from_footprint(footprint, interval_ns)
    return CheckpointConfig(interval_ns=interval_ns,
                            snapshot_bytes=args.checkpoint_gib * (1 << 30))


def _fault_schedule(args: argparse.Namespace, topology, horizon_ns: float):
    """Assemble the schedule from --faults specs and/or --fault-seed."""
    from repro.faults import FaultSchedule, FaultSpecError

    schedules = []
    try:
        for text in args.faults or ():
            schedules.append(FaultSchedule.parse(text))
    except FaultSpecError as exc:
        raise PointConfigError(str(exc))
    if args.fault_seed is not None:
        schedules.append(FaultSchedule.generate(
            seed=args.fault_seed,
            num_npus=topology.num_npus,
            num_dims=topology.num_dims,
            horizon_ns=horizon_ns,
            straggler_mtbf_ns=horizon_ns / 4,
            stall_mtbf_ns=horizon_ns / 8,
            degrade_mtbf_ns=horizon_ns / 8,
            linkdown_mtbf_ns=horizon_ns / 8,
            straggler_duration_ns=(horizon_ns / 20, horizon_ns / 4),
            stall_duration_ns=(horizon_ns / 50, horizon_ns / 10),
            degrade_duration_ns=(horizon_ns / 20, horizon_ns / 4),
        ))
    return FaultSchedule.merge(schedules)


def _telemetry_config(args: argparse.Namespace, collect_metrics: bool):
    """Build the telemetry config from CLI flags (None when disabled).

    Telemetry activates when metrics are exported (``collect_metrics``,
    set by ``--metrics-out``) or spans are requested (``--trace-level``
    above ``off``); otherwise the run stays on the un-instrumented fast
    path.
    """
    from repro.telemetry import TelemetryConfig, TelemetryError, TraceLevel

    try:
        level = TraceLevel.parse(args.trace_level)
    except TelemetryError as exc:
        raise PointConfigError(str(exc))
    if (level is TraceLevel.PACKET and args.backend == "analytical"
            and not args.granularity):
        raise PointConfigError(
            "--trace-level packet requires --backend garnet or flow "
            "(or a --granularity policy; the analytical backend does not "
            "model individual packets)")
    if level is TraceLevel.OFF and not collect_metrics:
        return None
    return TelemetryConfig(trace_level=level)


def _invariants_config(args: argparse.Namespace):
    """Build the invariant-checker config (None when disabled)."""
    if not args.check_invariants:
        return None
    from repro.validate import InvariantConfig

    return InvariantConfig(strict=args.strict_invariants)


def simulate_from_args(args: argparse.Namespace, collect_metrics: bool = False
                       ) -> Tuple[object, object, object]:
    """Build and run one simulation from run fields.

    The shared execution path of the ``run`` subcommand (parsed flags)
    and every campaign point (:func:`repro.runspec.run_namespace`):
    identical field semantics, no printing, and an invalid configuration
    raises :class:`~repro.runspec.PointConfigError`.  Returns
    ``(topology, result, resilience)``.
    """
    check_choices(args)
    topology = _build_topology(args)
    traces = _build_traces(args, topology)
    try:
        local_memory, remote_memory, fabric = _memory_models(args, topology)
        config = repro.SystemConfig(
            topology=topology,
            scheduler=args.scheduler,
            collective_chunks=args.chunks,
            network_backend=args.backend,
            packet_bytes=args.packet_bytes,
            train_packets=args.train_packets,
            granularity=args.granularity,
            escalation_threshold=args.escalation_threshold,
            deescalation_hysteresis=args.deescalation_hysteresis,
            compute=repro.RooflineCompute(
                peak_tflops=args.peak_tflops,
                mem_bandwidth_gbps=args.hbm_gbps,
            ),
            local_memory=local_memory,
            remote_memory=remote_memory,
            fabric_collectives=fabric,
            telemetry=_telemetry_config(args, collect_metrics),
            invariants=_invariants_config(args),
            folding=args.folding,
        )
    except ValueError as exc:  # PointConfigError included: same message
        raise PointConfigError(str(exc)) from exc
    resilience = None
    if args.faults or args.fault_seed is not None:
        if args.backend != "analytical" or args.granularity:
            raise PointConfigError(
                "--faults/--fault-seed require --backend analytical "
                "(and no --granularity policy)")
        import dataclasses

        # Fault-free baseline: the exact time-lost reference, and the
        # horizon seeded schedules are drawn over.
        baseline = repro.simulate(traces, config)
        schedule = _fault_schedule(args, topology, baseline.total_time_ns)
        try:
            config = dataclasses.replace(
                config, faults=schedule,
                checkpoint=_checkpoint_config(args, topology))
            traces = _build_traces(args, topology)  # fresh node state
            result = repro.simulate(traces, config)
        except repro.faults.FaultSpecError as exc:
            raise PointConfigError(str(exc))
        if result.resilience is not None:
            result.resilience.baseline_ns = baseline.total_time_ns
            resilience = result.resilience
    else:
        result = repro.simulate(traces, config)
    return topology, result, resilience


def run_from_args(args: argparse.Namespace) -> int:
    topology, result, resilience = simulate_from_args(
        args, collect_metrics=bool(args.metrics_out))
    workload = _workload_label(args)
    print(f"topology : {topology.notation()}  ({topology.num_npus} NPUs)")
    print(f"workload : {workload}  scheduler: {args.scheduler}  "
          f"chunks: {args.chunks}")
    print(f"total    : {result.total_time_ms:.3f} ms  "
          f"({result.nodes_executed} nodes, "
          f"{result.events_processed} events)")
    if result.folding is not None and result.folding.active:
        fold = result.folding
        print(f"folding  : {fold.num_classes} classes simulated for "
              f"{fold.traced_ranks} ranks "
              f"({fold.folded_ranks} folded away)")
    if args.sim_rate and result.simulation_rate_eps is not None:
        # Opt-in: wall-clock dependent, so off by default to keep the
        # CLI output deterministic across runs.
        print(f"sim rate : {result.simulation_rate_eps:,.0f} events/s  "
              f"({result.wall_time_s:.3f} s wall)")
    print()
    print(format_breakdown_table({workload: result.breakdown}))
    if resilience is not None:
        print("\nresilience:")
        print(resilience.format())
    elif args.faults or args.fault_seed is not None:
        print("\nresilience: schedule was empty; run matches the baseline")
    if args.collectives:
        print("\ncollectives:")
        for record in result.collectives[: args.collectives]:
            print(f"  {record.name:<28} {record.duration_ns / 1e3:10.1f} us  "
                  f"group {record.group_size}")
    if args.timeline and result.activity is not None:
        from repro.stats.timeline import render_timeline

        print()
        print(render_timeline(result.activity, result.total_time_ns,
                              width=args.timeline))
    if args.json_out:
        from repro.stats.export import dump_result_json

        dump_result_json(result, args.json_out)
        print(f"\nresult written to {args.json_out}")
    if args.chrome_trace and result.activity is not None:
        from repro.stats.chrometrace import dump_chrome_trace

        dump_chrome_trace(result.activity, args.chrome_trace,
                          collectives=result.collectives,
                          telemetry=result.telemetry)
        print(f"chrome trace written to {args.chrome_trace}")
    if args.metrics_out:
        from repro.telemetry import dump_metrics_json

        dump_metrics_json(result.telemetry, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if result.invariants is not None:
        report = result.invariants
        print(f"\ninvariants: {report.checks} checks, "
              f"{report.violations_total} violations")
        for key, count in sorted(report.counts_by_name().items()):
            print(f"  {key}: {count}")
        for violation in report.violations[:5]:
            print(f"  [{violation.layer}/{violation.name}] "
                  f"{violation.message}")
        if not report.ok:
            return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignError,
        CampaignRunner,
        SweepSpec,
        SweepSpecError,
        base_point_from_args,
        campaign_summary,
        campaign_to_csv,
        campaign_table,
        dump_campaign_json,
    )

    try:
        spec = SweepSpec.from_cli(base_point_from_args(args),
                                  args.grid or (), args.zip or ())
    except SweepSpecError as exc:
        raise SystemExit(f"error: {exc}")
    if not args.grid and not args.zip:
        raise SystemExit(
            "error: a sweep needs at least one --grid or --zip axis "
            "(use the run subcommand for a single point)")
    runner = CampaignRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir or None,
        fail_fast=args.fail_fast,
        batch_size=args.batch_size,
    )
    try:
        campaign = runner.run(spec)
    except (SweepSpecError, CampaignError) as exc:
        raise SystemExit(f"error: {exc}")
    doc = campaign.to_dict()
    print(f"sweep    : {len(campaign.points)} points, jobs={args.jobs}")
    print(campaign_table(doc))
    summary = campaign_summary(doc)
    stats = summary["total_time_ms"]
    if stats["count"]:
        print(f"\ntotal_time_ms: min {stats['min']:.3f}  "
              f"median {stats['median']:.3f}  mean {stats['mean']:.3f}  "
              f"max {stats['max']:.3f}")
    if summary["errors"]:
        print(f"errors   : {summary['errors']} of {len(campaign.points)} "
              "points failed (see the merged output for tracebacks)")
    if campaign.cache_counters is not None:
        counters = campaign.cache_counters
        print(f"cache    : {counters['hits']} hits, "
              f"{counters['misses']} misses"
              + (f", {counters['corrupted']} corrupted entries recovered"
                 if counters["corrupted"] else ""))
    if args.out:
        dump_campaign_json(doc, args.out)
        print(f"\nmerged results written to {args.out}")
    if args.csv_out:
        from pathlib import Path

        Path(args.csv_out).write_text(campaign_to_csv(doc))
        print(f"CSV table written to {args.csv_out}")
    return 1 if summary["errors"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.campaign.serve import ServeConfig, serve_forever

    if args.jobs < 0:
        raise SystemExit(f"error: --jobs must be >= 0, got {args.jobs}")
    if args.queue_depth < 1:
        raise SystemExit(
            f"error: --queue-depth must be >= 1, got {args.queue_depth}")
    return serve_forever(ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir or None,
        queue_depth=args.queue_depth,
        batch_size=args.batch_size,
        quiet=False,
    ))


def _cmd_validate(args: argparse.Namespace) -> int:
    """Run the repro.validate suites (see docs/validation.md)."""
    import json

    from repro.validate import run_conformance_suite, run_metamorphic_suite

    quick = not args.full
    suites = (("invariants", "metamorphic", "conformance", "adaptive",
               "frontend")
              if args.suite == "all" else (args.suite,))
    doc = {"schema_version": 1, "suites": list(suites), "quick": quick}
    failed = 0

    if "invariants" in suites:
        # An invariant-checked end-to-end run.  A user-supplied topology
        # becomes the scenario; otherwise a hierarchical default is used.
        if not args.topology:
            args.topology, args.bandwidths = "Ring(2)_Switch(4)", "200,50"
            if args.payload_mib == 1024.0:
                args.payload_mib = 64.0
        args.check_invariants = True
        topology, result, _ = simulate_from_args(args)
        report = result.invariants
        doc["invariants"] = report.to_dict()
        status = "ok" if report.ok else "FAIL"
        print(f"invariants  : {status}  ({report.checks} checks, "
              f"{report.violations_total} violations on "
              f"{topology.notation()}/{_workload_label(args)})")
        for violation in report.violations[:10]:
            print(f"  [{violation.layer}/{violation.name}] "
                  f"{violation.message}")
        if not report.ok:
            failed += 1

    if "metamorphic" in suites:
        results = run_metamorphic_suite(quick=quick)
        bad = [r for r in results if not r.passed]
        doc["metamorphic"] = {
            "passed": not bad,
            "relations_total": len(results),
            "relations_failed": len(bad),
            "results": [r.to_dict() for r in results],
        }
        status = "ok" if not bad else "FAIL"
        print(f"metamorphic : {status}  ({len(results)} relation cases, "
              f"{len(bad)} failed)")
        for r in bad[:10]:
            print(f"  [{r.relation}/{r.case}] {r.message}")
        if bad:
            failed += 1

    if "conformance" in suites:
        report = run_conformance_suite(quick=quick)
        doc["conformance"] = report.to_dict()
        total = (len(report.cases) + len(report.memory_cases)
                 + len(report.folding_cases))
        status = "ok" if report.passed else "FAIL"
        print(f"conformance : {status}  ({total} scenario cases, "
              f"{len(report.failures)} failed)")
        for case in report.failures[:10]:
            print(f"  [{case.scenario}] {case.message}")
        if not report.passed:
            failed += 1

    if "adaptive" in suites:
        from repro.validate import run_adaptive_suite

        report = run_adaptive_suite(quick=quick)
        doc["adaptive"] = report.to_dict()
        status = "ok" if report.passed else "FAIL"
        contended = [c for c in report.cases if c.axis == "contended"]
        reduction = min((c.event_reduction for c in contended),
                        default=0.0)
        print(f"adaptive    : {status}  ({len(report.cases)} cases, "
              f"{len(report.failures)} failed; contended event "
              f"reduction {reduction:.1f}x)")
        for case in report.failures[:10]:
            print(f"  [{case.axis}/{case.scenario}/{case.algorithm}] "
                  f"{case.message}")
        if not report.passed:
            failed += 1

    if "frontend" in suites:
        from repro.validate import run_frontend_suite

        report = run_frontend_suite(quick=quick)
        doc["frontend"] = report.to_dict()
        status = "ok" if report.passed else "FAIL"
        print(f"frontend    : {status}  ({len(report.cases)} ingestion "
              f"cases, {len(report.failures)} failed)")
        for case in report.failures[:10]:
            print(f"  [{case.axis}/{case.case}] {case.message}")
        if not report.passed:
            failed += 1

    doc["passed"] = failed == 0
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report_out}")
    return 1 if failed else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a model spec: inspect, lint, export, or emit traces."""
    from repro.frontend import zoo_entries, zoo_names

    if args.list_models:
        print(f"{'model':<14} description")
        for entry in zoo_entries():
            print(f"{entry.name:<14} {entry.description}")
        return 0
    if not args.spec:
        raise SystemExit(
            "error: give a model spec (a zoo name or a JSON path), or "
            "--list-models")
    if args.spec in zoo_names():
        args.model, args.model_json = args.spec, ""
    else:
        args.model, args.model_json = "", args.spec
    graph = _ingest_from_args(args)

    status = 0
    if args.lint:
        from repro.workload import lint_op_graph

        findings = lint_op_graph(graph)
        if findings:
            print(f"lint     : {len(findings)} finding(s)")
            for finding in findings:
                print(f"  {finding}")
            status = 1
        else:
            print("lint     : clean")

    summary = graph.summary()
    print(f"model    : {summary['name']}  ({summary['ops']} ops, "
          f"{summary['layers']} layers)")
    print(f"compute  : {summary['total_gflops']:,.0f} GFLOPs fwd/iter, "
          f"{summary['total_params']:,} params "
          f"({summary['param_gib']} GiB)")
    kinds = ", ".join(f"{kind}={count}" for kind, count
                      in sorted(summary["ops_by_kind"].items()))
    print(f"ops      : {kinds}")
    print(f"parallel : {summary['tensor_parallel_ops']} tensor-parallel "
          f"ops, {summary['routed_ops']} routed ops")

    if args.out:
        from repro.frontend import save_opgraph

        save_opgraph(graph, args.out)
        print(f"opgraph written to {args.out}")

    if args.emit_traces:
        from pathlib import Path

        from repro.trace.serialization import save_trace

        topology = _build_topology(args)
        planned = _plan(args, graph, topology)
        out_dir = Path(args.emit_traces)
        out_dir.mkdir(parents=True, exist_ok=True)
        for npu, trace in sorted(planned.traces.items()):
            save_trace(trace, out_dir / f"{graph.name}.npu{npu}.json")
        degrees = planned.summary()["parallelism"]
        print(f"plan     : tp={degrees['tp']} dp={degrees['dp']} "
              f"pp={degrees['pp']} ep={degrees['ep']} on "
              f"{topology.notation()}")
        print(f"{len(planned.traces)} representative trace(s) written to "
              f"{out_dir}/")
    return status


def _cmd_trace_info(args: argparse.Namespace) -> int:
    trace = repro.load_trace(args.path)
    print(summarize(trace).format())
    return 0


def _cmd_topology_info(args: argparse.Namespace) -> int:
    topology = _build_topology(args)
    print(f"{topology.notation()}: {topology.num_npus} NPUs, "
          f"{topology.num_dims} dims, "
          f"{topology.total_bandwidth_gbps():g} GB/s per NPU, "
          f"{topology.total_links()} links")
    for i, dim in enumerate(topology.dims):
        print(f"  dim {i}: {dim.block.value}({dim.size}) "
              f"@ {dim.bandwidth_gbps:g} GB/s, {dim.latency_ns:g} ns/hop, "
              f"algorithm: {dim.block.collective_algorithm}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ASTRA-sim 2.0 reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload on a topology")
    add_run_flags(run, required=("topology", "bandwidths"))
    run.add_argument("--collectives", type=int, default=0,
                     help="print the first N collective records")
    run.add_argument("--json-out", default="",
                     help="dump the full result to a JSON file")
    run.add_argument("--chrome-trace", default="",
                     help="dump a chrome://tracing / Perfetto trace JSON")
    run.add_argument("--timeline", type=int, default=0, metavar="WIDTH",
                     help="render a per-NPU activity timeline WIDTH cols wide")
    run.add_argument("--sim-rate", action="store_true",
                     help="print simulator throughput (events/s; wall-clock "
                          "dependent, so output is no longer deterministic)")
    run.add_argument("--metrics-out", default="", metavar="PATH",
                     help="dump the telemetry metrics registry to a "
                          "metrics.json file (enables telemetry)")
    run.set_defaults(func=run_from_args)

    sweep = sub.add_parser(
        "sweep",
        help="run a sweep campaign over run-flag axes, optionally in "
             "parallel and through the run cache")
    add_run_flags(sweep)
    sweep.add_argument("--grid", action="append", metavar="FIELD=V1|V2|...",
                       help="cartesian-product axis over a run flag "
                            "(repeatable; the last axis varies fastest)")
    sweep.add_argument("--zip", action="append", metavar="FIELD=V1|V2|...",
                       help="linked axis: equal-length value lists that "
                            "vary together (e.g. topology with its "
                            "bandwidths)")
    sweep.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="worker processes (0 = serial in-process; "
                            "results are bit-identical either way)")
    sweep.add_argument("--cache-dir", default="", metavar="DIR",
                       help="content-addressed run cache: re-running a "
                            "sweep only simulates changed points")
    sweep.add_argument("--batch-size", type=int, default=0, metavar="N",
                       help="points per worker task (0 = auto, about two "
                            "tasks per worker); merged output is "
                            "bit-identical at any batch size")
    sweep.add_argument("--fail-fast", action="store_true",
                       help="abort the campaign on the first failed point "
                            "instead of recording a structured error")
    sweep.add_argument("--out", default="", metavar="PATH",
                       help="write the merged campaign JSON document")
    sweep.add_argument("--csv-out", default="", metavar="PATH",
                       help="write the per-point aggregate table as CSV")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP daemon: POST /run and /sweep over a persistent "
             "warm worker fleet with a shared run cache (see "
             "docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8351,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8351)")
    serve.add_argument("--jobs", type=int, default=0, metavar="N",
                       help="warm worker processes shared by all requests "
                            "(0 = execute in the request thread)")
    serve.add_argument("--cache-dir", default="", metavar="DIR",
                       help="content-addressed run cache shared across "
                            "clients: identical requests dedup to one "
                            "simulation")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="max requests in flight before the daemon "
                            "answers 429 (default: 8)")
    serve.add_argument("--batch-size", type=int, default=0, metavar="N",
                       help="default points per worker task for /sweep "
                            "requests (0 = auto)")
    serve.set_defaults(func=_cmd_serve)

    validate = sub.add_parser(
        "validate",
        help="run the conformance/invariant suites (repro.validate): "
             "runtime invariants, metamorphic relations, and the "
             "cross-backend differential oracle")
    add_run_flags(validate)
    validate.add_argument("--suite",
                          choices=("invariants", "metamorphic",
                                   "conformance", "adaptive", "frontend",
                                   "all"),
                          default="all",
                          help="which pillar to run (default: all)")
    validate.add_argument("--full", action="store_true",
                          help="run the full scenario matrix instead of "
                               "the quick subset")
    validate.add_argument("--report-out", default="", metavar="PATH",
                          help="write the versioned validation report JSON")
    validate.set_defaults(func=_cmd_validate)

    ingest = sub.add_parser(
        "ingest",
        help="ingest a model spec (HF config.json, opgraph JSON, or zoo "
             "name) through the frontend: inspect, lint, export, or emit "
             "execution traces")
    ingest.add_argument("spec", nargs="?", default="",
                        help="zoo model name or path to a config/opgraph "
                             "JSON file")
    ingest.add_argument("--list-models", action="store_true",
                        help="list the registered zoo models and exit")
    ingest.add_argument("--lint", action="store_true",
                        help="lint the ingested op graph "
                             "(repro.workload.lint); findings fail the "
                             "command")
    add_run_flags(ingest, ("batch", "seq_len"))
    ingest.add_argument("--out", default="", metavar="PATH",
                        help="export the normalized op graph as "
                             "repro-opgraph JSON")
    ingest.add_argument("--emit-traces", default="", metavar="DIR",
                        help="plan on --topology/--bandwidths and write the "
                             "representative execution traces as ET JSON "
                             "files")
    add_run_flags(ingest.add_argument_group(
        "--emit-traces system", "the system the traces are planned on"),
        ("topology", "bandwidths", "latencies", "mp", "dp", "pp", "ep",
         "microbatches"))
    ingest.set_defaults(func=_cmd_ingest)

    info = sub.add_parser("trace-info", help="summarize an ET JSON file")
    info.add_argument("path")
    info.set_defaults(func=_cmd_trace_info)

    topo = sub.add_parser("topology-info", help="describe a topology string")
    topo.add_argument("topology")
    add_run_flags(topo, ("bandwidths", "latencies"), required=("bandwidths",))
    topo.set_defaults(func=_cmd_topology_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PointConfigError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
