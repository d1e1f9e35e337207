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

Each command imports what it runs, so ``repro serve`` (which only
dispatches to its warm fleet) starts without loading the simulator.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import InputError
from repro.runspec import FIELDS, PointConfigError, add_run_flags


def run_from_args(args: argparse.Namespace) -> int:
    from repro.runsim import simulate_from_args, workload_label
    from repro.stats import format_breakdown_table

    topology, result, resilience = simulate_from_args(
        args, collect_metrics=bool(args.metrics_out))
    workload = workload_label(args)
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
        RunCache,
        SweepSpec,
        base_point_from_args,
        campaign_summary,
        campaign_to_csv,
        campaign_table,
        dump_campaign_json,
    )

    spec = SweepSpec.from_cli(base_point_from_args(args),
                              args.grid or (), args.zip or ())
    if not args.grid and not args.zip:
        raise SystemExit(
            "error: a sweep needs at least one --grid or --zip axis "
            "(use the run subcommand for a single point)")
    runner = CampaignRunner(
        jobs=args.jobs,
        fail_fast=args.fail_fast,
        cache=RunCache(args.cache_dir) if args.cache_dir else None,
    )
    try:
        campaign = runner.run(spec)
    except CampaignError as exc:
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
    telemetry = campaign.telemetry
    print(f"traces   : "
          f"{telemetry.value('campaign', 'trace_memo_hits'):.0f} memo hits, "
          f"{telemetry.value('campaign', 'trace_memo_misses'):.0f} misses")
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

    return serve_forever(ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir or None,
        queue_depth=args.queue_depth,
        quiet=False,
    ))


def _cmd_validate(args: argparse.Namespace) -> int:
    """Run the repro.validate suites (see docs/validation.md)."""
    import json

    import repro.validate as validate
    from repro.runsim import reads, simulate_from_args, workload_label

    quick = not args.full
    suites = (("invariants", "metamorphic", "conformance", "adaptive",
               "frontend")
              if args.suite == "all" else (args.suite,))
    doc = {"schema_version": 1, "suites": list(suites), "quick": quick}
    failed = 0

    if "invariants" in suites:
        # An invariant-checked end-to-end run.  A user-supplied topology
        # becomes the scenario; otherwise a hierarchical default is used,
        # at 64 MiB unless --payload-mib was given.
        payload_default = FIELDS["payload_mib"].default
        if not args.topology:
            if args.bandwidths or args.latencies:
                raise PointConfigError(
                    "--bandwidths and --latencies need --topology (the "
                    "default invariants scenario brings its own)")
            args.topology, args.bandwidths = "Ring(2)_Switch(4)", "200,50"
            payload_default = 64.0
        if args.payload_mib is None:
            args.payload_mib = (payload_default if "payload_mib" in reads(args)
                                else FIELDS["payload_mib"].default)
        args.check_invariants = True
        topology, result, _ = simulate_from_args(args)
        report = result.invariants
        doc["invariants"] = report.to_dict()
        status = "ok" if report.ok else "FAIL"
        print(f"invariants  : {status}  ({report.checks} checks, "
              f"{report.violations_total} violations on "
              f"{topology.notation()}/{workload_label(args)})")
        for violation in report.violations[:10]:
            print(f"  [{violation.layer}/{violation.name}] "
                  f"{violation.message}")
        if not report.ok:
            failed += 1

    if "metamorphic" in suites:
        results = validate.run_metamorphic_suite(quick=quick)
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

    # The SuiteReport suites: (name, runner, case noun, failure label).
    for name, run_suite, noun, label in (
            ("conformance", validate.run_conformance_suite,
             "scenario cases", lambda c: c.scenario),
            ("adaptive", validate.run_adaptive_suite, "cases",
             lambda c: f"{c.axis}/{c.scenario}/{c.algorithm}"),
            ("frontend", validate.run_frontend_suite, "ingestion cases",
             lambda c: f"{c.axis}/{c.case}")):
        if name not in suites:
            continue
        report = run_suite(quick=quick)
        doc[name] = report.to_dict()
        detail = ""
        if name == "adaptive":
            reduction = min((c.event_reduction for c in report.cases
                             if c.axis == "contended"), default=0.0)
            detail = f"; contended event reduction {reduction:.1f}x"
        status = "ok" if report.passed else "FAIL"
        print(f"{name:<11} : {status}  ({report.cases_total} {noun}, "
              f"{len(report.failures)} failed{detail})")
        for case in report.failures[:10]:
            print(f"  [{label(case)}] {case.message}")
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
    from repro.runsim import (
        build_topology,
        ingest_from_args,
        ingest_ops_from_args,
        plan_from_args,
    )

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

    status = 0
    if args.lint:
        from repro.frontend import FrontendError, OpGraph
        from repro.workload import lint_op_graph

        # Lint the op list before it becomes a graph: construction stops
        # at the first structural fault, the linter reports them all.
        name, ops = ingest_ops_from_args(args)
        findings = lint_op_graph(ops, name)
        if findings:
            print(f"lint     : {len(findings)} finding(s)")
            for finding in findings:
                print(f"  {finding}")
            status = 1
        else:
            print("lint     : clean")
        try:
            graph = OpGraph(name, ops)
        except FrontendError:
            return 1
    else:
        graph = ingest_from_args(args)

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

        topology = build_topology(args)
        planned = plan_from_args(args, graph, topology)
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
    from repro.trace import load_trace
    from repro.trace.analysis import summarize

    trace = load_trace(args.path)
    print(summarize(trace).format())
    return 0


def _cmd_topology_info(args: argparse.Namespace) -> int:
    from repro.runsim import build_topology

    topology = build_topology(args)
    print(f"{topology.notation()}: {topology.num_npus} NPUs, "
          f"{topology.num_dims} dims, "
          f"{topology.total_bandwidth_gbps():g} GB/s per NPU, "
          f"{topology.total_links()} links")
    for i, dim in enumerate(topology.dims):
        print(f"  dim {i}: {dim.block.value}({dim.size}) "
              f"@ {dim.bandwidth_gbps:g} GB/s, {dim.latency_ns:g} ns/hop, "
              f"algorithm: {dim.block.collective_algorithm}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag like any bad input: as one ``error:`` line."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repro", description="ASTRA-sim 2.0 reproduction CLI")
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
    serve.set_defaults(func=_cmd_serve)

    validate = sub.add_parser(
        "validate",
        help="run the conformance/invariant suites (repro.validate): "
             "runtime invariants, metamorphic relations, and the "
             "cross-backend differential oracle")
    add_run_flags(validate)
    # None marks --payload-mib as not given (the invariants suite's
    # default scenario then picks its own payload).
    validate.set_defaults(payload_mib=None)
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
    except InputError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
