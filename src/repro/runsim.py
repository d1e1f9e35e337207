"""The simulate path: build and run one simulation from run fields.

Shared by ``repro run`` (its parsed flags), ``repro validate``'s
invariant-checked run and every campaign or ``repro serve`` point
(:func:`repro.runspec.run_namespace`), so a point runs exactly as the
equivalent ``repro run`` would.  Campaign workers import this module,
never :mod:`repro.cli`; it loads the simulator, while the frontend, the
invariant checker and the footprint model load only for the runs that
use them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
from pathlib import Path
from typing import Tuple

from repro.core import SystemConfig, simulate
from repro.errors import InputError
from repro.faults import CheckpointConfig, FaultSchedule
from repro.memory import (
    HierarchicalRemoteMemory,
    HierMemConfig,
    InSwitchCollectiveMemory,
    LocalMemory,
    ZeroInfinityConfig,
    ZeroInfinityMemory,
)
from repro.network import parse_topology
from repro.runspec import TRACE_MEMO, PointConfigError, check_choices, trace_key
from repro.system import RooflineCompute
from repro.telemetry import TelemetryConfig, TraceLevel
from repro.trace import CollectiveType
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
from repro.workload.parallelism import resolve_degrees


def point_errors(entry):
    """Re-raise an :class:`~repro.errors.InputError` out of ``entry`` as the
    ``PointConfigError`` campaign records and ``repro serve`` expect."""
    @functools.wraps(entry)
    def translated(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except PointConfigError:
            raise
        except InputError as exc:
            raise PointConfigError(str(exc)) from exc
    return translated


@point_errors
def build_topology(args: argparse.Namespace):
    """Parse --topology with its canonical --bandwidths/--latencies text."""
    if not args.topology or not args.bandwidths:
        raise PointConfigError(
            "--topology and --bandwidths are required (directly or "
            "via a sweep axis)")
    latencies = args.latencies.split(",") if args.latencies else ()
    return parse_topology(args.topology,
                          [float(x) for x in args.bandwidths.split(",")],
                          latencies_ns=[float(x) for x in latencies])


@point_errors
def ingest_from_args(args: argparse.Namespace):
    """Resolve --model / --model-json (+ shape overrides) into an op graph."""
    from repro.frontend import (
        OPGRAPH_FORMAT,
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


@point_errors
def ingest_ops_from_args(args: argparse.Namespace):
    """The ``(name, ops)`` of :func:`ingest_from_args`, before any check.

    An opgraph document's ops come back as parsed, so a linter can report
    every fault; the parsers build other specs, whose graphs are valid.
    """
    from repro.frontend import OPGRAPH_FORMAT, load_config, parse_opgraph

    if args.model_json and not args.model:
        payload = load_config(args.model_json)
        if payload.get("format") == OPGRAPH_FORMAT:
            return parse_opgraph(payload)
    graph = ingest_from_args(args)
    return graph.name, graph.ops


@point_errors
def plan_from_args(args: argparse.Namespace, graph, topology):
    """Plan an ingested op graph onto the topology with the run's degrees."""
    from repro.frontend import PlanConfig, plan

    return plan(graph, topology, PlanConfig(
        tp=args.mp, dp=args.dp, pp=args.pp, ep=args.ep,
        microbatches=args.microbatches))


def _is_frontend(args: argparse.Namespace) -> bool:
    return bool(args.model or args.model_json)


def workload_label(args: argparse.Namespace) -> str:
    """The workload's display name: ``ingest:<model>`` on the frontend path.

    Call it after :func:`simulate_from_args`, which names the ingested
    graph on ``args``.
    """
    if _is_frontend(args):
        return f"ingest:{args.graph_name}"
    return args.workload


def _build_traces(args: argparse.Namespace, topology):
    """The run's trace set, built once per process for each trace key.

    The key is the run's :data:`~repro.runspec.TRACE_FIELDS`; a later
    run with the same key gets the same trace objects (runs only read
    their traces) and the same ``args.graph_name``.
    """
    key = trace_key(args)
    if key is None:
        traces, graph_name = _trace_set(args, topology)
    else:
        traces, graph_name = TRACE_MEMO.lookup(
            key, lambda: _trace_set(args, topology))
    if graph_name is not None:
        args.graph_name = graph_name
    return traces


def _trace_set(args: argparse.Namespace, topology):
    """Build ``(traces, graph_name)``; the name is None off the frontend."""
    if _is_frontend(args):
        graph = ingest_from_args(args)
        return plan_from_args(args, graph, topology).traces, graph.name
    return _generate_traces(args, topology), None


#: The degrees each builtin workload models and an unset (0) one's value
#: (dp 0: fill the NPUs left); any other nonzero degree is an error.
WORKLOAD_DEGREES = {
    "gpt3": {"mp": 16, "dp": 0},
    "transformer1t": {"mp": 16, "dp": 0},
    "pp-gpt3": {"mp": 1, "pp": 8, "dp": 0},
}


def _workload_degrees(args: argparse.Namespace, topology) -> ParallelismSpec:
    """The builtin workload's degrees, resolved by ``resolve_degrees``."""
    modeled = WORKLOAD_DEGREES.get(args.workload, {})
    for axis in ("mp", "dp", "pp", "ep"):
        if getattr(args, axis) and axis not in modeled:
            raise PointConfigError(
                f"workload {args.workload!r} does not model --{axis} (its "
                f"degrees: {', '.join('--' + a for a in modeled) or 'none'}); "
                f"leave --{axis} at 0, or give --model to plan any strategy")
    return resolve_degrees(topology.num_npus, **{
        axis: getattr(args, axis) or default
        for axis, default in modeled.items()})


def _generate_traces(args: argparse.Namespace, topology):
    spec = _workload_degrees(args, topology)
    payload = int(args.payload_mib * (1 << 20))
    if args.workload == "allreduce":
        return generate_single_collective(
            topology, CollectiveType.ALL_REDUCE, payload)
    if args.workload == "alltoall":
        return generate_single_collective(
            topology, CollectiveType.ALL_TO_ALL, payload)
    if args.workload == "dlrm":
        return generate_dlrm(dlrm_paper(), topology)
    if args.workload == "moe1t":
        return generate_moe(
            moe_1t(), topology,
            remote_parameters=args.memory_model != "local",
            inswitch_collectives=args.inswitch)
    if args.workload in ("gpt3", "transformer1t"):
        model = gpt3_175b() if args.workload == "gpt3" else transformer_1t()
        return generate_megatron_hybrid(model, topology, spec)
    if args.workload == "fsdp-gpt3":
        return generate_fsdp(gpt3_175b(), topology)
    if args.workload == "dp-gpt3":
        return generate_data_parallel(gpt3_175b(), topology)
    if args.workload == "pp-gpt3":
        return generate_pipeline_parallel(
            gpt3_175b(), topology, spec, microbatches=args.microbatches)
    raise PointConfigError(f"unknown workload {args.workload!r}")


def _memory_models(args: argparse.Namespace, topology):
    """Local / remote / fabric memory models from the CLI flags.

    ``hiermem`` derives the pool geometry from the topology the way
    Table V does (:meth:`HierMemConfig.for_topology`).
    """
    local = LocalMemory(bandwidth_gbps=args.hbm_gbps)
    if args.inswitch and args.memory_model != "hiermem":
        raise PointConfigError(
            "--inswitch requires --memory-model hiermem (in-switch "
            "collectives run inside the pooled fabric)")
    if args.memory_model == "local":
        return local, None, None
    if args.memory_model == "zero-infinity":
        remote = ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=args.remote_path_gbps))
        return local, remote, None
    pool = HierMemConfig.for_topology(
        topology, args.fabric_bw_gbps, args.group_bw_gbps)
    return local, HierarchicalRemoteMemory(pool), InSwitchCollectiveMemory(pool)


def _checkpoint_config(args: argparse.Namespace, topology):
    """Build the checkpoint model from CLI flags (None when disabled)."""
    if not args.checkpoint_interval_ms:
        return None
    interval_ns = args.checkpoint_interval_ms * 1e6
    if args.workload in ("gpt3", "transformer1t") and not _is_frontend(args):
        from repro.memory.capacity import transformer_footprint

        model = (transformer_1t() if args.workload == "transformer1t"
                 else gpt3_175b())
        footprint = transformer_footprint(
            model, _workload_degrees(args, topology))
        return CheckpointConfig.from_footprint(footprint, interval_ns)
    return CheckpointConfig(interval_ns=interval_ns,
                            snapshot_bytes=args.checkpoint_gib * (1 << 30))


def _fault_schedule(args: argparse.Namespace, topology, horizon_ns: float):
    """Assemble the schedule from --faults specs and/or --fault-seed."""
    schedules = [FaultSchedule.parse(text) for text in args.faults or ()]
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
    level = TraceLevel.parse(args.trace_level)
    if level is TraceLevel.OFF and not collect_metrics:
        return None
    return TelemetryConfig(trace_level=level)


def _invariants_config(args: argparse.Namespace):
    """Build the invariant-checker config (None when disabled)."""
    if not args.check_invariants:
        return None
    from repro.validate import InvariantConfig

    return InvariantConfig(strict=args.strict_invariants)


@point_errors
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
    topology = build_topology(args)
    traces = _build_traces(args, topology)
    local_memory, remote_memory, fabric = _memory_models(args, topology)
    config = SystemConfig(
        topology=topology,
        scheduler=args.scheduler,
        collective_chunks=args.chunks,
        network_backend=args.backend,
        packet_bytes=args.packet_bytes,
        train_packets=args.train_packets,
        granularity=args.granularity,
        escalation_threshold=args.escalation_threshold,
        deescalation_hysteresis=args.deescalation_hysteresis,
        compute=RooflineCompute(
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
    if args.trace_level == "packet" and config.network_backend == "analytical":
        raise PointConfigError(
            "--trace-level packet requires --backend garnet or flow (or "
            "adaptive; the analytical backend does not model individual "
            "packets)")
    resilience = None
    if args.faults or args.fault_seed is not None:
        if config.network_backend != "analytical":
            raise PointConfigError(
                "--faults/--fault-seed require --backend analytical")
        # Fault-free baseline: the exact time-lost reference, and the
        # horizon seeded schedules are drawn over.
        baseline = simulate(traces, config)
        schedule = _fault_schedule(args, topology, baseline.total_time_ns)
        config = dataclasses.replace(
            config, faults=schedule,
            checkpoint=_checkpoint_config(args, topology))
        result = simulate(traces, config)
        if result.resilience is not None:
            result.resilience.baseline_ns = baseline.total_time_ns
            resilience = result.resilience
    else:
        result = simulate(traces, config)
    return topology, result, resilience
