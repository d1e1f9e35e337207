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
import collections
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
from repro.runspec import (
    FIELDS, TRACE_FIELDS, TRACE_MEMO, PointConfigError, check_choices)
from repro.system import RooflineCompute
from repro.telemetry import TelemetryConfig, TraceLevel
from repro.trace import CollectiveType
from repro.workload import (
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
            # An op graph carries its own shapes and costs.
            shape = ("batch", "seq_len")
            for field in shape:
                if getattr(args, field):
                    raise _not_modeled(f"ingest:{model_json}", field, [
                        f for f in reads(args) if f not in shape])
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
    """The run's ``(traces, degrees)``; a later run with the same memo key
    gets the same traces (runs only read them) and ``args.graph_name``."""
    entry, spec, key = _resolve(args, topology)
    build = functools.partial(_build, args, topology, entry, spec)
    traces, args.graph_name = build() if key is None else TRACE_MEMO.lookup(
        key, build)
    return traces, spec


def _build(args, topology, entry, spec):
    if entry is FRONTEND:
        graph = ingest_from_args(args)
        return plan_from_args(args, graph, topology).traces, graph.name
    return entry.build(args, topology, spec), None


#: A trace producer: ``build(args, topology, spec)``, the trace fields it
#: reads besides its name, shape and degrees, each modeled degree's unset
#: value (``dp`` 0 fills the rest; ``spec`` is them resolved) and the model
#: whose state sizes a checkpoint.
Workload = collections.namedtuple(
    "Workload", "build fields degrees footprint", defaults=((), {}, None))
_MEGATRON = {"mp": 16, "dp": 0}

#: Every builtin workload, in ``repro.runspec.WORKLOADS`` order.
BUILTINS = {
    "allreduce": Workload(lambda a, t, s: generate_single_collective(
        t, CollectiveType.ALL_REDUCE, int(a.payload_mib * (1 << 20))),
        ("payload_mib",)),
    "alltoall": Workload(lambda a, t, s: generate_single_collective(
        t, CollectiveType.ALL_TO_ALL, int(a.payload_mib * (1 << 20))),
        ("payload_mib",)),
    "gpt3": Workload(lambda a, t, s: generate_megatron_hybrid(
        gpt3_175b(), t, s), (), _MEGATRON, gpt3_175b),
    "transformer1t": Workload(lambda a, t, s: generate_megatron_hybrid(
        transformer_1t(), t, s), (), _MEGATRON, transformer_1t),
    "dlrm": Workload(lambda a, t, s: generate_dlrm(dlrm_paper(), t)),
    "fsdp-gpt3": Workload(lambda a, t, s: generate_fsdp(gpt3_175b(), t)),
    "dp-gpt3": Workload(
        lambda a, t, s: generate_data_parallel(gpt3_175b(), t)),
    "pp-gpt3": Workload(lambda a, t, s: generate_pipeline_parallel(
        gpt3_175b(), t, s, microbatches=a.microbatches),
        ("microbatches",), {"mp": 1, "pp": 8, "dp": 0}),
    "moe1t": Workload(lambda a, t, s: generate_moe(
        moe_1t(), t, remote_parameters=a.memory_model != "local",
        inswitch_collectives=a.inswitch), ("memory_model", "inswitch")),
}

#: A ``--model``/``--model-json`` run, ingested and planned.  Its memo key
#: holds the degrees as given: the planner's TP auto-fit needs the graph.
FRONTEND = Workload(None, ("model", "model_json", "batch", "seq_len", "mp",
                           "dp", "pp", "ep", "microbatches"))


def _producer(args: argparse.Namespace):
    """The run's name, entry and trace fields read (degrees last)."""
    if _is_frontend(args):
        return (f"ingest:{args.model or args.model_json}", FRONTEND,
                ("topology", *FRONTEND.fields))
    entry = BUILTINS[args.workload]
    return args.workload, entry, ("topology", "workload", *entry.fields,
                                  *entry.degrees)


def reads(args: argparse.Namespace) -> tuple:
    """Every trace field the run's producer reads."""
    return _producer(args)[2]


def _not_modeled(name: str, field: str, read) -> PointConfigError:
    """The error for a trace field that producer ``name`` does not read."""
    flag = FIELDS[field].flag
    listed = ", ".join(FIELDS[f].flag for f in read if f not in (
        "topology", "workload", "model", "model_json")) or "no other field"
    return PointConfigError(f"workload {name!r} does not model {flag} (it "
                            f"reads: {listed}); leave {flag} unset")


def _resolve(args: argparse.Namespace, topology):
    """The run's ``(entry, degrees, memo key)``; a trace field that its
    producer does not read must be at its default.  The key is what the
    producer read (a builtin's degrees resolved), or None when a
    ``--model-json`` file cannot be read."""
    name, entry, read = _producer(args)
    for field in TRACE_FIELDS:
        if field not in read and getattr(args, field) != FIELDS[field].default:
            raise _not_modeled(name, field, read)
    spec = resolve_degrees(topology.num_npus, **{
        axis: getattr(args, axis) or default
        for axis, default in entry.degrees.items()})
    try:
        return entry, spec, (*(TRACE_FIELDS[f](getattr(args, f)) for f in
                               read[:len(read) - len(entry.degrees)]), spec)
    except OSError:
        return entry, spec, None


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


def _checkpoint_config(args: argparse.Namespace, spec):
    """Build the checkpoint model from CLI flags (None when disabled);
    a ``footprint`` model is sized at the run's resolved degrees."""
    if not args.checkpoint_interval_ms:
        return None
    interval_ns = args.checkpoint_interval_ms * 1e6
    footprint = _producer(args)[1].footprint
    if footprint is not None:
        from repro.memory.capacity import transformer_footprint

        return CheckpointConfig.from_footprint(
            transformer_footprint(footprint(), spec), interval_ns)
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
    traces, spec = _build_traces(args, topology)
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
            checkpoint=_checkpoint_config(args, spec))
        result = simulate(traces, config)
        if result.resilience is not None:
            result.resilience.baseline_ns = baseline.total_time_ns
            resilience = result.resilience
    else:
        result = simulate(traces, config)
    return topology, result, resilience
