"""Automatic parallelism annotation: op graph + topology → execution traces.

The planner maps an ingested :class:`~repro.frontend.ir.OpGraph` onto a
:class:`~repro.network.topology.MultiDimTopology` through the degree
rule and layout helpers of :mod:`repro.workload.parallelism` that the
builtin generators use too.  It then prices each op's
forward and backward once per plan, walks each stage's ops once per
direction to find their in-stage edges, and lowers every op of every
microbatch, forward and backward alike, through one loop body into
per-NPU Chakra-style execution traces that run unmodified on all three
network backends.

Lowering rules (Megatron/ZeRO-style, mirroring
:mod:`repro.workload.generators`):

- **TP** (innermost dims): ``col`` ops shard comm-free in the forward
  and All-Reduce their input gradient in the backward *iff* their input
  was replicated; ``row`` ops All-Reduce their partial-sum output in
  the forward.  Sharded ops divide FLOPs and parameter bytes by the
  degree.
- **EP**: ``routed`` ops (MoE experts, DLRM embedding bags) are wrapped
  in dispatch/combine All-to-Alls over the expert dims — or over the DP
  dims when ``ep == 1``, which is exactly DLRM's table sharding across
  the data-parallel ranks.
- **PP**: contiguous layer groups are balanced onto stages by FLOPs;
  stages exchange per-microbatch boundary activations with send/recv
  pairs under a GPipe or 1F1B issue order, one representative trace per
  stage.
- **DP** (outermost dims): per-layer-group weight-gradient All-Reduces
  depend only on that group's backward ops, so they overlap deeper
  groups' backward — the overlap structure the paper's case studies
  measure.  Routed (model-parallel) parameters are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.frontend.ir import FrontendError, OpGraph, OpNode
from repro.network.topology import MultiDimTopology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType
from repro.workload.generators import TraceBuilder
from repro.workload.parallelism import (
    DimAssignmentError,
    ParallelismSpec,
    assign_dims_or_flat,
    check_schedule,
    p2p_tag,
    resolve_degrees,
    stage_op_sequence,
    stage_representatives,
)


@dataclass(frozen=True)
class PlanConfig:
    """Requested parallelization; ``0`` degrees are auto-fitted.

    Auto rules: TP takes the innermost topology dimension when the graph
    has tensor-parallel ops, DP absorbs every NPU left over, PP and EP
    stay 1 unless requested.
    """

    tp: int = 0
    dp: int = 0
    pp: int = 0
    ep: int = 0
    microbatches: int = 4
    schedule: str = "1f1b"
    iterations: int = 1
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        for name in ("tp", "dp", "pp", "ep"):
            if getattr(self, name) < 0:
                raise FrontendError(
                    f"{name} must be >= 0 (0 = auto), got "
                    f"{getattr(self, name)}")
        for name in ("iterations", "dtype_bytes"):
            if getattr(self, name) < 1:
                raise FrontendError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        check_schedule(self.schedule, self.microbatches, FrontendError)


@dataclass
class Plan:
    """A planned workload: traces plus the strategy that produced them."""

    graph: OpGraph
    topology: MultiDimTopology
    spec: ParallelismSpec
    assignment: Dict[str, Tuple[int, ...]]
    traces: Dict[int, ExecutionTrace]
    stage_layers: List[List[Optional[int]]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        nodes = sum(len(t) for t in self.traces.values())
        return {
            "model": self.graph.name,
            "ops": len(self.graph),
            "parallelism": {"tp": self.spec.mp, "dp": self.spec.dp,
                            "pp": self.spec.pp, "ep": self.spec.ep},
            "dim_assignment": {axis: list(dims) for axis, dims
                               in self.assignment.items()},
            "representative_traces": len(self.traces),
            "trace_nodes": nodes,
            "stage_layers": [
                [l for l in layers] for layers in self.stage_layers],
        }


def resolve_parallelism(
    graph: OpGraph, topology: MultiDimTopology, config: PlanConfig
) -> ParallelismSpec:
    """Fill auto (0) degrees against the graph and topology (see
    :class:`PlanConfig`)."""
    if config.pp > 1 and graph.num_layers < config.pp:
        raise FrontendError(
            f"pp={config.pp} needs a layered graph with >= {config.pp} "
            f"layers; {graph.name!r} has {graph.num_layers}")
    tp = config.tp or (topology.dims[0].size
                       if graph.has_tensor_parallel_ops() else 1)
    return resolve_degrees(topology.num_npus, tp, config.dp, config.pp,
                           config.ep, FrontendError)


def _split_stages(graph: OpGraph, pp: int) -> List[List[Optional[int]]]:
    """Balance layer groups onto ``pp`` contiguous stages by FLOPs.

    The stem (pre-stack ops) joins the first stage and the head joins
    the last, as real pipeline placements do.
    """
    groups = graph.layer_groups()
    if pp == 1:
        return [[key for key, _ in groups]]
    flops = [sum(op.flops for op in ops) for _, ops in groups]
    total = sum(flops) or 1
    target = total / pp
    stages: List[List[Optional[int]]] = [[] for _ in range(pp)]
    stage, acc = 0, 0
    for i, (key, _ops) in enumerate(groups):
        remaining_groups = len(groups) - i
        remaining_stages = pp - stage
        if (stage < pp - 1 and acc >= target
                and remaining_groups > remaining_stages - 1
                and stages[stage]):
            stage += 1
            acc = 0
        stages[stage].append(key)
        acc += flops[i]
    # Guarantee every stage is non-empty (tiny graphs, skewed FLOPs).
    for s in range(pp):
        if not stages[s]:
            donor = max(range(pp), key=lambda d: len(stages[d]))
            if len(stages[donor]) <= 1:
                raise FrontendError(
                    f"cannot split {len(groups)} layer groups onto "
                    f"{pp} pipeline stages")
            stages[s].append(stages[donor].pop())
    return stages


def plan(
    graph: OpGraph,
    topology: MultiDimTopology,
    config: PlanConfig = PlanConfig(),
) -> Plan:
    """Annotate and lower an op graph into per-NPU execution traces."""
    spec = resolve_parallelism(graph, topology, config)
    tp, pp, ep = spec.mp, spec.pp, spec.ep

    try:
        assignment, mp_group, dp_group = assign_dims_or_flat(topology, spec)
    except DimAssignmentError as exc:
        raise FrontendError(
            f"parallelism {spec} does not align with topology "
            f"dimension boundaries: {exc}") from exc
    mp_dims = assignment["mp"] or None
    dp_dims = assignment["dp"] or None
    has_mp = mp_dims is not None or mp_group is not None
    has_dp = dp_dims is not None or dp_group is not None
    # Routed ops exchange over the EP dims, falling back to the DP dims
    # (DLRM: tables sharded across the data-parallel ranks).
    if ep > 1:
        route_dims, route_group = assignment["ep"], None
    else:
        route_dims, route_group = dp_dims, dp_group
    has_route = route_dims is not None or route_group is not None

    stage_layers = _split_stages(graph, pp)
    stage_of = {key: s for s, keys in enumerate(stage_layers) for key in keys}
    stage_ops: List[List[OpNode]] = [[] for _ in range(pp)]
    for op in graph.topological_order():
        stage_ops[stage_of[op.layer]].append(op)
    for s, ops in enumerate(stage_ops):
        if not ops:
            raise FrontendError(
                f"pipeline stage {s} received no ops; reduce pp")

    microbatches = config.microbatches if pp > 1 else 1
    reps = stage_representatives(topology, assignment["pp"], pp)

    def sharded(op: OpNode, value: int) -> int:
        shard = tp if op.tp != "none" else 1
        eshard = ep if (op.routed and ep > 1) else 1
        return max(1, value // (shard * eshard)) if value else 0

    def mb_scale(value: int) -> int:
        return max(1, value // microbatches) if value else 0

    def pass_costs(op: OpNode) -> Tuple[_Costs, _Costs]:
        """The op's forward and backward costs per microbatch.

        Routed ops run between a dispatch and a combine All-to-All.
        Otherwise a ``row`` op All-Reduces its partial-sum output in the
        forward, and a ``col`` op whose input was replicated All-Reduces
        its input gradient's partial sums in the backward.
        """
        flops = mb_scale(sharded(op, op.flops))
        out_bytes = mb_scale(op.output_bytes // tp if op.tp == "col"
                             and tp > 1 else op.output_bytes)
        route = fwd_ar = bwd_ar = None
        if op.routed and has_route:
            route = mb_scale(op.route_bytes)
        elif has_mp and op.tp == "row":
            fwd_ar = mb_scale(op.output_bytes)
        elif (has_mp and op.tp == "col"
              and all(graph.op(d).tp == "none" for d in op.deps)):
            bwd_ar = mb_scale(op.input_bytes or op.output_bytes)
        return ((flops, out_bytes, route, fwd_ar),
                (2 * flops, out_bytes, route, bwd_ar))

    def walks(ops: List[OpNode]) -> Tuple[List[_Step], List[_Step]]:
        """The stage's forward walk (along deps, in order) and backward
        walk (along consumers, in reverse order), one step per op.  Each
        op is in one stage, so each is priced once per plan.

        A step's in-stage edges are indices of earlier steps of the same
        walk; a step without them is a stage root.  Only backward steps
        of ops with unrouted parameters carry a gradient-bucket key.
        """
        index = {op.op_id: i for i, op in enumerate(ops)}
        last = len(ops) - 1
        fwd: List[_Step] = []
        bwd: List[_Step] = []
        for op in ops:
            fwd_costs, bwd_costs = pass_costs(op)
            local = [index[e] for e in op.deps if e in index]
            fwd.append((op.name, fwd_costs, local,
                        len(local) < len(op.deps), None))
            edges = graph.consumers(op.op_id)
            local = [last - index[e] for e in edges if e in index]
            key = (_group_key(op) if op.param_bytes and not op.routed
                   else None)
            bwd.append((op.name, bwd_costs, local,
                        len(local) < len(edges), key))
        bwd.reverse()
        return fwd, bwd

    # Each stage is traced on its own representative: its forward and
    # backward microbatches in schedule order, then the DP weight-gradient
    # All-Reduces (per layer group, overlapping) and the optimizer step.
    traces: Dict[int, ExecutionTrace] = {}
    for s, ops in enumerate(stage_ops):
        b = TraceBuilder(reps[s])
        collective, compute = b.collective, b.compute
        fwd_walk, bwd_walk = walks(ops)
        boundary_in = mb_scale(ops[0].input_bytes or ops[0].output_bytes)
        boundary_out = mb_scale(ops[-1].output_bytes or ops[-1].input_bytes)
        # Weight-gradient bytes per layer group; routed parameters are
        # model-parallel and excluded.
        group_bytes: Dict[Any, int] = {}
        opt_params = 0
        for op in ops:
            params = sharded(op, op.param_bytes)
            opt_params += params
            if op.param_bytes and not op.routed:
                key = _group_key(op)
                group_bytes[key] = group_bytes.get(key, 0) + params
        opt_params //= config.dtype_bytes
        sequence = stage_op_sequence(config.schedule, pp, s, microbatches)
        prev: Tuple[int, ...] = ()
        for it in range(config.iterations):
            grad_deps: Dict[Any, List[int]] = {}
            fwd_out: Dict[int, int] = {}
            for kind, mb in sequence:
                # The forward walks the stage along deps from the
                # previous stage; the backward walks it in reverse,
                # along consumers, from the next stage.
                forward = kind == "f"
                if forward:
                    walk = fwd_walk
                    src, dst = s - 1, s + 1
                    recv_bytes, send_bytes = boundary_in, boundary_out
                else:
                    walk = bwd_walk
                    src, dst = s + 1, s - 1
                    recv_bytes, send_bytes = boundary_out, boundary_in
                stem, dispatch, combine, all_reduce = _NODE_NAMES[forward]
                recv_id = None
                if 0 <= src < pp:
                    recv_id = b.recv(
                        f"it{it}.recv{kind.upper()}.s{s}.mb{mb}", reps[src],
                        recv_bytes, p2p_tag(it, kind, s, mb, pp, microbatches),
                        deps=prev)
                nodes: List[int] = []
                for name, cost, local, external, grad_key in walk:
                    if local:
                        deps = [nodes[i] for i in local]
                        if external and recv_id is not None:
                            deps.append(recv_id)
                    else:
                        # Stage/graph root: chain on the stage's previous
                        # activity (serializes microbatches, as the
                        # builtin pipeline generator does); a backward
                        # also starts from this microbatch's forward
                        # output (the loss).  Plus the boundary transfer.
                        deps = list(prev)
                        if not forward and fwd_out[mb] not in deps:
                            deps.append(fwd_out[mb])
                        if recv_id is not None:
                            deps.append(recv_id)
                    flops, out_bytes, route, ar_bytes = cost
                    if route is not None:
                        deps = (collective(
                            f"it{it}.{name}.{dispatch}.mb{mb}", _A2A, route,
                            route_dims, deps=deps, involved=route_group),)
                    node = compute(f"it{it}.{stem}.{name}.mb{mb}", flops,
                                   out_bytes, deps=deps)
                    if route is not None:
                        node = collective(
                            f"it{it}.{name}.{combine}.mb{mb}", _A2A, route,
                            route_dims, deps=(node,), involved=route_group)
                    elif ar_bytes is not None:
                        node = collective(
                            f"it{it}.{all_reduce}.{name}.mb{mb}", _AR,
                            ar_bytes, mp_dims, deps=(node,),
                            involved=mp_group)
                    nodes.append(node)
                    if grad_key is not None:
                        grad_deps.setdefault(grad_key, []).append(node)
                prev = (nodes[-1],)
                if forward:
                    fwd_out[mb] = prev[0]
                if 0 <= dst < pp:
                    b.send(f"it{it}.send{kind.upper()}.s{s}.mb{mb}",
                           reps[dst], send_bytes,
                           p2p_tag(it, kind, dst, mb, pp, microbatches),
                           deps=prev)
            grad_ars = [
                collective(f"it{it}.gradAR.s{s}.{key}", _AR,
                           group_bytes[key], dp_dims, deps=tuple(deps),
                           involved=dp_group)
                for key, deps in grad_deps.items()] if has_dp else []
            prev = (compute(f"it{it}.optimizer.s{s}", max(1, opt_params),
                            deps=tuple(grad_ars) + prev),)
        traces[reps[s]] = b.build()

    return Plan(graph=graph, topology=topology, spec=spec,
                assignment=assignment, traces=traces,
                stage_layers=stage_layers)


#: An op's per-microbatch costs in one pass: compute flops, output bytes,
#: routed All-to-All bytes and tensor-parallel All-Reduce bytes (None
#: when the op has no such collective).
_Costs = Tuple[int, int, Optional[int], Optional[int]]
#: One op of a stage walk: name, costs, in-stage edges (indices of earlier
#: steps), whether it has an edge from outside the stage, and its
#: gradient-bucket key (None: no DP gradient).
_Step = Tuple[str, _Costs, List[int], bool, Any]

_A2A = CollectiveType.ALL_TO_ALL
_AR = CollectiveType.ALL_REDUCE

# Node-name stems per pass (forward?): compute, routed dispatch and
# combine All-to-Alls, tensor-parallel All-Reduce.
_NODE_NAMES = {True: ("fwd", "dispatchA2A", "combineA2A", "fwdAR"),
               False: ("bwd", "bwdDispatchA2A", "bwdCombineA2A", "bwdAR")}


def _group_key(op: OpNode) -> Any:
    """Gradient-bucket key: the op's layer, or 'stem' for stack-external ops."""
    return op.layer if op.layer is not None else "stem"
