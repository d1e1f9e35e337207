"""Execution-trace generators for the paper's workloads.

Each generator lowers a model spec + parallelization strategy into
per-NPU :class:`~repro.trace.graph.ExecutionTrace` DAGs.  Traces are
emitted for *representative* NPUs only (see :mod:`repro.workload`): one
trace for fully-symmetric strategies, one per pipeline stage for PP.

The dependency structure is what encodes the strategy (paper Sec. IV-A):
e.g. a weight-gradient All-Reduce depends only on its own layer's backward
compute, which is what lets it overlap with earlier layers' backward —
the compute/communication overlap the case studies measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InputError
from repro.network.topology import MultiDimTopology
from repro.trace.graph import ExecutionTrace
from repro.trace.node import CollectiveType, ETNode, NodeType, TensorLocation
from repro.workload.models import DLRMSpec, MoESpec, TransformerSpec
from repro.workload.parallelism import (
    ParallelismSpec,
    assign_dims,
    assign_dims_or_flat,
    check_schedule,
    p2p_tag,
    stage_op_sequence,
    stage_representatives,
)

#: Kept for callers that import the schedule order from this module.
_stage_op_sequence = stage_op_sequence

VIA_FABRIC = "fabric"  # attrs["via"] value routing a collective through the memory fabric


_new_node = object.__new__
_LOCAL = TensorLocation.LOCAL


class TraceBuilder:
    """Incremental ET construction with automatic id assignment.

    The builder makes its nodes directly, without ``ETNode.__post_init__``:
    it assigns the ids and tuples every sequence itself, so of
    :meth:`ETNode.validate`'s rules it checks only those its callers'
    values can break: ``tensor_bytes >= 0``, a non-negative peer, a
    collective type, and no dep on the node's own id.  A node that breaks
    one is built through ``ETNode(...)``, which raises its usual error.
    :meth:`build` hands the set to :class:`ExecutionTrace`, which checks
    it as a whole (unknown deps, cycles).
    """

    def __init__(self, npu_id: int) -> None:
        self.npu_id = npu_id
        self._nodes: List[ETNode] = []

    def _add(self, ok: bool, node_type: NodeType, name: str,
             deps: Tuple[int, ...], tensor_bytes: int, flops: int = 0,
             collective: Optional[CollectiveType] = None,
             comm_dims: Optional[Tuple[int, ...]] = None,
             peer: Optional[int] = None, tag: int = 0,
             location: TensorLocation = _LOCAL,
             involved: Optional[Tuple[int, ...]] = None,
             attrs: Optional[dict] = None) -> int:
        """Append a node; ``ok`` is the caller's check of its type's rules.

        The attributes are set one by one in field order, as the
        dataclass ``__init__`` sets them, so the node keeps CPython's
        key-sharing instance dict (filling ``__dict__`` in one call
        doubles a node's size).
        """
        nodes = self._nodes
        nid = len(nodes)
        if attrs is None:
            attrs = {}
        if ok and tensor_bytes >= 0 and nid not in deps:
            node = _new_node(ETNode)
            node.node_id = nid
            node.node_type = node_type
            node.name = name
            node.deps = deps
            node.tensor_bytes = tensor_bytes
            node.flops = flops
            node.collective = collective
            node.comm_dims = comm_dims
            node.peer = peer
            node.tag = tag
            node.location = location
            node.involved_npus = involved
            node.attrs = attrs
        else:
            node = ETNode(nid, node_type, name, deps, tensor_bytes, flops,
                          collective, comm_dims, peer, tag, location,
                          involved, attrs)
        nodes.append(node)
        return nid

    def compute(self, name: str, flops: int, tensor_bytes: int = 0,
                deps: Sequence[int] = ()) -> int:
        return self._add(True, NodeType.COMPUTE, name, tuple(deps),
                         tensor_bytes, flops=max(1, flops))

    def collective(self, name: str, ctype: CollectiveType, tensor_bytes: int,
                   dims: Optional[Sequence[int]], deps: Sequence[int] = (),
                   via: Optional[str] = None,
                   involved: Optional[Sequence[int]] = None) -> int:
        return self._add(
            ctype is not None, NodeType.COMM_COLLECTIVE, name, tuple(deps),
            tensor_bytes, collective=ctype,
            comm_dims=tuple(dims) if dims is not None else None,
            involved=tuple(involved) if involved is not None else None,
            attrs={"via": via} if via else None)

    def memory(self, name: str, tensor_bytes: int, *, store: bool = False,
               remote: bool = False, deps: Sequence[int] = (),
               via: Optional[str] = None) -> int:
        return self._add(
            True, NodeType.MEMORY_STORE if store else NodeType.MEMORY_LOAD,
            name, tuple(deps), tensor_bytes,
            location=TensorLocation.REMOTE if remote else _LOCAL,
            attrs={"via": via} if via else None)

    def send(self, name: str, peer: int, tensor_bytes: int, tag: int,
             deps: Sequence[int] = ()) -> int:
        return self._add(peer is not None and peer >= 0, NodeType.COMM_SEND,
                         name, tuple(deps), tensor_bytes, peer=peer, tag=tag)

    def recv(self, name: str, peer: int, tensor_bytes: int, tag: int,
             deps: Sequence[int] = ()) -> int:
        return self._add(peer is not None and peer >= 0, NodeType.COMM_RECV,
                         name, tuple(deps), tensor_bytes, peer=peer, tag=tag)

    def build(self) -> ExecutionTrace:
        return ExecutionTrace(self.npu_id, self._nodes)


# -- microbenchmark ------------------------------------------------------------------


def generate_single_collective(
    topology: MultiDimTopology,
    collective: CollectiveType,
    payload_bytes: int,
    dims: Optional[Sequence[int]] = None,
    count: int = 1,
) -> Dict[int, ExecutionTrace]:
    """A bare collective (optionally repeated back-to-back).

    This is the paper's "single 1GB All-Reduce" microbenchmark workload.
    """
    builder = TraceBuilder(0)
    prev: Tuple[int, ...] = ()
    for i in range(count):
        node = builder.collective(
            f"{collective.value}[{i}]", collective, payload_bytes, dims, deps=prev
        )
        prev = (node,)
    return {0: builder.build()}


# -- data parallel ---------------------------------------------------------------------


def generate_data_parallel(
    model: TransformerSpec,
    topology: MultiDimTopology,
    iterations: int = 1,
) -> Dict[int, ExecutionTrace]:
    """Pure data parallelism: replicate the model, All-Reduce gradients.

    Per-layer gradient All-Reduces depend only on that layer's backward
    compute, so they overlap the rest of the backward pass.
    """
    builder = TraceBuilder(0)
    all_dims = tuple(range(topology.num_dims))
    prev_iter_end: Tuple[int, ...] = ()
    for it in range(iterations):
        fwd_prev: Tuple[int, ...] = prev_iter_end
        fwd_ids = []
        for layer in range(model.num_layers):
            fid = builder.compute(
                f"it{it}.fwd.L{layer}", model.fwd_flops_per_layer(),
                model.activation_bytes(), deps=fwd_prev,
            )
            fwd_ids.append(fid)
            fwd_prev = (fid,)
        bwd_prev: Tuple[int, ...] = fwd_prev
        grad_ars = []
        for layer in reversed(range(model.num_layers)):
            bid = builder.compute(
                f"it{it}.bwd.L{layer}", model.bwd_flops_per_layer(),
                model.activation_bytes(), deps=bwd_prev,
            )
            bwd_prev = (bid,)
            grad_ars.append(builder.collective(
                f"it{it}.gradAR.L{layer}", CollectiveType.ALL_REDUCE,
                model.layer_grad_bytes(), all_dims, deps=(bid,),
            ))
        step = builder.compute(
            f"it{it}.optimizer", model.total_params,
            deps=tuple(grad_ars) + bwd_prev,
        )
        prev_iter_end = (step,)
    return {0: builder.build()}


# -- hybrid (Megatron) MP x DP -----------------------------------------------------------


def generate_megatron_hybrid(
    model: TransformerSpec,
    topology: MultiDimTopology,
    spec: ParallelismSpec,
    iterations: int = 1,
) -> Dict[int, ExecutionTrace]:
    """Megatron-style hybrid: tensor parallel within MP dims, DP outside.

    Forward: two compute+All-Reduce pairs per layer (attention, MLP) on the
    MP dims, activation-sized.  Backward mirrors forward, and each layer's
    weight-gradient All-Reduce (params/MP-sized) runs on the DP dims,
    overlapping deeper layers' backward.

    When the degrees do not align with dimension boundaries (e.g. MP=16
    on a 512-NPU wafer switch), communicators fall back to *flat groups*
    (:func:`~repro.workload.parallelism.assign_dims_or_flat`).  PP and EP
    degrees are rejected, not ignored.
    """
    if spec.pp > 1 or spec.ep > 1:
        raise InputError(
            f"generate_megatron_hybrid models MP x DP only, got pp={spec.pp} "
            f"ep={spec.ep}; use generate_pipeline_parallel for pipeline "
            "stages, or repro.frontend.plan for pipeline and expert "
            "parallelism")
    assignment, mp_group, dp_group = assign_dims_or_flat(topology, spec)
    mp_dims, dp_dims = assignment["mp"] or None, assignment["dp"] or None
    builder = TraceBuilder(0)
    act = model.activation_bytes()
    half_fwd = model.fwd_flops_per_layer() // (2 * spec.mp)
    half_bwd = model.bwd_flops_per_layer() // (2 * spec.mp)
    grad_bytes = model.layer_grad_bytes() // spec.mp

    has_mp = bool(mp_dims) or mp_group is not None
    has_dp = bool(dp_dims) or dp_group is not None
    prev_end: Tuple[int, ...] = ()
    for it in range(iterations):
        prev: Tuple[int, ...] = prev_end
        for layer in range(model.num_layers):
            for half in ("attn", "mlp"):
                cid = builder.compute(
                    f"it{it}.fwd.L{layer}.{half}", half_fwd, act, deps=prev)
                prev = (cid,)
                if has_mp:
                    ar = builder.collective(
                        f"it{it}.fwdAR.L{layer}.{half}",
                        CollectiveType.ALL_REDUCE, act, mp_dims, deps=prev,
                        involved=mp_group)
                    prev = (ar,)
        grad_ars: List[int] = []
        for layer in reversed(range(model.num_layers)):
            layer_bwd: List[int] = []
            for half in ("mlp", "attn"):
                cid = builder.compute(
                    f"it{it}.bwd.L{layer}.{half}", half_bwd, act, deps=prev)
                prev = (cid,)
                layer_bwd.append(cid)
                if has_mp:
                    ar = builder.collective(
                        f"it{it}.bwdAR.L{layer}.{half}",
                        CollectiveType.ALL_REDUCE, act, mp_dims, deps=prev,
                        involved=mp_group)
                    prev = (ar,)
            if has_dp:
                grad_ars.append(builder.collective(
                    f"it{it}.gradAR.L{layer}", CollectiveType.ALL_REDUCE,
                    grad_bytes, dp_dims, deps=tuple(layer_bwd),
                    involved=dp_group))
        step = builder.compute(
            f"it{it}.optimizer", max(1, model.total_params // spec.mp),
            deps=tuple(grad_ars) + prev)
        prev_end = (step,)
    return {0: builder.build()}


# -- FSDP / ZeRO-3 ---------------------------------------------------------------------


def generate_fsdp(
    model: TransformerSpec,
    topology: MultiDimTopology,
    iterations: int = 1,
) -> Dict[int, ExecutionTrace]:
    """Fully-Sharded Data Parallelism (FSDP / ZeRO-3) over all dimensions.

    Every parameter is sharded across every NPU.  Per layer: All-Gather
    the layer's parameters (prefetched — each gather depends only on the
    previous gather, so it overlaps compute), run forward; the backward
    re-gathers, computes, and Reduce-Scatters the gradients.  This is one
    of the parallelization strategies the paper cites as motivating
    arbitrary-parallelism support (Sec. I: FSDP, ZeRO).
    """
    builder = TraceBuilder(0)
    all_dims = tuple(range(topology.num_dims))
    layer_params_bytes = model.params_per_layer * model.dtype_bytes
    prev_end: Tuple[int, ...] = ()
    for it in range(iterations):
        # Forward gathers prefetch along a chain.
        gather_chain: Tuple[int, ...] = prev_end
        fwd_gathers: List[int] = []
        for layer in range(model.num_layers):
            ag = builder.collective(
                f"it{it}.fwdAG.L{layer}", CollectiveType.ALL_GATHER,
                layer_params_bytes, all_dims, deps=gather_chain)
            fwd_gathers.append(ag)
            gather_chain = (ag,)
        prev: Tuple[int, ...] = prev_end
        for layer in range(model.num_layers):
            cid = builder.compute(
                f"it{it}.fwd.L{layer}", model.fwd_flops_per_layer(),
                model.activation_bytes(), deps=tuple(prev) + (fwd_gathers[layer],))
            prev = (cid,)
        # Backward: re-gather, compute, reduce-scatter grads.
        bwd_gathers: Dict[int, int] = {}
        gather_chain = (fwd_gathers[-1],)
        for layer in reversed(range(model.num_layers)):
            ag = builder.collective(
                f"it{it}.bwdAG.L{layer}", CollectiveType.ALL_GATHER,
                layer_params_bytes, all_dims, deps=gather_chain)
            bwd_gathers[layer] = ag
            gather_chain = (ag,)
        grad_rs: List[int] = []
        for layer in reversed(range(model.num_layers)):
            bid = builder.compute(
                f"it{it}.bwd.L{layer}", model.bwd_flops_per_layer(),
                model.activation_bytes(),
                deps=tuple(prev) + (bwd_gathers[layer],))
            prev = (bid,)
            grad_rs.append(builder.collective(
                f"it{it}.gradRS.L{layer}", CollectiveType.REDUCE_SCATTER,
                layer_params_bytes, all_dims, deps=(bid,)))
        step = builder.compute(
            f"it{it}.optimizer",
            max(1, model.total_params // topology.num_npus),
            deps=tuple(grad_rs) + prev)
        prev_end = (step,)
    return {0: builder.build()}


# -- pipeline parallelism (GPipe schedule) ------------------------------------------------


def generate_pipeline_parallel(
    model: TransformerSpec,
    topology: MultiDimTopology,
    spec: ParallelismSpec,
    microbatches: int = 4,
    iterations: int = 1,
    schedule: str = "gpipe",
) -> Dict[int, ExecutionTrace]:
    """Pipeline parallelism: stages on the PP dims, DP outside, MP inside.

    Emits one trace per pipeline stage (the representative of each stage's
    DP/MP-symmetric group).  Stages exchange microbatch activations with
    point-to-point send/recv nodes; within a stage, tensor-parallel
    activation All-Reduces run on the MP dims (full 3-D parallelism);
    after all backwards, each stage All-Reduces its weight gradients
    across the DP dims.

    ``schedule`` selects the issue order per stage: ``"gpipe"`` (all
    forwards then all backwards) or ``"1f1b"`` (PipeDream-flush).  EP
    degrees are rejected, not ignored.
    """
    check_schedule(schedule, microbatches)
    if spec.ep > 1:
        raise InputError(
            f"generate_pipeline_parallel models MP x PP x DP only, got "
            f"ep={spec.ep}; use repro.frontend.plan for expert parallelism")
    assignment = assign_dims(topology, spec)
    pp_dims, dp_dims, mp_dims = assignment["pp"], assignment["dp"], assignment["mp"]
    if not pp_dims:
        raise InputError("pipeline generator needs pp > 1")
    num_stages = spec.pp
    layers_per_stage = max(1, model.num_layers // num_stages)
    act = model.activation_bytes()
    fwd_flops = layers_per_stage * model.fwd_flops_per_layer() // spec.mp
    bwd_flops = layers_per_stage * model.bwd_flops_per_layer() // spec.mp
    stage_grad_bytes = layers_per_stage * model.layer_grad_bytes() // spec.mp

    reps = stage_representatives(topology, pp_dims, num_stages)
    builders = {rep: TraceBuilder(rep) for rep in reps}
    sequences = [stage_op_sequence(schedule, num_stages, s, microbatches)
                 for s in range(num_stages)]

    def tag(it: int, kind: str, stage: int, mb: int) -> int:
        return p2p_tag(it, kind, stage, mb, num_stages, microbatches)

    prev_end: Dict[int, Tuple[int, ...]] = {s: () for s in range(num_stages)}
    for it in range(iterations):
        for s in range(num_stages):
            b = builders[reps[s]]
            prev: Tuple[int, ...] = prev_end[s]
            bwd_done: List[int] = []
            for kind, mb in sequences[s]:
                deps = list(prev)
                if kind == "f" and s > 0:
                    deps.append(b.recv(
                        f"it{it}.recvF.s{s}.mb{mb}", reps[s - 1], act,
                        tag(it, "f", s, mb)))
                if kind == "b" and s < num_stages - 1:
                    deps.append(b.recv(
                        f"it{it}.recvB.s{s}.mb{mb}", reps[s + 1], act,
                        tag(it, "b", s, mb)))
                name = "fwd" if kind == "f" else "bwd"
                flops = fwd_flops if kind == "f" else bwd_flops
                cid = b.compute(f"it{it}.{name}.s{s}.mb{mb}", flops, act,
                                deps=deps)
                prev = (cid,)
                if mp_dims:
                    # 3-D parallelism: tensor-parallel activation
                    # All-Reduce within the stage (aggregated per
                    # microbatch over the stage's layers).
                    ar = b.collective(
                        f"it{it}.{name}AR.s{s}.mb{mb}",
                        CollectiveType.ALL_REDUCE,
                        layers_per_stage * act, mp_dims, deps=prev)
                    prev = (ar,)
                if kind == "f" and s < num_stages - 1:
                    b.send(f"it{it}.sendF.s{s}.mb{mb}", reps[s + 1], act,
                           tag(it, "f", s + 1, mb), deps=prev)
                if kind == "b":
                    bwd_done.extend(prev)
                    if s > 0:
                        b.send(f"it{it}.sendB.s{s}.mb{mb}", reps[s - 1], act,
                               tag(it, "b", s - 1, mb), deps=prev)
            if dp_dims:
                ar = b.collective(
                    f"it{it}.gradAR.s{s}", CollectiveType.ALL_REDUCE,
                    stage_grad_bytes, dp_dims,
                    deps=tuple(prev) + tuple(bwd_done[-1:]))
                prev_end[s] = (ar,)
            else:
                prev_end[s] = prev

    return {rep: b.build() for rep, b in builders.items()}


# -- DLRM -----------------------------------------------------------------------------


def generate_dlrm(
    model: DLRMSpec,
    topology: MultiDimTopology,
    iterations: int = 1,
) -> Dict[int, ExecutionTrace]:
    """DLRM: All-to-All embedding exchange + data-parallel MLPs.

    Embedding tables are sharded across every NPU (model parallel over all
    dims); the MLP gradients All-Reduce over all dims — the MP=DP=system
    configuration of Table III.
    """
    builder = TraceBuilder(0)
    all_dims = tuple(range(topology.num_dims))
    a2a = model.alltoall_bytes_per_npu()
    prev_end: Tuple[int, ...] = ()
    for it in range(iterations):
        bot = builder.compute(f"it{it}.fwd.botMLP", model.mlp_flops() // 2,
                              deps=prev_end)
        emb_fwd = builder.collective(
            f"it{it}.fwd.embA2A", CollectiveType.ALL_TO_ALL, a2a, all_dims,
            deps=(bot,))
        top = builder.compute(f"it{it}.fwd.topMLP", model.mlp_flops() // 2,
                              deps=(emb_fwd,))
        top_b = builder.compute(f"it{it}.bwd.topMLP", model.mlp_flops(),
                                deps=(top,))
        emb_bwd = builder.collective(
            f"it{it}.bwd.embA2A", CollectiveType.ALL_TO_ALL, a2a, all_dims,
            deps=(top_b,))
        bot_b = builder.compute(f"it{it}.bwd.botMLP", model.mlp_flops(),
                                deps=(emb_bwd,))
        grad_ar = builder.collective(
            f"it{it}.gradAR.mlp", CollectiveType.ALL_REDUCE,
            model.mlp_grad_bytes(), all_dims, deps=(top_b, bot_b))
        step = builder.compute(f"it{it}.optimizer", model.mlp_params,
                               deps=(grad_ar, bot_b))
        prev_end = (step,)
    return {0: builder.build()}


# -- Mixture of Experts (Sec. V-B disaggregated-memory case study) -------------------------


def generate_moe(
    model: MoESpec,
    topology: MultiDimTopology,
    iterations: int = 1,
    remote_parameters: bool = True,
    inswitch_collectives: bool = False,
) -> Dict[int, ExecutionTrace]:
    """Expert-parallel MoE training with ZeRO-sharded dense parameters.

    Structure per MoE layer: dense/gate compute -> All-to-All dispatch ->
    expert FFN compute -> All-to-All combine; backward mirrors it.

    Parameter handling (Sec. V-B):

    - expert weights live wholly on their owner GPU and, with
      ``remote_parameters``, stream from the remote pool (loads prefetch
      along a chain; gradient shards store back after the backward);
    - dense parameters are ZeRO-3 sharded across all GPUs: each layer
      needs its full dense weights gathered before compute and its dense
      gradients reduce-scattered after the backward.

    With ``inswitch_collectives=False`` (ZeRO-Infinity and the HierMem
    baseline), the dense gather/scatter run as explicit All-Gather /
    Reduce-Scatter collectives over the NPU network — the exposed
    communication that dominates Fig. 11.  With ``inswitch_collectives=
    True`` (the optimized HierMem), they fuse into the memory path:
    parameters are gathered while being loaded and sharded while being
    stored inside the switches (Sec. IV-D model 3), and the token-routing
    All-to-Alls run through the pooled fabric as well — this is what
    "hides communication time" in the paper's 4.6x configuration.
    """
    builder = TraceBuilder(0)
    all_dims = tuple(range(topology.num_dims))
    num_gpus = topology.num_npus
    a2a = model.alltoall_bytes_per_gpu()
    a2a_via = VIA_FABRIC if inswitch_collectives else None
    expert_shard = model.expert_params_per_gpu(num_gpus) * model.dtype_bytes
    dense_layer_bytes = 12 * model.hidden * model.hidden * model.dtype_bytes
    dense_shard = max(1, dense_layer_bytes // num_gpus)
    moe_layers = {
        l for l in range(model.num_layers)
        if l % model.moe_every == model.moe_every - 1
    }

    prev_end: Tuple[int, ...] = ()
    for it in range(iterations):
        prev: Tuple[int, ...] = prev_end
        prev_load: Tuple[int, ...] = prev_end

        # Parameter acquisition, one ready-node per layer.  Loads chain so
        # they prefetch ahead of compute without an explicit window.
        param_ready: Dict[int, int] = {}
        if remote_parameters:
            for layer in range(model.num_layers):
                if inswitch_collectives:
                    # Gather-while-loading: the load of this GPU's dense
                    # shard delivers the fully gathered layer weights.
                    ready = builder.memory(
                        f"it{it}.gatherLoad.dense.L{layer}", dense_shard,
                        remote=True, deps=prev_load, via=VIA_FABRIC)
                else:
                    shard_load = builder.memory(
                        f"it{it}.load.denseShard.L{layer}", dense_shard,
                        remote=True, deps=prev_load)
                    ready = builder.collective(
                        f"it{it}.paramAG.dense.L{layer}",
                        CollectiveType.ALL_GATHER, dense_layer_bytes,
                        all_dims, deps=(shard_load,))
                param_ready[layer] = ready
                prev_load = (ready,)
                if layer in moe_layers:
                    expert_load = builder.memory(
                        f"it{it}.load.experts.L{layer}", expert_shard,
                        remote=True, deps=prev_load)
                    param_ready[layer] = expert_load
                    prev_load = (expert_load,)

        # Forward pass.
        for layer in range(model.num_layers):
            deps = list(prev)
            if layer in param_ready:
                deps.append(param_ready[layer])
            dense = builder.compute(
                f"it{it}.fwd.dense.L{layer}", model.dense_flops_per_gpu(),
                model.alltoall_bytes_per_gpu(), deps=deps)
            prev = (dense,)
            if layer in moe_layers:
                dispatch = builder.collective(
                    f"it{it}.fwd.dispatchA2A.L{layer}",
                    CollectiveType.ALL_TO_ALL, a2a, all_dims, deps=prev,
                    via=a2a_via)
                expert = builder.compute(
                    f"it{it}.fwd.expert.L{layer}",
                    model.expert_flops_per_gpu(), expert_shard,
                    deps=(dispatch,))
                combine = builder.collective(
                    f"it{it}.fwd.combineA2A.L{layer}",
                    CollectiveType.ALL_TO_ALL, a2a, all_dims, deps=(expert,),
                    via=a2a_via)
                prev = (combine,)

        # Backward pass (reverse layer order).
        stores: List[int] = []
        for layer in reversed(range(model.num_layers)):
            if layer in moe_layers:
                grad_dispatch = builder.collective(
                    f"it{it}.bwd.dispatchA2A.L{layer}",
                    CollectiveType.ALL_TO_ALL, a2a, all_dims, deps=prev,
                    via=a2a_via)
                expert_b = builder.compute(
                    f"it{it}.bwd.expert.L{layer}",
                    2 * model.expert_flops_per_gpu(), expert_shard,
                    deps=(grad_dispatch,))
                grad_combine = builder.collective(
                    f"it{it}.bwd.combineA2A.L{layer}",
                    CollectiveType.ALL_TO_ALL, a2a, all_dims,
                    deps=(expert_b,), via=a2a_via)
                prev = (grad_combine,)
                if remote_parameters:
                    opt = builder.compute(
                        f"it{it}.opt.experts.L{layer}",
                        max(1, expert_shard // model.dtype_bytes),
                        deps=(expert_b,))
                    stores.append(builder.memory(
                        f"it{it}.store.expertGrads.L{layer}", expert_shard,
                        store=True, remote=True, deps=(opt,)))
            dense_b = builder.compute(
                f"it{it}.bwd.dense.L{layer}", 2 * model.dense_flops_per_gpu(),
                model.alltoall_bytes_per_gpu(), deps=prev)
            prev = (dense_b,)
            if remote_parameters:
                if inswitch_collectives:
                    # Shard-while-storing: the dense gradient reduces and
                    # scatters inside the switches on its way to the pool.
                    stores.append(builder.memory(
                        f"it{it}.scatterStore.dense.L{layer}", dense_shard,
                        store=True, remote=True, deps=(dense_b,),
                        via=VIA_FABRIC))
                else:
                    rs = builder.collective(
                        f"it{it}.gradRS.dense.L{layer}",
                        CollectiveType.REDUCE_SCATTER, dense_layer_bytes,
                        all_dims, deps=(dense_b,))
                    stores.append(builder.memory(
                        f"it{it}.store.denseShard.L{layer}", dense_shard,
                        store=True, remote=True, deps=(rs,)))

        step = builder.compute(
            f"it{it}.optimizer.dense",
            max(1, model.dense_params // max(1, num_gpus)),
            deps=tuple(stores) + prev)
        prev_end = (step,)
    return {0: builder.build()}
