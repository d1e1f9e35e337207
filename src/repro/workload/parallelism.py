"""Parallelization strategies and their mapping onto topology dimensions.

A :class:`ParallelismSpec` states the degrees (MP x DP x PP x EP);
:func:`assign_dims` maps each degree onto a *contiguous run of topology
dimensions*, innermost first — MP on the fastest dims, then PP, then DP —
matching how real systems place communicators (tensor parallelism on
NVLink, data parallelism over the NIC; paper Sec. V-A: "MP and DP span
over some (and not every) dimensions and utilize only those BW").

The degree rule (:func:`resolve_degrees`) and the pipeline layout
(:func:`assign_dims_or_flat`, :func:`stage_op_sequence`,
:func:`stage_representatives`, :func:`p2p_tag`) shared by the builtin
generators and the frontend planner are defined here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import InputError
from repro.network.topology import MultiDimTopology


@dataclass(frozen=True)
class ParallelismSpec:
    """Degrees of each parallelism axis.

    The product of all degrees must equal the system's NPU count when
    mapped with :func:`assign_dims`.
    """

    mp: int = 1
    dp: int = 1
    pp: int = 1
    ep: int = 1

    def __post_init__(self) -> None:
        for name in ("mp", "dp", "pp", "ep"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} degree must be >= 1, got {getattr(self, name)}")

    @property
    def total(self) -> int:
        return self.mp * self.dp * self.pp * self.ep


class DimAssignmentError(InputError):
    """Raised when degrees cannot be aligned to topology dimensions."""


def assign_dims(
    topology: MultiDimTopology, spec: ParallelismSpec
) -> Dict[str, Tuple[int, ...]]:
    """Map parallelism axes to contiguous dimension runs, innermost first.

    Order of placement: MP (innermost), then EP, then PP, then DP
    (outermost).  Each axis's degree must equal the product of the
    dimension sizes it is assigned; degrees of 1 get no dimensions.

    Returns a dict ``{"mp": dims, "ep": dims, "pp": dims, "dp": dims}``.

    Raises :class:`DimAssignmentError` when a degree does not align with
    dimension boundaries (e.g. MP=4 on a topology whose first dim is 8).
    """
    resolve_degrees(topology.num_npus, spec.mp, spec.dp, spec.pp, spec.ep)
    sizes = topology.shape
    assignment: Dict[str, Tuple[int, ...]] = {}
    next_dim = 0
    for axis, degree in (("mp", spec.mp), ("ep", spec.ep),
                         ("pp", spec.pp), ("dp", spec.dp)):
        if degree == 1:
            assignment[axis] = ()
            continue
        dims: List[int] = []
        product = 1
        while product < degree:
            if next_dim >= len(sizes):
                raise DimAssignmentError(
                    f"ran out of dimensions assigning {axis}={degree} on "
                    f"shape {sizes}"
                )
            dims.append(next_dim)
            product *= sizes[next_dim]
            next_dim += 1
        if product != degree:
            raise DimAssignmentError(
                f"{axis}={degree} does not align with dimension boundaries of "
                f"shape {sizes} (got product {product}); choose degrees that "
                "are products of consecutive dimension sizes"
            )
        assignment[axis] = tuple(dims)
    return assignment


def resolve_degrees(npus: int, mp: int = 0, dp: int = 0, pp: int = 0,
                    ep: int = 0, error: Type[InputError] = DimAssignmentError,
                    ) -> ParallelismSpec:
    """The degrees filling ``npus`` NPUs; 0 is auto (1, and DP fills the
    rest).  MP x PP x EP must divide the NPU count and, with DP, equal it;
    otherwise raise ``error``, with one message for both."""
    mp, pp, ep = mp or 1, pp or 1, ep or 1
    shard = mp * pp * ep
    if shard >= 1 and npus % shard == 0:
        spec = ParallelismSpec(mp=mp, dp=dp or npus // shard, pp=pp, ep=ep)
        if spec.total == npus:
            return spec
    flags = " x ".join(f"--{axis} {degree}" for axis, degree in
                       (("mp", mp), ("pp", pp), ("ep", ep)) if degree != 1)
    raise error(
        f"{flags or '--mp 1'} does not divide the topology's {npus} NPUs"
        f"{f' into --dp {dp} replicas' if dp else ''}; pick degrees whose "
        "product divides the NPU count, and leave --dp at 0 to fill the rest")


def fit_hybrid(topology: MultiDimTopology, mp: int) -> ParallelismSpec:
    """Convenience: hybrid MP x DP filling the whole system."""
    return resolve_degrees(topology.num_npus, mp=mp)


Group = Optional[Tuple[int, ...]]


def assign_dims_or_flat(
    topology: MultiDimTopology, spec: ParallelismSpec
) -> Tuple[Dict[str, Tuple[int, ...]], Group, Group]:
    """:func:`assign_dims`, falling back to flat MP and DP groups.

    When MP x DP fills the system but the degrees do not align with
    dimension boundaries (e.g. MP=16 on a 512-NPU wafer switch), the
    communicators become flat groups over consecutive (MP) and strided
    (DP) NPU ids, for ``involved_npus``; the simulator derives each
    group's effective per-dimension shape from the member coordinates.
    This is how sub-dimension MP/DP groups share a wafer's full on-chip
    bandwidth (paper Sec. V-A).

    Returns ``(assignment, mp_group, dp_group)``.  The groups are None
    when the degrees align (or are 1); on the fallback every axis of the
    assignment is empty.  Re-raises :class:`DimAssignmentError` when MP x
    DP does not fill the system.
    """
    try:
        return assign_dims(topology, spec), None, None
    except DimAssignmentError:
        if spec.mp * spec.dp != topology.num_npus:
            raise
    mp_group = tuple(range(spec.mp)) if spec.mp > 1 else None
    dp_group = (tuple(range(0, spec.mp * spec.dp, spec.mp))
                if spec.dp > 1 else None)
    return {"mp": (), "dp": (), "pp": (), "ep": ()}, mp_group, dp_group


def check_schedule(schedule: str, microbatches: int,
                   error: Type[InputError] = InputError) -> None:
    """Reject fewer than one microbatch or an unknown pipeline schedule."""
    if microbatches < 1:
        raise error(f"microbatches must be >= 1, got {microbatches}")
    if schedule not in ("gpipe", "1f1b"):
        raise error(f"unknown pipeline schedule {schedule!r}; "
                    "expected 'gpipe' or '1f1b'")


def stage_op_sequence(schedule: str, num_stages: int, stage: int,
                      microbatches: int) -> List[Tuple[str, int]]:
    """Per-stage (kind, microbatch) issue order for a pipeline schedule.

    - ``gpipe``: all forwards, then all backwards in reverse microbatch
      order (synchronous flush).
    - ``1f1b``: PipeDream-flush — ``num_stages - 1 - stage`` warmup
      forwards, a steady phase alternating one forward and one backward,
      and a backward-only cooldown.  Same work, far smaller activation
      working set and bubbles that shrink with depth.
    """
    check_schedule(schedule, microbatches)
    if schedule == "gpipe":
        return ([("f", mb) for mb in range(microbatches)]
                + [("b", mb) for mb in reversed(range(microbatches))])
    warmup = min(microbatches, num_stages - 1 - stage)
    ops: List[Tuple[str, int]] = [("f", mb) for mb in range(warmup)]
    fwd, bwd = warmup, 0
    while fwd < microbatches:
        ops.append(("f", fwd))
        fwd += 1
        ops.append(("b", bwd))
        bwd += 1
    while bwd < microbatches:
        ops.append(("b", bwd))
        bwd += 1
    return ops


def stage_representatives(
    topology: MultiDimTopology, pp_dims: Sequence[int], stages: int
) -> List[int]:
    """The traced NPU of each pipeline stage.

    Its PP coordinates encode the stage index; every other coordinate is
    zero, so it stands for the stage's DP/MP-symmetric group.
    """
    reps = []
    for stage in range(stages):
        coords = [0] * topology.num_dims
        rest = stage
        for d in pp_dims:
            coords[d] = rest % topology.dims[d].size
            rest //= topology.dims[d].size
        reps.append(topology.npu_id(coords))
    return reps


def p2p_tag(it: int, kind: str, stage: int, mb: int, stages: int,
            microbatches: int) -> int:
    """Tag of a stage-boundary send/recv, unique per iteration, pass
    (``"f"``/``"b"``), receiving stage and microbatch."""
    base = {"f": 0, "b": 1}[kind]
    return ((it * 2 + base) * stages + stage) * microbatches + mb + 1
