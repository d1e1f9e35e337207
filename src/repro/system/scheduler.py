"""Chunk-to-dimension scheduling policies.

Collectives are split into chunks, and each chunk must visit every active
dimension of its communicator.  *In which order* is the scheduling
decision:

- :class:`BaselineScheduler` — the paper's baseline multi-rail hierarchical
  order: every chunk traverses dims in ascending index order (Dim 1 -> Dim
  N for Reduce-Scatter, reversed for the All-Gather half).
- :class:`ThemisScheduler` — the bandwidth-aware policy of Themis
  (Rashidi et al., ISCA'22; paper Sec. V-A).  It solves the order-mix
  balancing problem — what fraction of the payload should traverse the
  dimensions in each candidate order so the worst per-dimension load is
  minimized — exactly, with an in-repo integer simplex, and executes the
  collective in the fluid limit an ideal chunked schedule converges to.  Mixing orders across chunks balances
  per-dimension load toward the aggregate-bandwidth bound: a 1 GB
  All-Reduce on the paper's Conv-4D (250+200+100+50 GB/s) lands within a
  few percent of the W-1D-600 wafer-scale time, the headline observation
  of Fig. 9(a).

Every scheduler memoises, per run, the effective view of each
communicator (:meth:`ChunkScheduler.effective_comm`) and the phase tables
of each chunk signature on it (:meth:`ChunkScheduler.phase_tables`): the
rows of :func:`repro.system.phases.phase_table` and the work vector
summed from them, per order.  A scheduler plans from those tables alone,
and the LP mix, the balanced plan and the chunk stepper of
:class:`~repro.system.collective_op.CollectiveOperation` all read the
same ones.

The tables see the communicator as a mapping ``dim index -> DimSpec``
whose sizes are the *effective* per-dimension group sizes — for
sub-dimension communicators (e.g. an MP group of 16 inside a 512-NPU
wafer switch) the effective size is smaller than the physical dimension.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InputError
from repro.network.topology import DimSpec, normalize_dims
from repro.system.phases import PhaseKind, PhaseRows, phase_table

# Above this many dimensions, evaluating every permutation is replaced by a
# first-dim sweep with shrink-optimal (largest-first) tails.
_EXHAUSTIVE_PERMUTATION_LIMIT = 5

DimSpecs = Mapping[int, DimSpec]

#: An order mix: ``(order, fraction)`` pairs, largest fraction first.
Mix = List[Tuple[Tuple[int, ...], float]]


def chunk_work_vector(rows: PhaseRows, roundtrip: bool) -> Dict[int, float]:
    """Per-dimension port time one chunk adds, from its phase table.

    Sums the first pass's busy times.  ``roundtrip`` doubles each dim's
    contribution instead of reading the All-Gather rows: the All-Gather
    half of an All-Reduce replays the Reduce-Scatter order reversed with
    (to rounding) identical per-dimension durations.
    """
    first_pass = rows[:len(rows) // 2] if roundtrip else rows
    work: Dict[int, float] = {}
    for d, _, _, busy, *_ in first_pass:
        work[d] = work.get(d, 0.0) + (2 * busy if roundtrip else busy)
    return work


class PhaseTables(dict):
    """``order -> (phase rows, work vector)`` for one chunk signature.

    Everything a scheduler plans from: the effective ``specs`` of the
    communicator's active ``dims`` (ascending), the first pass's ``kind``,
    the chunk's entry ``payload_bytes`` and ``roundtrip`` (All-Reduce).
    Filled on first lookup of each order with
    :func:`~repro.system.phases.phase_table` and :func:`chunk_work_vector`;
    callers only read what it returns.  Tables hash by identity: the
    per-run memo hands out one instance per signature.
    """

    __slots__ = ("specs", "dims", "kind", "payload_bytes", "roundtrip")

    __hash__ = object.__hash__

    def __init__(self, specs: DimSpecs, kind: PhaseKind,
                 payload_bytes: float, roundtrip: bool) -> None:
        super().__init__()
        self.specs = specs
        self.dims = tuple(specs)
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.roundtrip = roundtrip

    def __missing__(self, order: Tuple[int, ...]
                    ) -> Tuple[PhaseRows, Dict[int, float]]:
        rows = phase_table(self.specs, order, self.kind, self.payload_bytes,
                           self.roundtrip)
        table = self[order] = (rows, chunk_work_vector(rows, self.roundtrip))
        return table


class EffectiveComm:
    """A communicator as the phase math sees it, shared by its collectives.

    ``specs`` maps each dim of ``dims`` to its effective :class:`DimSpec`:
    ``group_shape`` gives the group's size on each dim it spans only in
    part (an MP group of 16 inside a 512-wide switch), other dims keep
    their physical size.  A collective loads a dimension symmetrically
    (every member injects at once), so an oversubscribed fabric caps each
    member at ``bandwidth / oversubscription``: folded in here, the phase
    math and the Themis balancer both see it and route load away from the
    constrained dim.  ``active_dims`` are the dims of size > 1 and
    ``group_size`` is their product.  ``tables`` maps ``(kind, chunk
    payload, roundtrip)`` to that chunk signature's :class:`PhaseTables`,
    one mapping per distinct set of active specs in ``registry``.
    """

    __slots__ = ("specs", "active_dims", "group_size", "tables")

    def __init__(self, physical: Sequence[DimSpec], dims: Tuple[int, ...],
                 group_shape: Optional[Mapping[int, int]],
                 registry: Dict[tuple, Dict[tuple, PhaseTables]]) -> None:
        self.specs: Dict[int, DimSpec] = {}
        for d in dims:
            spec = physical[d]
            size = group_shape.get(d, spec.size) if group_shape else spec.size
            if size > spec.size:
                raise ValueError(
                    f"group size {size} exceeds dimension {d} size "
                    f"{spec.size}")
            bandwidth = spec.bandwidth_gbps / spec.oversubscription
            if size != spec.size or bandwidth != spec.bandwidth_gbps:
                spec = dataclasses.replace(spec, size=size,
                                           bandwidth_gbps=bandwidth,
                                           oversubscription=1.0)
            self.specs[d] = spec
        self.active_dims = tuple(d for d in dims if self.specs[d].size > 1)
        self.group_size = 1
        for d in self.active_dims:
            self.group_size *= self.specs[d].size
        self.tables = registry.setdefault(
            (self.active_dims,
             tuple(self.specs[d] for d in self.active_dims)), {})


class BalancedPlan:
    """Fluid-limit collective plan: balanced per-dim loads plus a fill term.

    ``loads_ns`` is the total port time each dimension serializes for the
    whole collective under the balanced order mix; ``fill_ns`` is the
    pipeline ramp (the draining chunk's path outside its heaviest dim);
    ``traffic_bytes`` is the per-dimension serialized byte count for
    reporting.  Plans are memoized and shared between collectives, so
    consumers only read them.
    """

    __slots__ = ("loads_ns", "fill_ns", "traffic_bytes")

    def __init__(self, loads_ns: Dict[int, float], fill_ns: float,
                 traffic_bytes: Dict[int, float]) -> None:
        self.loads_ns = loads_ns
        self.fill_ns = fill_ns
        self.traffic_bytes = traffic_bytes


class ChunkScheduler:
    """Strategy interface: plan a collective from its phase tables.

    Schedulers plan from a :class:`PhaseTables` alone; the memo that
    hands those out (:meth:`effective_comm`, :meth:`phase_tables`) lives
    here, one per run.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._comms: Dict[tuple, EffectiveComm] = {}
        self._tables: Dict[tuple, Dict[tuple, PhaseTables]] = {}

    def effective_comm(self, physical: Sequence[DimSpec],
                       comm_dims: Sequence[int],
                       group_shape: Optional[Mapping[int, int]] = None
                       ) -> EffectiveComm:
        """The effective view of a communicator, memoised per run.

        Keyed on the normalized dims, the group shape and the physical
        ``DimSpec``s (``physical`` is a topology's ``dims``), so training
        loops that issue thousands of collectives over a handful of
        communicators derive each view once.
        """
        dims = normalize_dims(comm_dims)
        key = (dims,
               tuple(sorted(group_shape.items())) if group_shape else None,
               tuple(physical))
        comm = self._comms.get(key)
        if comm is None:
            comm = self._comms[key] = EffectiveComm(
                physical, dims, group_shape, self._tables)
        return comm

    def phase_tables(self, comm: EffectiveComm, kind: PhaseKind,
                     payload_bytes: float, roundtrip: bool) -> PhaseTables:
        """The phase tables of every order over ``comm``'s active dims.

        Keyed on the exact signature (payload as the exact float), so
        every chunk of every collective on communicators with the same
        effective specs shares one table per order.
        """
        key = (kind, payload_bytes, roundtrip)
        tables = comm.tables.get(key)
        if tables is None:
            tables = comm.tables[key] = PhaseTables(
                {d: comm.specs[d] for d in comm.active_dims}, kind,
                payload_bytes, roundtrip)
        return tables

    def balanced_plan(self, tables: PhaseTables,
                      num_chunks: int) -> Optional[BalancedPlan]:
        """Fluid-limit plan for a collective of ``num_chunks`` chunks of
        ``tables``' signature; ``None`` runs it chunk by chunk, every
        chunk walking ``tables[tables.dims]`` (ascending dims)."""
        return None


class BaselineScheduler(ChunkScheduler):
    """Fixed hierarchical order: every chunk walks the dims ascending."""

    name = "baseline"


class ThemisScheduler(ChunkScheduler):
    """Bandwidth-balanced order assignment (fluid limit).

    :meth:`balanced_plan` solves, once per phase tables, a small linear
    program over candidate dimension orders — the load-balancing problem
    Themis's chunk placement approximates — exactly and in-repo
    (:meth:`_solve_mix`), and returns balanced per-dimension loads for
    fluid execution.  The mix is memoised with the plans built from it,
    one per chunk count, so a training loop's thousands of collectives
    solve and build only a handful.
    """

    name = "themis"

    def __init__(self) -> None:
        super().__init__()
        # Per phase tables: the order mix solved from them, and the plan
        # built from it per chunk count.
        self._plans: Dict[PhaseTables, Tuple[Mix, Dict[int, BalancedPlan]]] = {}

    def balanced_plan(self, tables: PhaseTables,
                      num_chunks: int) -> BalancedPlan:
        """Balanced per-dim loads for the whole collective.

        Latency steps are charged per chunk (each of the ``num_chunks``
        pipelined chunks pays its phase latencies), matching what the
        chunk-level execution would enqueue in total.  The returned plan
        is shared by every call with the same tables and chunk count.
        """
        try:
            mix, plans = self._plans[tables]
        except KeyError:
            mix, plans = self._plans[tables] = self._solve_mix(tables), {}
        plan = plans.get(num_chunks)
        if plan is None:
            plan = plans[num_chunks] = self._build_plan(tables, mix,
                                                        num_chunks)
        return plan

    def _build_plan(self, tables: PhaseTables, mix: Mix,
                    num_chunks: int) -> BalancedPlan:
        roundtrip = tables.roundtrip
        loads: Dict[int, float] = {d: 0.0 for d in tables.dims}
        traffic: Dict[int, float] = {d: 0.0 for d in tables.dims}
        fill = float("inf")
        for order, fraction in mix:
            rows, work = tables[order]
            walls = []
            for d, _, _, busy, moved, latency, _ in rows[:len(order)]:
                loads[d] += fraction * num_chunks * work[d]
                traffic[d] += fraction * num_chunks * (
                    2 * moved if roundtrip else moved)
                wall = latency + busy
                walls.append(2 * wall if roundtrip else wall)
            # Pipeline ramp of one chunk on this order: its wall-time path
            # (serialization + propagation latency per dim) minus the
            # heaviest per-dim share, which packs inside that dim's port
            # load; in particular a 1-D collective has zero ramp.  With
            # heaviest plans launched first, the draining chunk is the
            # lightest order, so the collective-level fill is the minimum.
            fill = min(fill, sum(walls) - max(walls))
        return BalancedPlan(loads_ns=loads, fill_ns=fill, traffic_bytes=traffic)

    # -- LP mix -------------------------------------------------------------------

    def _solve_mix(self, tables: PhaseTables) -> Mix:
        """The order fractions minimizing the worst per-dim load, exactly.

        With ``w[d][j]`` the work order ``j`` puts on dim ``d``, the LP
        ``min T s.t. sum_j w[d][j] x[j] <= T, sum_j x[j] = 1, x >= 0``
        is solved as ``max sum(u) s.t. sum_j w[d][j] u[j] <= 1, u >= 0``
        (``x = u / sum(u)``, ``T = 1 / sum(u)``), whose slack basis is
        feasible.  The work floats are dyadic, so scaling them by their
        largest denominator makes the tableau integer, and fraction-free
        (Bareiss) pivoting keeps it integer over one common denominator:
        every step is exact.  Pivot rule: the entering column has the
        most negative reduced cost (lowest index on ties); the leaving
        row wins the ratio test (lowest basic variable on ties).  After a
        degenerate pivot, Bland's rule (lowest-index improving column)
        picks the entering column until the objective improves again, so
        the method cannot cycle.  Each fraction is the exact optimum
        rounded once to float; the mix lists the orders in use, largest
        fraction first (then by order).
        """
        orders = self._candidate_orders(tables)
        columns = [tables[order][1] for order in orders]
        for order, work in zip(orders, columns):
            if not any(work.values()):
                return [(order, 1.0)]  # underflowed to zero work: free
        n, m = len(orders), len(tables.dims)
        ratios = [[work[d].as_integer_ratio() for work in columns]
                  for d in tables.dims]
        scale = max(q for row in ratios for _, q in row)
        # Row i: dim i's scaled work, its slack column, right-hand side 1;
        # row m: the reduced costs of max sum(u), then the objective.
        rows = [[p * (scale // q) for p, q in row]
                + [int(i == k) for k in range(m)] + [1]
                for i, row in enumerate(ratios)]
        rows.append([-1] * n + [0] * (m + 1))
        basis = list(range(n, n + m))
        denom = 1  # the common denominator: the last pivot
        bland = False
        while True:
            costs = rows[m][:-1]
            if bland:
                c = next((k for k, v in enumerate(costs) if v < 0), -1)
            else:
                c = min(range(n + m), key=costs.__getitem__)
            if c < 0 or costs[c] >= 0:
                break
            r = -1
            for i in range(m):
                a = rows[i][c]
                if a > 0:
                    if r < 0:
                        r = i
                        continue
                    left, right = rows[i][-1] * rows[r][c], rows[r][-1] * a
                    if left < right or (left == right and basis[i] < basis[r]):
                        r = i
            pivot_row = rows[r]
            p = pivot_row[c]
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    rows[i] = [(p * a - f * b) // denom
                               for a, b in zip(row, pivot_row)]
            denom = p
            basis[r] = c
            bland = pivot_row[-1] == 0
        support = [(basis[i], rows[i][-1]) for i in range(m)
                   if basis[i] < n and rows[i][-1] > 0]
        total = sum(value for _, value in support)
        mix = [(orders[j], value / total) for j, value in support]
        mix.sort(key=lambda item: (-item[1], item[0]))
        return mix

    @staticmethod
    def _candidate_orders(tables: PhaseTables) -> List[Tuple[int, ...]]:
        dims = tables.dims
        if len(dims) <= _EXHAUSTIVE_PERMUTATION_LIMIT:
            return [tuple(p) for p in itertools.permutations(dims)]
        # High-dimensional fallback: sweep the first dim, finish
        # largest-first (the shrink-optimal tail).
        orders = []
        for first in dims:
            rest = sorted(
                (d for d in dims if d != first),
                key=lambda d: (-tables.specs[d].size, d),
            )
            orders.append((first, *rest))
        return orders


_SCHEDULERS = {
    BaselineScheduler.name: BaselineScheduler,
    ThemisScheduler.name: ThemisScheduler,
}


def make_scheduler(name: str) -> ChunkScheduler:
    """Instantiate a scheduler by name ('baseline' or 'themis')."""
    try:
        return _SCHEDULERS[name.lower()]()
    except KeyError:
        raise InputError(
            f"unknown scheduler {name!r}; expected one of {sorted(_SCHEDULERS)}"
        ) from None
