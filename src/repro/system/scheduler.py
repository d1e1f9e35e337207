"""Chunk-to-dimension scheduling policies.

Collectives are split into chunks, and each chunk must visit every active
dimension of its communicator.  *In which order* is the scheduling
decision, fixed per chunk when the chunk launches:

- :class:`BaselineScheduler` — the paper's baseline multi-rail hierarchical
  order: every chunk traverses dims in ascending index order (Dim 1 -> Dim
  N for Reduce-Scatter, reversed for the All-Gather half).
- :class:`ThemisScheduler` — the bandwidth-aware policy of Themis
  (Rashidi et al., ISCA'22; paper Sec. V-A).  It solves the order-mix
  balancing problem — what fraction of the payload should traverse the
  dimensions in each candidate order so the worst per-dimension load is
  minimized — and executes the collective in the fluid limit an ideal
  chunked schedule converges to.  Mixing orders across chunks balances
  per-dimension load toward the aggregate-bandwidth bound: a 1 GB
  All-Reduce on the paper's Conv-4D (250+200+100+50 GB/s) lands within a
  few percent of the W-1D-600 wafer-scale time, the headline observation
  of Fig. 9(a).

Every scheduler memoises, per run, the phase table of each chunk plan it
sees (:meth:`ChunkScheduler.phase_tables`): the rows of
:func:`repro.system.phases.phase_table` and the work vector summed from
them.  The greedy order, the LP mix, the balanced plan and the chunk
stepper of :class:`~repro.system.collective_op.CollectiveOperation` all
read the same tables.

Schedulers see the communicator as a mapping ``dim index -> DimSpec``
whose sizes are the *effective* per-dimension group sizes — for
sub-dimension communicators (e.g. an MP group of 16 inside a 512-NPU
wafer switch) the effective size is smaller than the physical dimension.
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.analytical import AnalyticalNetwork
from repro.network.topology import DimSpec
from repro.system.phases import PhaseKind, PhaseRows, phase_table

# Above this many dimensions, evaluating every permutation is replaced by a
# first-dim sweep with shrink-optimal (largest-first) tails.
_EXHAUSTIVE_PERMUTATION_LIMIT = 5

DimSpecs = Mapping[int, DimSpec]


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

    Filled on first lookup of each order with
    :func:`~repro.system.phases.phase_table` and :func:`chunk_work_vector`;
    callers only read what it returns.
    """

    __slots__ = ("specs", "kind", "payload_bytes", "roundtrip")

    def __init__(self, specs: DimSpecs, kind: PhaseKind,
                 payload_bytes: float, roundtrip: bool) -> None:
        super().__init__()
        self.specs = specs
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.roundtrip = roundtrip

    def __missing__(self, order: Tuple[int, ...]
                    ) -> Tuple[PhaseRows, Dict[int, float]]:
        rows = phase_table(self.specs, order, self.kind, self.payload_bytes,
                           self.roundtrip)
        table = self[order] = (rows, chunk_work_vector(rows, self.roundtrip))
        return table


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


class ChunkScheduler(abc.ABC):
    """Strategy interface: choose a chunk's full dimension order."""

    name: str = "abstract"

    def __init__(self) -> None:
        self._tables: Dict[tuple, PhaseTables] = {}

    def phase_tables(
        self,
        dim_specs: DimSpecs,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        roundtrip: bool,
    ) -> PhaseTables:
        """The phase tables of every order over ``dims``, memoised per run.

        Keyed on the exact signature (payload as the exact float,
        effective specs as the ``DimSpec``s themselves), so every chunk of
        every collective on one communicator shares one table per order.
        """
        dims = tuple(sorted(dims))
        specs = tuple(dim_specs[d] for d in dims)
        key = (dims, kind, payload_bytes, roundtrip, specs)
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = PhaseTables(
                dict(zip(dims, specs)), kind, payload_bytes, roundtrip)
        return tables

    def balanced_plan(
        self,
        network: AnalyticalNetwork,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        num_chunks: int,
        roundtrip: bool = False,
        dim_specs: DimSpecs = None,
    ) -> Optional[BalancedPlan]:
        """Fluid-limit plan for a whole collective; ``None`` runs it chunk
        by chunk with :meth:`plan_order`."""
        return None

    @abc.abstractmethod
    def plan_order(
        self,
        network: AnalyticalNetwork,
        rep_npu: int,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        pending_load: Mapping[int, float],
        roundtrip: bool = False,
        dim_specs: DimSpecs = None,
    ) -> Tuple[int, ...]:
        """Return the dimension order the chunk will traverse.

        Args:
            network: Analytical backend (for port backlogs).
            rep_npu: Canonical representative NPU whose ports this
                collective occupies.
            dims: Active dimension indices (never empty).
            kind: Phase kind of the (first) traversal pass.
            payload_bytes: Chunk payload entering the first phase.
            pending_load: Per-dim port time already planned by earlier
                chunks of in-flight collectives but not yet reserved.
            roundtrip: True when the traversal is the RS half of an
                All-Reduce (the AG half will mirror it).
            dim_specs: Effective per-dim specs of the communicator;
                defaults to the physical topology's.
        """


def _resolve_specs(network: AnalyticalNetwork, dim_specs: DimSpecs) -> DimSpecs:
    return dim_specs if dim_specs is not None else network.topology.dims


class BaselineScheduler(ChunkScheduler):
    """Fixed hierarchical order: ascending dimension index, every chunk."""

    name = "baseline"

    def plan_order(
        self,
        network: AnalyticalNetwork,
        rep_npu: int,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        pending_load: Mapping[int, float],
        roundtrip: bool = False,
        dim_specs: DimSpecs = None,
    ) -> Tuple[int, ...]:
        if not dims:
            raise ValueError("no dimensions to order")
        return tuple(sorted(dims))


class ThemisScheduler(ChunkScheduler):
    """Bandwidth-balanced order assignment (fluid limit).

    :meth:`balanced_plan` solves, once per (communicator, payload)
    signature, a small linear program over candidate dimension orders —
    exactly the load-balancing problem Themis's greedy chunk placement
    approximates — and returns balanced per-dimension loads for fluid
    execution.  The plan itself is memoized per exact signature, so a
    training loop's thousands of collectives build only a handful.
    Without scipy it returns ``None`` and execution falls back to
    chunk-by-chunk traversal with :meth:`plan_order`'s greedy bottleneck
    minimization.
    """

    name = "themis"

    def __init__(self) -> None:
        super().__init__()
        self._mix_cache: Dict[tuple, List[Tuple[Tuple[int, ...], float]]] = {}
        # balanced_plan is pure in its exact signature (payload as the
        # exact float, effective specs as the DimSpecs themselves).
        self._plan_cache: Dict[tuple, Optional[BalancedPlan]] = {}

    def balanced_plan(
        self,
        network: AnalyticalNetwork,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        num_chunks: int,
        roundtrip: bool = False,
        dim_specs: DimSpecs = None,
    ) -> Optional[BalancedPlan]:
        """Balanced per-dim loads for the whole collective, or ``None``.

        Latency steps are charged per chunk (each of the ``num_chunks``
        pipelined chunks pays its phase latencies), matching what the
        chunk-level execution would enqueue in total.  The returned plan
        is shared by every call with the same signature.
        """
        specs = _resolve_specs(network, dim_specs)
        dims = tuple(dims)
        signature = (dims, kind, payload_bytes, num_chunks, roundtrip,
                     tuple(specs[d] for d in dims))
        try:
            return self._plan_cache[signature]
        except KeyError:
            pass
        plan = self._plan_cache[signature] = self._build_plan(
            specs, dims, kind, payload_bytes, num_chunks, roundtrip)
        return plan

    def _build_plan(
        self,
        specs: DimSpecs,
        dims: Tuple[int, ...],
        kind: PhaseKind,
        payload_bytes: float,
        num_chunks: int,
        roundtrip: bool,
    ) -> Optional[BalancedPlan]:
        mix = self._mix(specs, sorted(dims), kind,
                        payload_bytes / num_chunks, roundtrip)
        if not mix:
            return None
        chunk_payload = payload_bytes / num_chunks
        loads: Dict[int, float] = {d: 0.0 for d in dims}
        traffic: Dict[int, float] = {d: 0.0 for d in dims}
        fill = float("inf")
        tables = self.phase_tables(specs, dims, kind, chunk_payload, roundtrip)
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
            ramp = sum(walls) - max(walls) if walls else 0.0
            fill = min(fill, ramp)
        if fill == float("inf"):
            fill = 0.0
        return BalancedPlan(loads_ns=loads, fill_ns=fill, traffic_bytes=traffic)

    def plan_order(
        self,
        network: AnalyticalNetwork,
        rep_npu: int,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        pending_load: Mapping[int, float],
        roundtrip: bool = False,
        dim_specs: DimSpecs = None,
    ) -> Tuple[int, ...]:
        if not dims:
            raise ValueError("no dimensions to order")
        specs = _resolve_specs(network, dim_specs)
        return self._greedy_order(
            network, rep_npu, dims, kind, payload_bytes, pending_load,
            roundtrip, specs,
        )

    # -- LP mix -------------------------------------------------------------------

    def _mix(
        self,
        specs: DimSpecs,
        dims: List[int],
        kind: PhaseKind,
        payload_bytes: float,
        roundtrip: bool,
    ) -> List[Tuple[Tuple[int, ...], float]]:
        signature = (
            tuple(dims), kind, roundtrip, round(payload_bytes, 3),
            tuple(
                (specs[d].size, specs[d].bandwidth_gbps, specs[d].latency_ns)
                for d in dims
            ),
        )
        mix = self._mix_cache.get(signature)
        if mix is None:
            mix = self._solve_mix(specs, dims, kind, payload_bytes, roundtrip)
            self._mix_cache[signature] = mix
        return mix

    def _solve_mix(
        self,
        specs: DimSpecs,
        dims: List[int],
        kind: PhaseKind,
        payload_bytes: float,
        roundtrip: bool,
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """Minimize the worst per-dim load over order fractions; [] if no LP."""
        try:
            from scipy.optimize import linprog
        except ImportError:  # pragma: no cover - scipy is an optional path
            return []
        orders = self._candidate_orders(specs, dims)
        tables = self.phase_tables(specs, dims, kind, payload_bytes, roundtrip)
        vectors = [tables[order][1] for order in orders]
        n = len(orders)
        # Variables: x_0..x_{n-1} (order fractions), T (bottleneck).
        c = [0.0] * n + [1.0]
        a_ub = []
        for d in dims:
            a_ub.append([vec.get(d, 0.0) for vec in vectors] + [-1.0])
        b_ub = [0.0] * len(dims)
        a_eq = [[1.0] * n + [0.0]]
        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
            bounds=[(0, None)] * n + [(0, None)], method="highs",
        )
        if not result.success:  # pragma: no cover - LP is always feasible
            return []
        mix = [
            (order, x)
            for order, x in zip(orders, result.x[:n])
            if x > 1e-9
        ]
        mix.sort(key=lambda item: (-item[1], item[0]))
        return mix

    # -- greedy fallback -------------------------------------------------------------

    def _greedy_order(
        self,
        network: AnalyticalNetwork,
        rep_npu: int,
        dims: Sequence[int],
        kind: PhaseKind,
        payload_bytes: float,
        pending_load: Mapping[int, float],
        roundtrip: bool,
        specs: DimSpecs,
    ) -> Tuple[int, ...]:
        horizon = {
            d: network.port_backlog(rep_npu, d) + pending_load.get(d, 0.0)
            for d in dims
        }
        tables = self.phase_tables(specs, dims, kind, payload_bytes, roundtrip)
        best_order: Tuple[int, ...] = ()
        best_key = None
        for order in self._candidate_orders(specs, dims):
            work = tables[order][1]
            bottleneck = max(horizon[d] + work[d] for d in order)
            key = (bottleneck, sum(work.values()), order)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
        return best_order

    @staticmethod
    def _candidate_orders(
        specs: DimSpecs, dims: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        dims = sorted(dims)
        if len(dims) <= _EXHAUSTIVE_PERMUTATION_LIMIT:
            return [tuple(p) for p in itertools.permutations(dims)]
        # High-dimensional fallback: sweep the first dim, finish
        # largest-first (the shrink-optimal tail).
        orders = []
        for first in dims:
            rest = sorted(
                (d for d in dims if d != first),
                key=lambda d: (-specs[d].size, d),
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
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(_SCHEDULERS)}"
        ) from None
