"""Send/recv-based collective executor.

Runs real topology-aware collective algorithms as explicit point-to-point
messages through **any** :class:`~repro.network.api.NetworkBackend` — the
analytical backend or the packet-level Garnet-lite backend.  This is the
apparatus behind the paper's validation (Fig. 4) and speedup (Sec. IV-C)
experiments: the same algorithm is replayed over both backends and the
resulting collective times / wall-clock costs are compared.

Each algorithm is a *step function* ``(rank index, step) -> (pairs,
size)``: in every step a rank posts, for each ``(recv-from, send-to)``
pair in order, one ``sim_recv`` and then one ``sim_send`` of ``size``
bytes, and moves to the next step once all of them have completed.  One
driver runs every algorithm.  The three Table I algorithms on 1-D groups:

- **Ring** (for Ring dims): 2(k-1) neighbor steps of size/k messages;
- **Direct** (for FullyConnected dims): one personalized exchange per
  half — every rank sends size/k to every other rank;
- **Halving-Doubling** (for Switch dims): log2(k) recursive-halving
  steps, then log2(k) recursive-doubling steps;

plus All-to-All, a single personalized exchange.  Multi-dimensional
collectives in production runs use the phase-level
:class:`~repro.system.collective_op.CollectiveOperation` instead.

Every rank's first sends join at one instant, so a flow backend
solves its rates once for the lot, at the event engine's end-of-instant
step (:meth:`~repro.events.EventEngine.at_instant_end`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.events import EventEngine
from repro.network.api import NetworkBackend

#: ``(rank index, step) -> (((recv-from, send-to), ...), message bytes)``.
StepFn = Callable[[int, int], Tuple[Sequence[Tuple[int, int]], int]]


class SendRecvCollectiveExecutor:
    """Executes collectives with explicit sim_send/sim_recv traffic.

    ``on_complete`` receives the collective's wall time in ns once every
    rank has finished its last step.
    """

    def __init__(self, engine: EventEngine, backend: NetworkBackend,
                 tag_base: int = 0) -> None:
        self.engine = engine
        self.backend = backend
        # A non-zero starting tag keeps executor traffic out of the tag
        # space used by explicit trace send/recv nodes when both share a
        # backend (the execution engine starts it at 2^30).
        self._tag_base = tag_base

    def run_ring_allreduce(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Ring All-Reduce: 2(k-1) steps of size ``payload/k`` messages."""
        self._drive(group, 2 * (len(group) - 1),
                    _ring(group, payload_bytes), on_complete)

    def run_ring_allgather(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Ring All-Gather: (k-1) steps; ``payload_bytes`` is the gathered size."""
        self._drive(group, len(group) - 1, _ring(group, payload_bytes),
                    on_complete)

    def run_direct_allreduce(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Direct All-Reduce (for FullyConnected dims, paper Table I).

        Two personalized exchanges: Reduce-Scatter (every rank sends its
        ``payload/k`` shard destined to each peer) then All-Gather (every
        rank broadcasts its reduced shard).
        """
        self._drive(group, 2, _exchange(group, payload_bytes), on_complete)

    def run_alltoall(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """All-to-All: one personalized exchange step.

        ``payload_bytes`` is each rank's total exchange payload; every
        rank sends ``payload/k`` to each of the ``k - 1`` peers (the
        token-routing / embedding-exchange pattern of MoE and DLRM).
        """
        self._drive(group, 1, _exchange(group, payload_bytes), on_complete)

    def run_halving_doubling_allreduce(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Halving-Doubling All-Reduce (for Switch dims, paper Table I).

        Requires a power-of-two group.  Recursive halving (messages of
        size/2, size/4, ...) reduces-scatters; recursive doubling
        all-gathers back.
        """
        k = len(group)
        if k & (k - 1):
            raise ValueError(f"halving-doubling needs a power-of-two group, got {k}")
        log_k = k.bit_length() - 1
        steps = 2 * log_k

        def step_fn(idx: int, step: int):
            # Halving: size/2 to the partner at distance 1, size/4 at 2,
            # ...; doubling mirrors back up.
            exponent = step + 1 if step < log_k else steps - step
            partner = group[idx ^ (1 << (exponent - 1))]
            return ((partner, partner),), max(1, payload_bytes >> exponent)

        self._drive(group, steps, step_fn, on_complete)

    # -- internals -----------------------------------------------------------------

    def _next_tag_base(self, steps: int) -> int:
        base = self._tag_base
        self._tag_base += steps + 1
        return base

    def _drive(
        self,
        group: Sequence[int],
        steps: int,
        step_fn: StepFn,
        on_complete: Optional[Callable[[float], None]],
    ) -> None:
        """Run ``steps`` steps of ``step_fn`` on every rank of ``group``."""
        k = len(group)
        if k < 2:
            if on_complete is not None:
                self.engine.schedule(0.0, on_complete, 0.0)
            return
        if len(set(group)) != k:
            raise ValueError(f"group contains duplicate NPUs: {group}")
        tag_base = self._next_tag_base(steps)
        start_time = self.engine.now
        backend = self.backend
        unfinished = k

        def start_step(idx: int, step: int) -> None:
            nonlocal unfinished
            if step == steps:
                unfinished -= 1
                if not unfinished and on_complete is not None:
                    on_complete(self.engine.now - start_time)
                return
            npu = group[idx]
            pairs, size = step_fn(idx, step)
            tag = tag_base + step
            pending = 2 * len(pairs)

            def done(*_message) -> None:
                nonlocal pending
                pending -= 1
                if not pending:
                    start_step(idx, step + 1)

            for recv_from, send_to in pairs:
                backend.sim_recv(npu, recv_from, size, tag=tag, callback=done)
                backend.sim_send(npu, send_to, size, tag=tag, callback=done)

        for idx in range(k):
            start_step(idx, 0)


def _ring(group: Sequence[int], payload_bytes: int) -> StepFn:
    """Every step: receive from the previous rank, send to the next."""
    k = len(group)

    def step_fn(idx: int, step: int):
        pair = (group[(idx - 1) % k], group[(idx + 1) % k])
        return (pair,), max(1, payload_bytes // k)
    return step_fn


def _exchange(group: Sequence[int], payload_bytes: int) -> StepFn:
    """Every step: a personalized ``payload/k`` exchange with every peer."""
    k = len(group)

    def step_fn(idx: int, step: int):
        npu = group[idx]
        pairs = [(peer, peer) for peer in group if peer != npu]
        return pairs, max(1, payload_bytes // k)
    return step_fn
