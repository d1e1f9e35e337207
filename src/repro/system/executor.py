"""Send/recv-based collective executor.

Runs real topology-aware collective algorithms as explicit point-to-point
messages through **any** :class:`~repro.network.api.NetworkBackend` — the
analytical backend or the packet-level Garnet-lite backend.  This is the
apparatus behind the paper's validation (Fig. 4) and speedup (Sec. IV-C)
experiments: the same algorithm is replayed over both backends and the
resulting collective times / wall-clock costs are compared.

All three Table I algorithms are implemented for 1-D groups:

- **Ring** (for Ring dims): 2(k-1) neighbor steps of size/k messages;
- **Direct** (for FullyConnected dims): one personalized exchange per
  half — every rank sends size/k to every other rank;
- **Halving-Doubling** (for Switch dims): log2(k) recursive-halving
  steps, then log2(k) recursive-doubling steps.

Multi-dimensional collectives in production runs use the phase-level
:class:`~repro.system.collective_op.CollectiveOperation` instead.

Each algorithm's opening fan-out runs inside the backend's
:meth:`~repro.network.api.NetworkBackend.batch` scope: every rank's
first sends join at one instant on fresh tags, so no receive can fire
inside the loop, and a flow backend solves its rates once for the lot.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.events import EventEngine
from repro.network.api import NetworkBackend


class _RingRank:
    """Per-rank state for the ring algorithm."""

    __slots__ = ("step", "send_done", "recv_done")

    def __init__(self) -> None:
        self.step = 0
        self.send_done = False
        self.recv_done = False


class SendRecvCollectiveExecutor:
    """Executes ring collectives with explicit sim_send/sim_recv traffic."""

    def __init__(self, engine: EventEngine, backend: NetworkBackend,
                 tag_base: int = 0) -> None:
        self.engine = engine
        self.backend = backend
        # A non-zero starting tag keeps executor traffic out of the tag
        # space used by explicit trace send/recv nodes when both share a
        # backend (the execution engine starts it at 2^30).
        self._tag_base = tag_base

    def _next_tag_base(self, steps: int) -> int:
        base = self._tag_base
        self._tag_base += steps + 1
        return base

    def run_ring_allreduce(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Ring All-Reduce: 2(k-1) steps of size ``payload/k`` messages.

        ``on_complete`` receives the collective's wall time in ns once every
        rank has finished the final step.
        """
        self._run_ring(group, payload_bytes, gather_only=False,
                       on_complete=on_complete)

    def run_ring_allgather(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Ring All-Gather: (k-1) steps; ``payload_bytes`` is the gathered size."""
        self._run_ring(group, payload_bytes, gather_only=True,
                       on_complete=on_complete)

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
        k = len(group)
        if k < 2:
            if on_complete is not None:
                self.engine.schedule(0.0, on_complete, 0.0)
            return
        if len(set(group)) != k:
            raise ValueError(f"group contains duplicate NPUs: {group}")
        chunk = max(1, payload_bytes // k)
        tag_base = self._next_tag_base(2)
        start_time = self.engine.now
        finished = {"count": 0}

        def rank_finished() -> None:
            finished["count"] += 1
            if finished["count"] == k and on_complete is not None:
                on_complete(self.engine.now - start_time)

        def start_phase(idx: int, phase: int) -> None:
            if phase == 2:
                rank_finished()
                return
            npu = group[idx]
            state = {"sent": 0, "received": 0}
            tag = tag_base + phase

            def maybe_advance() -> None:
                if state["sent"] == k - 1 and state["received"] == k - 1:
                    start_phase(idx, phase + 1)

            def on_sent() -> None:
                state["sent"] += 1
                maybe_advance()

            def on_received(_msg) -> None:
                state["received"] += 1
                maybe_advance()

            for peer in group:
                if peer == npu:
                    continue
                self.backend.sim_recv(npu, peer, chunk, tag=tag,
                                      callback=on_received)
                self.backend.sim_send(npu, peer, chunk, tag=tag,
                                      callback=on_sent)

        with self.backend.batch():
            for idx in range(k):
                start_phase(idx, 0)

    def run_alltoall(
        self,
        group: Sequence[int],
        payload_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        """All-to-All: one personalized exchange phase.

        ``payload_bytes`` is each rank's total exchange payload; every
        rank sends ``payload/k`` to each of the ``k - 1`` peers (the
        token-routing / embedding-exchange pattern of MoE and DLRM).
        """
        k = len(group)
        if k < 2:
            if on_complete is not None:
                self.engine.schedule(0.0, on_complete, 0.0)
            return
        if len(set(group)) != k:
            raise ValueError(f"group contains duplicate NPUs: {group}")
        chunk = max(1, payload_bytes // k)
        tag = self._next_tag_base(1)
        start_time = self.engine.now
        finished = {"count": 0}

        def start_rank(idx: int) -> None:
            npu = group[idx]
            state = {"sent": 0, "received": 0}

            def maybe_finish() -> None:
                if state["sent"] == k - 1 and state["received"] == k - 1:
                    finished["count"] += 1
                    if finished["count"] == k and on_complete is not None:
                        on_complete(self.engine.now - start_time)

            def on_sent() -> None:
                state["sent"] += 1
                maybe_finish()

            def on_received(_msg) -> None:
                state["received"] += 1
                maybe_finish()

            for peer in group:
                if peer == npu:
                    continue
                self.backend.sim_recv(npu, peer, chunk, tag=tag,
                                      callback=on_received)
                self.backend.sim_send(npu, peer, chunk, tag=tag,
                                      callback=on_sent)

        with self.backend.batch():
            for idx in range(k):
                start_rank(idx)

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
        if k < 2:
            if on_complete is not None:
                self.engine.schedule(0.0, on_complete, 0.0)
            return
        if k & (k - 1):
            raise ValueError(f"halving-doubling needs a power-of-two group, got {k}")
        if len(set(group)) != k:
            raise ValueError(f"group contains duplicate NPUs: {group}")
        import math

        log_k = int(math.log2(k))
        total_steps = 2 * log_k
        tag_base = self._next_tag_base(total_steps)
        start_time = self.engine.now
        finished = {"count": 0}

        def rank_finished() -> None:
            finished["count"] += 1
            if finished["count"] == k and on_complete is not None:
                on_complete(self.engine.now - start_time)

        def message_bytes(step: int) -> int:
            # Halving: size/2, size/4, ...; doubling mirrors back up.
            if step < log_k:
                exponent = step + 1
            else:
                exponent = total_steps - step
            return max(1, payload_bytes >> exponent)

        def start_step(idx: int, step: int) -> None:
            if step == total_steps:
                rank_finished()
                return
            npu = group[idx]
            distance = 1 << (step if step < log_k else total_steps - 1 - step)
            partner = group[idx ^ distance]
            size = message_bytes(step)
            tag = tag_base + step
            state = {"sent": False, "received": False}

            def maybe_advance() -> None:
                if state["sent"] and state["received"]:
                    start_step(idx, step + 1)

            def on_sent() -> None:
                state["sent"] = True
                maybe_advance()

            def on_received(_msg) -> None:
                state["received"] = True
                maybe_advance()

            self.backend.sim_recv(npu, partner, size, tag=tag,
                                  callback=on_received)
            self.backend.sim_send(npu, partner, size, tag=tag,
                                  callback=on_sent)

        with self.backend.batch():
            for idx in range(k):
                start_step(idx, 0)

    # -- internals -----------------------------------------------------------------

    def _run_ring(
        self,
        group: Sequence[int],
        payload_bytes: int,
        gather_only: bool,
        on_complete: Optional[Callable[[float], None]],
    ) -> None:
        k = len(group)
        if k < 2:
            if on_complete is not None:
                self.engine.schedule(0.0, on_complete, 0.0)
            return
        if len(set(group)) != k:
            raise ValueError(f"group contains duplicate NPUs: {group}")
        total_steps = (k - 1) if gather_only else 2 * (k - 1)
        chunk = max(1, payload_bytes // k)
        tag_base = self._next_tag_base(total_steps)
        start_time = self.engine.now
        ranks: Dict[int, _RingRank] = {npu: _RingRank() for npu in group}
        finished = {"count": 0}

        def rank_finished() -> None:
            finished["count"] += 1
            if finished["count"] == k and on_complete is not None:
                on_complete(self.engine.now - start_time)

        def start_step(idx: int) -> None:
            """Launch one rank's current step (send + recv in parallel)."""
            npu = group[idx]
            state = ranks[npu]
            if state.step == total_steps:
                rank_finished()
                return
            state.send_done = False
            state.recv_done = False
            tag = tag_base + state.step
            nxt = group[(idx + 1) % k]
            prv = group[(idx - 1) % k]

            def maybe_advance() -> None:
                if state.send_done and state.recv_done:
                    state.step += 1
                    start_step(idx)

            def on_sent() -> None:
                state.send_done = True
                maybe_advance()

            def on_received(_msg) -> None:
                state.recv_done = True
                maybe_advance()

            self.backend.sim_recv(npu, prv, chunk, tag=tag, callback=on_received)
            self.backend.sim_send(npu, nxt, chunk, tag=tag, callback=on_sent)

        with self.backend.batch():
            for idx in range(k):
                start_step(idx)
