"""Adaptive packet/flow granularity controller (HyGra-style).

The fidelity/speed trade-off in one backend: every message starts in the
max-min fluid-flow model (one event per rate change), and individual
*links* escalate to packet-granularity simulation when observed
contention crosses a configurable threshold — the regime where the fluid
approximation diverges from store-and-forward reality.  When congestion
drains below ``threshold - hysteresis`` the link de-escalates back to
fluid.  Packet-level event cost is paid only where fidelity buys
accuracy (HyGra, see PAPERS.md; ASTRA-sim2.0 Sec. III).

Mechanics
---------
* Per-link state machine (``_LinkGranState``): ``fluid`` <-> ``packet``
  with hysteresis.  Contention is measured as the number of concurrent
  flows crossing the link.
* Transitions are *observed* at flow joins (escalation candidates) and
  flow drains (de-escalation candidates), then *applied* on dedicated
  zero-delay events issued through the event kernel's batched
  ``schedule_many`` path — so a burst of joins flips a link once, after
  the burst, not once per join.
* The handoff protocol conserves in-flight bytes in both directions:
  escalating a link converts each fluid flow crossing it into one flow
  that steps through packet segments carrying exactly the fluid flow's
  remaining bytes; de-escalating converts its unsent segments plus the
  live segment's residue back into one fluid flow.
  ``InvariantChecker.check_granularity_handoff`` audits every
  conversion and a finalize-time conservation check audits the totals.

Fold interaction: escalation is per-*link* state observed at runtime, so
symmetry folding (simulate one rank per equivalence class) would change
which links see contention.  ``repro.core.folding`` auto-disables with
the exact reason ``"adaptive granularity observes per-link contention"``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.events import EventEngine
from repro.network.api import Message
from repro.network.flowlevel import FlowLevelNetwork, _Flow, _FlowLink
from repro.network.linkgraph import LazyLinkGraph
from repro.network.topology import MultiDimTopology


class _LinkGranState:
    """Granularity state machine for one materialized link."""

    __slots__ = ("link", "mode", "mark", "fluid_ns", "packet_ns", "pending")

    def __init__(self, link: _FlowLink) -> None:
        self.link = link
        self.mode = "fluid"
        # Simulated time at which the current mode was entered; closed
        # out into the residency accumulators on each flip / finalize.
        self.mark = 0.0
        self.fluid_ns = 0.0
        self.packet_ns = 0.0
        # True while a transition event is queued for this link (dedupes
        # the schedule_many batch under bursty joins/drains).
        self.pending = False


class AdaptiveFlowNetwork(FlowLevelNetwork):
    """Fluid-flow backend with runtime per-link granularity escalation.

    Subsumes the static opt-in ``escalation_threshold`` that
    :class:`FlowLevelNetwork` used to take: instead of deciding once at
    message start, a controller watches per-link concurrency and flips
    links between fluid and packet granularity as contention evolves,
    converting in-flight traffic byte-for-byte at each flip.

    Args:
        engine: The shared event engine.
        topology: Physical topology, expanded into the explicit link graph.
        escalation_threshold: A link escalates to packet granularity when
            it carries *more than* this many concurrent flows.  ``0``
            escalates everything (pure-packet work-alike), ``inf`` never
            escalates (bit-identical to :class:`FlowLevelNetwork`).
        deescalation_hysteresis: A packet-mode link de-escalates only
            when its flow count drops to ``escalation_threshold -
            deescalation_hysteresis`` or below, preventing oscillation at
            the threshold boundary.
        escalation_packet_bytes: Segment size for escalated traffic.
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: MultiDimTopology,
        escalation_threshold: float = 4.0,
        deescalation_hysteresis: float = 1.0,
        escalation_packet_bytes: int = 4096,
        **instruments,
    ) -> None:
        if math.isnan(escalation_threshold) or escalation_threshold < 0:
            raise ValueError(
                f"escalation_threshold must be >= 0 (inf allowed), "
                f"got {escalation_threshold}")
        if not math.isfinite(deescalation_hysteresis) \
                or deescalation_hysteresis < 0:
            raise ValueError(
                f"deescalation_hysteresis must be finite and >= 0, "
                f"got {deescalation_hysteresis}")
        if escalation_packet_bytes <= 0:
            raise ValueError(
                f"escalation_packet_bytes must be positive, "
                f"got {escalation_packet_bytes}")
        super().__init__(engine, topology, **instruments)
        self.escalation_threshold = float(escalation_threshold)
        self.deescalation_hysteresis = float(deescalation_hysteresis)
        self.escalation_packet_bytes = int(escalation_packet_bytes)
        # Rebuild the lazy graph so every link knows its key (telemetry
        # names residency counters per link, garnet-lite idiom).
        self._links = LazyLinkGraph(
            topology, lambda bw, lat: _FlowLink(bw, lat),
            on_create=lambda key, link: setattr(link, "key", key))
        # id(link) -> state, only for links that have carried traffic.
        self._gran: Dict[int, _LinkGranState] = {}
        # Links currently in packet mode (id set: O(1) membership on the
        # per-transmit hot path).
        self._packet_links: Set[int] = set()
        self._pending_transitions: List[_FlowLink] = []
        self.escalations = 0
        self.deescalations = 0
        self.handoffs = 0
        self.escalated_messages = 0

    # -- controller predicates (mutation-test seams) --------------------------------

    def _should_escalate(self, flow_count: int) -> bool:
        """Fluid link escalates when contention *exceeds* the threshold."""
        return flow_count > self.escalation_threshold

    def _should_deescalate(self, flow_count: int) -> bool:
        """Packet link de-escalates once contention drains below the
        hysteresis band (never while still above the escalation point)."""
        return flow_count <= (self.escalation_threshold
                              - self.deescalation_hysteresis)

    # -- state helpers --------------------------------------------------------------

    def _state_for(self, link: _FlowLink) -> _LinkGranState:
        state = self._gran.get(id(link))
        if state is None:
            state = _LinkGranState(link)
            state.mark = self.engine.now
            self._gran[id(link)] = state
        return state

    def _pend_transition(self, link: _FlowLink, state: _LinkGranState) -> None:
        state.pending = True
        self._pending_transitions.append(link)

    def _flush_transitions(self) -> None:
        if not self._pending_transitions:
            return
        batch = self._pending_transitions
        self._pending_transitions = []
        # Batched through the kernel's bulk path: zero-delay events fire
        # after the current event completes, so a burst of joins at one
        # timestamp is observed once, post-burst.
        self.engine.schedule_many(
            [(0.0, self._apply_transition, (link,)) for link in batch])

    # -- transition application -----------------------------------------------------

    def _apply_transition(self, link: _FlowLink) -> None:
        state = self._gran.get(id(link))
        if state is None:
            return
        state.pending = False
        self._advance_to_now()
        n = len(link.flows)
        # Re-validate at fire time: the burst that pended this event may
        # have drained (or grown) by now.
        if state.mode == "fluid" and self._should_escalate(n):
            self._escalate(link, state)
            self._resolve()
        elif state.mode == "packet" and self._should_deescalate(n):
            self._deescalate(link, state)
            self._resolve()

    def _flip_mode(self, state: _LinkGranState, mode: str) -> None:
        now = self.engine.now
        span = now - state.mark
        if state.mode == "fluid":
            state.fluid_ns += span
        else:
            state.packet_ns += span
        state.mode = mode
        state.mark = now

    def _segments(self, size_bytes: float) -> List[int]:
        """Packet segmentation conserving bytes exactly.

        A fractional in-flight residue is carried by rounding the total
        up to whole bytes once (< 1 byte of slack, audited by the
        handoff invariant's tolerance).
        """
        total = max(1, int(math.ceil(size_bytes)))
        packet = self.escalation_packet_bytes
        whole, tail = divmod(total, packet)
        return [packet] * whole + ([tail] if tail else [])

    def _escalate(self, link: _FlowLink, state: _LinkGranState) -> None:
        """Flip one link to packet mode, converting its fluid flows.

        Every non-finished fluid flow crossing the link is replaced by a
        flow of packet segments carrying exactly its remaining bytes;
        bytes already sent stay attributed to the fluid model.
        """
        self._flip_mode(state, "packet")
        self._packet_links.add(id(link))
        self.escalations += 1
        self.granularity_escalations += 1
        invariants = self.invariants
        now = self.engine.now
        for flow in list(link.flows):
            if flow.sizes is not None or flow.finished:
                continue  # already packet-granularity, or about to drain
            before = flow.remaining
            sizes = self._segments(before)
            if invariants is not None:
                invariants.check_granularity_handoff(
                    flow.message, before, float(sum(sizes)), now)
            self.handoffs += 1
            self.fluid_bytes += flow.size - before
            self._remove_flow(flow)
            self.escalated_messages += 1
            self._add_flow(_Flow(flow.message, flow.on_sent, flow.links,
                                 sizes=sizes))

    def _deescalate(self, link: _FlowLink, state: _LinkGranState) -> None:
        """Flip one link back to fluid, merging eligible segmented flows.

        A segmented flow folds back into a single fluid flow only when no
        link on its route remains in packet mode; otherwise its segments
        keep draining at packet granularity until the last packet link
        clears.
        """
        self._flip_mode(state, "fluid")
        self._packet_links.discard(id(link))
        self.deescalations += 1
        invariants = self.invariants
        packet_links = self._packet_links
        now = self.engine.now
        for flow in list(link.flows):
            if flow.sizes is None or flow.finished:
                continue
            if any(id(lnk) in packet_links for lnk in flow.links):
                continue
            before = flow.remaining + float(sum(flow.sizes[flow.next_idx:]))
            if invariants is not None:
                invariants.check_granularity_handoff(
                    flow.message, before, before, now)
            self.handoffs += 1
            # Only the live segment's sent portion: earlier segments
            # were attributed on their own completion.
            self.escalated_bytes += flow.size - flow.remaining
            self._remove_flow(flow)
            # Attribute only the not-yet-sent remainder to this fluid
            # flow (its nominal size is the merged remainder).
            self._add_flow(_Flow(flow.message, flow.on_sent, flow.links,
                                 size_bytes=before))

    # -- FlowLevelNetwork overrides ---------------------------------------------------

    def _transmit(self, message: Message,
                  on_sent: Optional[Callable[[], None]]) -> None:
        links = self._links.path(message.src, message.dest)
        self._advance_to_now()
        if self._packet_links and any(
                id(link) in self._packet_links for link in links):
            # Route crosses an escalated segment: start directly at
            # packet granularity so the contended link sees packets.
            self.escalated_messages += 1
            self._add_flow(_Flow(message, on_sent, links, sizes=self._segments(
                float(message.size_bytes))))
        else:
            self._add_flow(_Flow(message, on_sent, links))
        # Joins can only push links *up* through the threshold.
        for link in links:
            n = len(link.flows)
            if self._should_escalate(n):
                state = self._state_for(link)
                if state.mode == "fluid" and not state.pending:
                    self._pend_transition(link, state)
        self._flush_transitions()
        self._resolve()

    def _complete_due_flows(self) -> Tuple[List[_Flow], bool]:
        finished, departed = super()._complete_due_flows()
        # Drains can only pull links *down* through the hysteresis band.
        # Segment handoffs alone leave every link's flow count as it was,
        # and a packet link already inside the band has a transition
        # pending since the drain that brought it there, so the scan
        # could not pend anything.
        if departed and self._gran:
            for flow in finished:
                for link in flow.links:
                    state = self._gran.get(id(link))
                    if (state is not None and state.mode == "packet"
                            and not state.pending
                            and self._should_deescalate(len(link.flows))):
                        self._pend_transition(link, state)
            self._flush_transitions()
        return finished, departed

    # -- telemetry and invariants ---------------------------------------------------

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        super().telemetry_finalize(telemetry, total_ns)
        metrics = telemetry.metrics
        metrics.counter("network", "escalations").value = float(
            self.escalations)
        metrics.counter("network", "deescalations").value = float(
            self.deescalations)
        metrics.counter("network", "granularity_handoffs").value = float(
            self.handoffs)
        metrics.counter("network", "escalated_messages").value = float(
            self.escalated_messages)
        metrics.counter("network", "fluid_bytes").value = self.fluid_bytes
        metrics.counter("network", "escalated_bytes").value = \
            self.escalated_bytes
        # Per-link granularity residency, loudest links first, capped
        # like garnet-lite's link metrics.
        states = sorted(
            self._gran.values(),
            key=lambda s: -(s.packet_ns + (total_ns - s.mark
                                           if s.mode == "packet" else 0.0)))
        cap = telemetry.config.max_link_metrics
        for state in states[:cap]:
            tail = total_ns - state.mark
            fluid_ns = state.fluid_ns + (tail if state.mode == "fluid" else 0.0)
            packet_ns = state.packet_ns + (
                tail if state.mode == "packet" else 0.0)
            label = "->".join(str(part) for part in state.link.key) \
                if isinstance(state.link.key, tuple) else str(state.link.key)
            metrics.counter(
                "network", f"granularity_residency_ns[{label}][fluid]"
            ).value = fluid_ns
            metrics.counter(
                "network", f"granularity_residency_ns[{label}][packet]"
            ).value = packet_ns
        metrics.counter("network", "links_escalated_now").value = float(
            len(self._packet_links))

    def invariants_finalize(self, checker, total_ns: float) -> None:
        """Handoffs conserved bytes and no link stayed escalated."""
        super().invariants_finalize(checker, total_ns)
        # Every byte a message delivered was attributed to exactly one
        # granularity, so fluid + escalated must equal the delivered
        # total (slack: <= 1 B per message for the size-floor/segment
        # rounding, <= 1 B per handoff for the ceil at conversion).
        checker.checks += 1
        accounted = self.fluid_bytes + self.escalated_bytes
        delivered = float(self.bytes_delivered)
        slack = (2.0 * (self.messages_delivered + self.handoffs)
                 + checker.config.rel_tolerance * max(1.0, delivered))
        if abs(accounted - delivered) > slack:
            checker.record(
                "network", "conservation",
                f"granularity byte attribution {accounted:.6g} B "
                f"(fluid {self.fluid_bytes:.6g} + escalated "
                f"{self.escalated_bytes:.6g}) does not conserve "
                f"the {delivered:.6g} B delivered",
                time_ns=total_ns, fluid_bytes=self.fluid_bytes,
                escalated_bytes=self.escalated_bytes,
                delivered_bytes=delivered)
        # No stuck escalations: once traffic drains, any link whose
        # de-escalation point is reachable (threshold - hysteresis >= 0)
        # must have flipped back to fluid.
        if self.escalation_threshold - self.deescalation_hysteresis < 0:
            return
        for state in self._gran.values():
            checker.checks += 1
            if (state.mode == "packet" and not state.link.flows
                    and not state.pending):
                checker.record(
                    "network", "leak",
                    f"link {state.link.key!r} still escalated at end of "
                    "run with no flows (missed de-escalation)",
                    time_ns=total_ns)
