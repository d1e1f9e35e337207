"""Discrete-event simulation kernel.

This subpackage is the substrate every other layer of the simulator is
built on.  It provides a deterministic, single-threaded event queue with a
simulation clock (:class:`EventEngine`) and lightweight one-shot timers.

The kernel is callback-based rather than coroutine-based: ASTRA-sim's
NetworkAPI is itself a callback protocol (``sim_send(..., callback)``), so a
callback kernel keeps the port faithful and avoids generator bookkeeping in
the hot path.
"""

from repro.events.engine import Event, EventEngine, SimulationError

__all__ = [
    "Event",
    "EventEngine",
    "SimulationError",
]
