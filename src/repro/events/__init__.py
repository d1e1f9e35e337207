"""Discrete-event simulation kernel.

This subpackage is the substrate every other layer of the simulator is
built on.  It provides a deterministic, single-threaded event queue with a
simulation clock (:class:`EventEngine`).  Every scheduled callback is one
``[time, priority, seq, fn, args]`` heap entry; ``schedule`` returns that
entry as an opaque handle, and :meth:`EventEngine.cancel` takes it.

The kernel is callback-based rather than coroutine-based: ASTRA-sim's
NetworkAPI is itself a callback protocol (``sim_send(..., callback)``), so a
callback kernel keeps the port faithful and avoids generator bookkeeping in
the hot path.
"""

from repro.events.engine import EventEngine, SimulationError

__all__ = [
    "EventEngine",
    "SimulationError",
]
