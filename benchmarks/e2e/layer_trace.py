"""Outside-in layer tracing: class-level patches around ``repro`` layer entry points.

The benchmark never edits the simulator to see where host time goes.
:class:`LayerTrace` is a context manager that, while active, replaces a
fixed set of public functions and methods with thin wrappers that record
spans, then puts every original back on exit:

- ``EventEngine.schedule`` / ``schedule_at`` / ``schedule_many`` (the
  scheduled callback is wrapped too, tagged with the ``repro``
  subpackage of its owner, so every fired event is a span of its layer)
  and ``EventEngine.run`` (whose self time is the kernel's own loop);
- ``sim_send`` / ``sim_recv`` on every network backend class that
  defines them, plus their completion callbacks, and
  ``AnalyticalNetwork.reserve_port`` (how the system layer prices a
  collective phase on the analytical backend);
- ``access_time_ns`` / ``collective_time_ns`` on every memory model;
- ``repro.simulate``, ``result_to_dict``, ``plan``, ``build_op_graph``
  (in every ``repro`` module that bound them by name) and
  ``Simulator.__init__``.

A span's *self time* is its duration minus the time covered by the
spans it encloses, so the per-layer self times partition the traced
wall clock.  Spans are aggregated in memory as they close; nothing is
written until the benchmark prints its result.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

_perf = time.perf_counter

#: Exact backend attributes summed per traced point (0 where a backend
#: lacks one: only the adaptive backend escalates).
NETWORK_COUNTERS = ("messages_delivered", "bytes_delivered", "escalations",
                    "handoffs")


def layer_of(fn: Callable) -> str:
    """The ``repro`` subpackage that owns a callable (``"other"`` outside)."""
    layer = getattr(fn, "_bench_layer", None)
    if layer is not None:
        return layer
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        module = type(owner).__module__
    else:
        module = getattr(fn, "__module__", "") or ""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"


class LayerTrace:
    """Span recorder plus the class-level patches that feed it."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)  # layer -> self time
        self.incl_s: Dict[str, float] = defaultdict(float)  # target -> duration
        self.calls: Counter = Counter()                    # target -> calls
        self.fired: Counter = Counter()                    # id(engine) -> events
        self.simulators: List[Any] = []
        self._child: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Tuple[Any, Any]] = {}  # id -> (wrapper, original)

    # -- span accounting ---------------------------------------------------------

    def span(self, layer: str, name: str, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """Call ``fn`` inside a span; charge its self time to ``layer``."""
        stack = self._child
        stack.append(0.0)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _perf() - start
            self.self_s[layer] += duration - stack.pop()
            stack[-1] += duration
            self.incl_s[name] += duration
            self.calls[name] += 1

    def take(self) -> Dict[str, Any]:
        """Return the aggregates recorded since the last call and reset them.

        Counts read off the simulators built meanwhile: events fired by
        their engines (``processed``) against events that ran through a
        wrapped callback (``fired``), and the network backends' exact
        message/byte/granularity counters.
        """
        sims = self.simulators
        snapshot = {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "fired": sum(self.fired[id(s.engine)] for s in sims),
            "processed": sum(s.engine.events_processed for s in sims),
            "network": {attr: sum(getattr(s.network, attr, 0) for s in sims)
                        for attr in NETWORK_COUNTERS},
        }
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.fired.clear()
        self.simulators.clear()
        return snapshot

    # -- wrappers ----------------------------------------------------------------

    def _callback(self, fn: Callable, name: str) -> Callable:
        """Wrap a callback handed to the simulator: a span of its owner's layer."""
        layer = layer_of(fn)
        span = self.span

        def traced(*args: Any) -> Any:
            return span(layer, name, fn, *args)

        traced._bench_layer = layer  # type: ignore[attr-defined]
        return traced

    def _event(self, engine: Any, fn: Callable) -> Callable:
        """Wrap an event callback and count it against its engine."""
        layer = layer_of(fn)
        span = self.span
        fired = self.fired
        key = id(engine)

        def traced(*args: Any) -> Any:
            fired[key] += 1
            return span(layer, "event", fn, *args)

        traced._bench_layer = layer  # type: ignore[attr-defined]
        return traced

    def _method(self, cls: type, attr: str, layer: str, name: str,
                callback_at: int = -1) -> None:
        """Patch ``cls.attr`` with a span; optionally wrap a callback argument.

        ``callback_at`` is the positional index (after ``self``) of a
        ``callback`` parameter whose callable is wrapped as well.
        """
        original = cls.__dict__[attr]
        span = self.span
        wrap_cb = self._callback

        if callback_at < 0:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return span(layer, name, original, *args, **kwargs)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                cb = kwargs.get("callback")
                if cb is not None:
                    kwargs["callback"] = wrap_cb(cb, name + ".callback")
                elif len(args) > callback_at + 1 and args[callback_at + 1]:
                    args = (args[:callback_at + 1]
                            + (wrap_cb(args[callback_at + 1],
                                       name + ".callback"),)
                            + args[callback_at + 2:])
                return span(layer, name, original, *args, **kwargs)

        self._set(cls, attr, traced)

    def _function(self, original: Callable, layer: str, name: str) -> None:
        """Patch a module-level function wherever a ``repro`` module bound it."""
        span = self.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            return span(layer, name, original, *args, **kwargs)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        self._wrappers[id(value)] = (value, original)
        setattr(owner, attr, value)

    # -- install / restore -------------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        import repro
        from repro.core.simulator import Simulator
        from repro.events.engine import EventEngine
        from repro.frontend.hf_config import build_op_graph
        from repro.frontend.planner import plan
        from repro.memory.api import MemoryModel
        from repro.network.analytical import AnalyticalNetwork
        from repro.network.api import NetworkBackend
        from repro.stats.export import result_to_dict

        span = self.span
        engine_schedule = EventEngine.schedule
        engine_schedule_at = EventEngine.schedule_at
        engine_schedule_many = EventEngine.schedule_many
        event = self._event

        def schedule(engine, delay, fn, *args, priority=0):
            return span("events", "schedule", engine_schedule, engine, delay,
                        event(engine, fn), *args, priority=priority)

        def schedule_at(engine, at, fn, *args, priority=0):
            return span("events", "schedule_at", engine_schedule_at, engine,
                        at, event(engine, fn), *args, priority=priority)

        def schedule_many(engine, items, priority=0):
            wrapped = [(item[0], event(engine, item[1])) + tuple(item[2:])
                       for item in items]
            return span("events", "schedule_many", engine_schedule_many,
                        engine, wrapped, priority=priority)

        self._set(EventEngine, "schedule", schedule)
        self._set(EventEngine, "schedule_at", schedule_at)
        self._set(EventEngine, "schedule_many", schedule_many)
        self._method(EventEngine, "run", "events", "events.run")

        for cls in _subclasses(NetworkBackend):
            for attr in ("sim_send", "sim_recv"):
                if attr in cls.__dict__:
                    # callback is the 5th parameter of both (after self).
                    self._method(cls, attr, "network", "network." + attr,
                                 callback_at=4)
        self._method(AnalyticalNetwork, "reserve_port", "network",
                     "network.reserve_port")
        for cls in _subclasses(MemoryModel):
            for attr in ("access_time_ns", "collective_time_ns"):
                if attr in cls.__dict__ and not getattr(
                        cls.__dict__[attr], "__isabstractmethod__", False):
                    self._method(cls, attr, "memory", "memory." + attr)

        init = Simulator.__dict__["__init__"]
        simulators = self.simulators

        def simulator_init(sim, *args, **kwargs):
            simulators.append(sim)
            return span("core", "core.init", init, sim, *args, **kwargs)

        self._set(Simulator, "__init__", simulator_init)
        self._function(repro.simulate, "core", "core.simulate")
        self._function(result_to_dict, "stats", "stats.export")
        self._function(plan, "frontend", "frontend.plan")
        self._function(build_op_graph, "frontend", "frontend.ingest")

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while tracing may have bound a wrapper by name.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper, original = self._wrappers.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, attr, original)
        self._wrappers.clear()


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass currently defined, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
