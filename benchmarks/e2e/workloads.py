"""The four simulation workloads: paper design points run in a warm process.

Each point is timed from outside the simulator, through its public API:
topology parse -> ingest -> ``frontend.plan`` -> ``Simulator`` ->
``run`` -> ``result_to_dict``.  Functions are looked up through their
``repro`` modules at call time so that :class:`layer_trace.LayerTrace`
sees every call.  A run does one untimed warm-up point, then timed
points until its time budget is spent, with ``gc.collect()`` before
each, the way a campaign worker or ``repro serve`` runs them.

Every point of a workload does identical, deterministic work, so the
points of a run differ only by how fast the host was running: the run
times :mod:`yardstick`'s fixed loop before the first point and after
each one, and reports the median of each point over the mean of the two
loops around it, scaled to the reference host, as ``point_s`` (the raw
wall clock is printed alongside for reference).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro import frontend
from repro.stats import export

import yardstick
from layer_trace import LayerTrace

_perf = time.perf_counter

# examples/mixtral_8x7b_config.json, held here so the benchmark's inputs
# live with the benchmark.
MIXTRAL_8X7B: Dict[str, Any] = {
    "_name_or_path": "mixtral-8x7b",
    "architectures": ["MixtralForCausalLM"],
    "model_type": "mixtral",
    "hidden_size": 4096,
    "intermediate_size": 14336,
    "num_hidden_layers": 32,
    "num_attention_heads": 32,
    "num_key_value_heads": 8,
    "num_local_experts": 8,
    "num_experts_per_tok": 2,
    "hidden_act": "silu",
    "max_position_embeddings": 32768,
    "vocab_size": 32000,
    "tie_word_embeddings": False,
    "torch_dtype": "bfloat16",
}

#: Transformer layers simulated per Mixtral point.  Every layer repeats
#: the same EP all-to-all traffic, so the layer count only scales a
#: point's length; it is kept short (under a second on a 2-vCPU host) so
#: that a run holds many points, each timed close to its yardstick loop.
MIXTRAL_LAYERS = 8
ADAPTIVE_LAYERS = 1

#: ``setup_s`` samples: after each timed point whose set-up is a small
#: share of its wall clock, extra set-ups (at most MAX_EXTRA_SETUPS,
#: costing at most SETUP_SHARE of the point's wall) spread more set-up
#: samples over the run than its few points give.
SETUP_SHARE = 0.05
MAX_EXTRA_SETUPS = 9

#: Patched targets every traced simulation point calls.
_SIM_TARGETS = ("events.run", "schedule", "core.init", "frontend.plan",
                "frontend.ingest", "stats.export", "network.sim_send",
                "network.sim_recv")


def digest(doc: Dict[str, Any]) -> str:
    """sha256 of the canonical (sorted, compact) schema-v2 document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mixtral(layers: int = MIXTRAL_LAYERS):
    config = dict(MIXTRAL_8X7B, num_hidden_layers=layers)
    options = dataclasses.replace(frontend.default_options_for(config),
                                  seq_len=256)
    return frontend.build_op_graph(config, options)


@dataclass(frozen=True)
class SimWorkload:
    """One fixed paper configuration, simulated point after point."""

    name: str
    topology: str
    bandwidths: Tuple[float, ...]
    latencies: Tuple[float, ...]
    graph: Callable[[], Any]
    plan: Dict[str, int]
    system: Dict[str, Any]
    #: Patched targets every traced point must call.
    targets: Tuple[str, ...]
    #: SystemConfig overrides of the garnet-lite reference that
    #: ``model_error`` is measured against; None when not measured.
    reference: Optional[Dict[str, Any]] = None

    def setup(self, system: Optional[Dict[str, Any]] = None):
        """Parse, ingest, plan and build the simulator of one point."""
        topology = repro.parse_topology(self.topology, list(self.bandwidths),
                                        latencies_ns=list(self.latencies))
        planned = frontend.plan(self.graph(), topology,
                                frontend.PlanConfig(**self.plan))
        return repro.Simulator(planned.traces, repro.SystemConfig(
            topology=topology, **(system or self.system)))

    def point(self, system: Optional[Dict[str, Any]] = None):
        """Simulate one design point; returns (doc, timings).

        ``events`` is what the engine fired (``RunResult.events_processed``
        adds the events of ranks folded away).
        """
        start = _perf()
        sim = self.setup(system)
        setup = _perf() - start
        result = sim.run()
        doc = export.result_to_dict(result)
        wall = _perf() - start
        return doc, {"wall": wall, "setup": setup, "run": result.wall_time_s,
                     "events": sim.engine.events_processed}

    def model_error(self, doc: Dict[str, Any]) -> Optional[float]:
        """|simulated - garnet-lite simulated| / garnet-lite, same traces."""
        if self.reference is None:
            return None
        ref, _t = self.point({**self.system, **self.reference})
        return (abs(doc["total_time_ns"] - ref["total_time_ns"])
                / ref["total_time_ns"])


_MIXTRAL_SYSTEM = {"scheduler": "baseline", "collective_chunks": 4}
_GARNET = {"network_backend": "garnet", "train_packets": 16,
           "granularity": ""}

SIM_WORKLOADS: Dict[str, SimWorkload] = {w.name: w for w in (
    SimWorkload(
        name="llama70b-conv4d",
        topology="Ring(2)_FC(8)_Ring(8)_Switch(4)",
        bandwidths=(250, 200, 100, 50),
        latencies=(50, 250, 250, 500),
        graph=lambda: frontend.zoo_graph("llama-70b"),
        plan={"tp": 16, "pp": 8, "dp": 4},
        system={"scheduler": "themis", "collective_chunks": 32},
        targets=_SIM_TARGETS + ("network.reserve_port",),
    ),
    SimWorkload(
        name="mixtral-ep-flow",
        topology="Ring(8)", bandwidths=(100,), latencies=(100,),
        graph=_mixtral, plan={"tp": 1, "ep": 8},
        system={**_MIXTRAL_SYSTEM, "network_backend": "flow"},
        targets=_SIM_TARGETS + ("schedule_at",),
        reference=_GARNET,
    ),
    SimWorkload(
        name="mixtral-ep-garnet",
        topology="Ring(8)", bandwidths=(100,), latencies=(100,),
        graph=_mixtral, plan={"tp": 1, "ep": 8},
        system={**_MIXTRAL_SYSTEM, **_GARNET},
        targets=_SIM_TARGETS,
    ),
    SimWorkload(
        name="mixtral-ep-adaptive",
        topology="Ring(8)", bandwidths=(100,), latencies=(100,),
        graph=lambda: _mixtral(layers=ADAPTIVE_LAYERS),
        plan={"tp": 1, "ep": 8},
        system={**_MIXTRAL_SYSTEM, "network_backend": "flow",
                "granularity": "adaptive", "escalation_threshold": 4.0},
        targets=_SIM_TARGETS + ("schedule_many",),
        reference=_GARNET,
    ),
)}


# -- measurement --------------------------------------------------------------------


class Checks:
    """Attempted/failed bookkeeping shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.record(1, [] if ok else [problem])
        return ok

    def record(self, attempted: int, problems: List[str]) -> None:
        """Count ``attempted`` operations, one failure per problem."""
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems[:max(0, 10 - len(self.problems))])


def _timed_points(w: SimWorkload, seconds: float, max_points: int,
                  expected: str, checks: Checks,
                  trace: Optional[LayerTrace] = None) -> Iterator[tuple]:
    """Timed points until the budget is spent; yields (timings, spans).

    Nothing of a point outlives it, so ``peak_rss_mb`` sees one point's
    simulator at a time.
    """
    start = _perf()
    count = 0
    while count == 0 or (count < max_points and _perf() - start < seconds):
        gc.collect()
        if trace is not None:
            trace.take()
        doc, timings = w.point()
        spans = trace.take() if trace is not None else None
        checks.check(digest(doc) == expected,
                     f"{w.name}: result digest differs from the pinned one")
        del doc
        count += 1
        yield timings, spans


def run_sim(name: str, seconds: float, max_points: int, traced: bool,
            expected: Dict[str, Any]
            ) -> Tuple[Dict[str, float], Checks, Dict[str, Any]]:
    """One benchmark run of a simulation workload: (metrics, checks, notes)."""
    w = SIM_WORKLOADS[name]
    checks = Checks()
    doc, _t = w.point()  # warm-up: lazy imports, first-use caches
    checks.check(digest(doc) == expected["sha256"],
                 f"{name}: warm-up digest differs from the pinned one")
    error = w.model_error(doc)
    del doc
    if error is not None:
        checks.check(error == expected["model_error"],
                     f"{name}: model_error {error!r} != pinned "
                     f"{expected['model_error']!r}")
    notes: Dict[str, Any] = {"model_error": error}
    if not traced:
        walls, points, setups = [], [], []
        before = yardstick.measure()
        for timings, _spans in _timed_points(
                w, seconds, max_points, expected["sha256"], checks):
            loop = yardstick.measure()
            walls.append(timings["wall"])
            points.append(timings["wall"] / ((before + loop) / 2))
            before = loop
            setups.append(timings["setup"] / loop)
            extra = int(SETUP_SHARE * timings["wall"] / timings["setup"])
            for _ in range(min(extra, MAX_EXTRA_SETUPS)):
                gc.collect()
                start = _perf()
                w.setup()
                setups.append((_perf() - start) / loop)
        notes.update(points=len(walls), median_point_wall_s=median(walls))
        return {
            "point_s": yardstick.REFERENCE_S * median(points),
            "setup_s": yardstick.REFERENCE_S * median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, checks, notes

    plain = [t for t, _sp in _timed_points(
        w, seconds / 2, max_points, expected["sha256"], checks)]
    with LayerTrace() as trace:
        points = list(_timed_points(
            w, seconds / 2, max_points, expected["sha256"], checks, trace))
    walls = [t["wall"] for t, _sp in points]
    notes["points"] = len(walls)
    metrics = layer_metrics([sp for _t, sp in points], w.targets, checks)
    metrics.update({
        "events.us_per_event": min(
            1e6 * t["run"] / t["events"] for t in plain),
        "trace.point_wall_s": sum(walls) / len(walls),
        "trace.overhead": min(walls) / min(t["wall"] for t in plain) - 1.0,
    })
    return metrics, checks, notes


def layer_metrics(points: List[Dict[str, Any]], targets: Tuple[str, ...],
                  checks: Checks) -> Dict[str, float]:
    """Per-point means of the traced layer aggregates, plus coverage.

    Coverage is the share of fired events that ran through a wrapped
    callback; it is forced to 0 when a required target was never called.
    """
    n = len(points)

    def mean(fn: Callable[[Dict[str, Any]], float]) -> float:
        return sum(fn(p) for p in points) / n

    def incl(name: str) -> float:
        return mean(lambda p: p["incl_s"].get(name, 0.0))

    def calls(prefixes: Tuple[str, ...]) -> float:
        return mean(lambda p: sum(c for t, c in p["calls"].items()
                                  if t.startswith(prefixes)
                                  and not t.endswith(".callback")))

    fired = sum(p["fired"] for p in points)
    processed = sum(p["processed"] for p in points)
    missing = sorted({t for t in targets
                      if any(t not in p["calls"] for p in points)})
    coverage = 0.0 if missing or not processed else fired / processed
    checks.check(coverage == 1.0,
                 f"trace coverage {coverage}: {fired} of {processed} events "
                 f"wrapped; required targets never called: {missing}")
    metrics = {
        "frontend.ingest_s": incl("frontend.ingest"),
        "frontend.plan_s": incl("frontend.plan"),
        "core.init_s": incl("core.init"),
        "stats.export_s": incl("stats.export"),
        "network.calls": calls(("network.",)),
        "memory.calls": calls(("memory.",)),
        "events.processed": mean(lambda p: p["processed"]),
        "events.kernel_self_s": mean(lambda p: p["self_s"].get(
            "events", 0.0)),
        "trace.coverage": coverage,
    }
    for attr, counter in (("messages", "messages_delivered"),
                          ("bytes", "bytes_delivered"),
                          ("escalations", "escalations"),
                          ("handoffs", "handoffs")):
        metrics["network." + attr] = mean(
            lambda p, counter=counter: p["network"][counter])
    for layer in ("core", "system", "network", "memory"):
        metrics[layer + ".self_s"] = mean(
            lambda p, layer=layer: p["self_s"].get(layer, 0.0))
    return metrics
