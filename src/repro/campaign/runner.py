"""Parallel campaign execution: warm-worker fan-out with spec-order merge.

A :class:`CampaignRunner` takes a :class:`~repro.campaign.spec.SweepSpec`,
expands it, and executes every point through an *executor* — by default
:func:`run_point`, which normalizes the point against the run-field
table (:mod:`repro.runspec`, the same table ``repro run``'s flags are
generated from) and hands it to :func:`repro.runsim.simulate_from_args`,
so a sweep point runs exactly as the equivalent ``repro run`` would,
without building or running an argument parser.

Execution contract:

- ``jobs=0`` runs serially in-process; ``jobs>=1`` fans out over the
  process-wide **warm** worker fleet (:mod:`repro.campaign.pool`):
  pre-imported workers reused across sweeps, one point per task.
  Results are merged back **in spec order**, and each point's payload
  is a schema-v2 ``result_to_dict`` document, so the merged output is
  bit-identical regardless of worker count, worker reuse, or
  completion order.
- :meth:`CampaignRunner.stream` normalizes every point and looks each
  up in the cache *at the call*, so an invalid field raises
  :class:`PointConfigError` before anything runs; its generator then
  yields merged point records incrementally in spec order as they
  complete.  :meth:`CampaignRunner.run` drives it to completion, and
  the ``repro serve`` daemon runs both of its endpoints through it
  (``POST /run`` is a one-point campaign).
- A failed point becomes a structured error record (exception type,
  message, traceback, config) in the merged output instead of poisoning
  the pool; a *crashed worker* restarts the fleet and retries the
  affected points before recording errors; ``fail_fast=True`` restores
  abort-on-first-error; ``KeyboardInterrupt`` tears the fleet down
  cleanly.
- With a :class:`~repro.campaign.cache.RunCache`, results are looked up
  in (and written back to) the content-addressed cache keyed by
  canonical config JSON + code fingerprint; only cache misses are
  simulated.  Hit/miss counters surface through a
  :class:`repro.telemetry.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaign.cache import RunCache
from repro.campaign.pool import error_record as _error_record, run_one
from repro.campaign.spec import SweepSpec, canonical_json
from repro.errors import InputError
from repro.runspec import (  # noqa: F401 - re-exported campaign API
    FIELD_TYPES,
    PointConfigError,
    default_fields,
    normalize_point,
    run_namespace,
)
from repro.telemetry import MetricsRegistry

CAMPAIGN_SCHEMA_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign aborted (fail-fast point failure or broken pool)."""


# -- the default executor: one point == one `repro run` invocation ---------------------


def run_point(point: Mapping[str, Any]) -> Dict[str, Any]:
    """Default executor: normalize one point and run the simulate path.

    Returns the schema-v2 ``result_to_dict`` payload; an invalid
    configuration raises :class:`PointConfigError`.  Runs in worker
    processes, so everything it touches must be importable there.
    """
    from repro.runsim import simulate_from_args
    from repro.stats.export import result_to_dict

    _topology, result, _resilience = simulate_from_args(run_namespace(point))
    return result_to_dict(result)


run_point.normalize = normalize_point  # type: ignore[attr-defined]


def base_point_from_args(args) -> Dict[str, Any]:
    """The base config dict from a parsed ``sweep`` command namespace."""
    base = {}
    for name in FIELD_TYPES:
        value = getattr(args, name)
        if name in ("topology", "bandwidths", "latencies") and not value:
            continue  # may come from a sweep axis; keep the base sparse
        base[name] = value
    return base


# -- pool plumbing ---------------------------------------------------------------------


def _wait_any(futures: Sequence) -> set:
    """Block until at least one future completes (test seam for ^C paths)."""
    from concurrent.futures import FIRST_COMPLETED, wait

    done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
    return done


# -- the runner ------------------------------------------------------------------------


#: Metrics describing *how* the campaign executed (crash recovery, the
#: workers' trace memo) rather than what it computed.  Excluded from the
#: merged document so identical sweeps dump byte-identical documents
#: regardless of jobs count or worker reuse; still readable on
#: ``CampaignResult.telemetry`` for observability and tests.
TRACE_MEMO_METRICS = ("trace_memo_hits", "trace_memo_misses")
EXECUTION_METRICS = frozenset(
    {"worker_restarts", "points_retried", *TRACE_MEMO_METRICS})


@dataclass
class CampaignResult:
    """Merged outcome of one campaign, in spec order."""

    spec: SweepSpec
    points: List[Dict[str, Any]]
    jobs: int
    telemetry: MetricsRegistry = field(default_factory=MetricsRegistry)
    cache_counters: Optional[Dict[str, int]] = None

    @property
    def results(self) -> List[Optional[Dict[str, Any]]]:
        """Per-point result payloads (None where the point failed)."""
        return [p["result"] for p in self.points]

    @property
    def errors(self) -> List[Dict[str, Any]]:
        return [p for p in self.points if p["error"] is not None]

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "points": [dict(p) for p in self.points],
            "telemetry": {"metrics": [m for m in self.telemetry.to_list()
                                      if m["name"] not in EXECUTION_METRICS]},
        }
        if self.cache_counters is not None:
            doc["cache"] = dict(self.cache_counters)
        return doc

    def canonical_results_json(self) -> str:
        """Canonical JSON of the simulation content only.

        Strips everything that legitimately varies with cache state or
        host (``cached`` flags, cache counters, tracebacks — worker and
        in-process stacks differ), leaving exactly what must be
        bit-identical across ``jobs`` counts and cache temperatures.
        """
        return canonical_campaign_json(self.to_dict())


def canonical_campaign_json(doc: Mapping[str, Any]) -> str:
    """Canonical JSON of a merged campaign document's simulation content.

    See :meth:`CampaignResult.canonical_results_json`.
    """
    points = []
    for point in doc["points"]:
        error = point.get("error")
        if error is not None:
            error = {k: v for k, v in error.items() if k != "traceback"}
        points.append({
            "index": point["index"],
            "config": point["config"],
            "result": point.get("result"),
            "error": error,
        })
    return canonical_json({"spec": doc["spec"], "points": points})


#: A deterministically-crashing point gets this many fleet restarts
#: before a structured error record is written instead.
MAX_POINT_RETRIES = 2


class CampaignRunner:
    """Executes a sweep spec over the warm worker fleet and a run cache."""

    def __init__(
        self,
        jobs: int = 0,
        fail_fast: bool = False,
        executor: Optional[Callable[[Mapping[str, Any]],
                                    Dict[str, Any]]] = None,
        cache: Optional[RunCache] = None,
    ) -> None:
        if jobs < 0:
            raise InputError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self.fail_fast = fail_fast
        self.executor = executor if executor is not None else run_point
        self.cache = cache

    # -- execution ---------------------------------------------------------------

    def run(self, spec: SweepSpec) -> CampaignResult:
        """Execute the spec to completion; the merged result in spec order."""
        stream = self.stream(spec)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value

    def stream(self, spec: SweepSpec) -> Generator[
            Dict[str, Any], None, CampaignResult]:
        """Generator of merged point records, in spec order, as they finish.

        Every point is normalized and looked up in the cache before the
        generator is returned, so an invalid field raises
        :class:`PointConfigError` here, before any point runs.  Cached
        points stream immediately; executed points stream as soon as
        every earlier-indexed point has streamed (the ordered merge the
        campaign contract requires).  The generator's return value
        (``StopIteration.value``) is the complete :class:`CampaignResult`
        — ``run()`` and both serve daemon endpoints are thin consumers
        of this.
        """
        points = spec.expand()
        normalize = getattr(self.executor, "normalize", None)
        if normalize is not None:
            points = [normalize(p) for p in points]
        merged: List[Optional[Dict[str, Any]]] = [None] * len(points)
        pending: List[int] = []
        for index, point in enumerate(points):
            cached = self.cache.get(point) if self.cache is not None else None
            if cached is not None:
                merged[index] = {"index": index, "config": point,
                                 "cached": True, "result": cached,
                                 "error": None}
            else:
                pending.append(index)
        return self._merge(spec, points, merged, pending)

    def _merge(
        self, spec: SweepSpec, points: List[Dict[str, Any]],
        merged: List[Optional[Dict[str, Any]]], pending: List[int],
    ) -> Generator[Dict[str, Any], None, CampaignResult]:
        result = CampaignResult(spec=spec, points=[], jobs=self.jobs)
        metrics = result.telemetry
        metrics.counter("campaign", "points_total").inc(len(points))
        if self.jobs == 0 or not pending:
            outcome_iter = self._iter_serial(points, pending)
        else:
            outcome_iter = self._iter_pool(points, pending, metrics)

        emitted = 0
        memo_hits = memo_misses = 0
        try:
            # Leading cached points stream before any execution happens.
            while emitted < len(points) and merged[emitted] is not None:
                result.points.append(merged[emitted])
                yield merged[emitted]
                emitted += 1
            for index, outcome in outcome_iter:
                record: Dict[str, Any] = {
                    "index": index, "config": points[index], "cached": False,
                    "result": None, "error": None,
                }
                if outcome["ok"]:
                    record["result"] = outcome["result"]
                    if self.cache is not None:
                        self.cache.put(points[index], outcome["result"])
                else:
                    record["error"] = outcome["error"]
                    metrics.counter("campaign", "points_failed").inc()
                merged[index] = record
                hits, misses = outcome.get("trace_memo", (0, 0))
                memo_hits += hits
                memo_misses += misses
                if self.fail_fast and not outcome["ok"]:
                    self._abort(index, outcome["error"], points[index])
                while emitted < len(points) and merged[emitted] is not None:
                    result.points.append(merged[emitted])
                    yield merged[emitted]
                    emitted += 1
        finally:
            # Closing the stream mid-sweep (a disconnected HTTP client,
            # fail-fast abort) must release pool resources promptly.
            outcome_iter.close()

        metrics.counter("campaign", "points_executed").inc(len(pending))
        metrics.counter("campaign", "trace_memo_hits").inc(memo_hits)
        metrics.counter("campaign", "trace_memo_misses").inc(memo_misses)
        if self.cache is not None:
            counters = self.cache.counters()
            result.cache_counters = counters
            metrics.counter("campaign", "cache_hits").inc(counters["hits"])
            metrics.counter("campaign", "cache_misses").inc(counters["misses"])
            metrics.counter("campaign", "cache_corrupted").inc(
                counters["corrupted"])
        return result

    def _abort(self, index: int, error: Mapping[str, Any],
               point: Mapping[str, Any]) -> None:
        raise CampaignError(
            f"point {index} failed ({error['type']}: {error['message']}); "
            f"config {canonical_json(dict(point))}")

    # -- serial path -------------------------------------------------------------

    def _iter_serial(
        self, points: Sequence[Mapping[str, Any]], pending: Sequence[int],
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for index in pending:
            yield index, run_one(self.executor, points[index])

    # -- warm-fleet path ---------------------------------------------------------

    def _iter_pool(
        self, points: Sequence[Mapping[str, Any]], pending: Sequence[int],
        metrics: MetricsRegistry,
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """Fan pending points out over the warm fleet, one per task.

        Yields ``(index, outcome)`` in completion order (the caller
        re-orders).  A broken pool (worker crash) is restarted and each
        affected point resubmitted up to :data:`MAX_POINT_RETRIES` times
        before a structured error record is emitted.  Retries run one at
        a time, so a crasher only ever breaks its own retries and the
        innocent points that were in flight beside it survive.
        ``KeyboardInterrupt`` cancels outstanding tasks and tears the
        fleet down before re-raising.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.campaign.pool import get_shared_pool, shutdown_shared_pool

        pool = get_shared_pool(self.jobs)
        futures: Dict[Any, int] = {}
        generation = pool.generation

        def submit(index: int) -> None:
            futures[pool.submit(run_one, self.executor,
                                points[index])] = index

        retries: Dict[int, int] = {}
        to_retry: List[int] = []
        try:
            for index in pending:
                submit(index)
            while futures or to_retry:
                if not futures:
                    submit(to_retry.pop(0))
                for future in _wait_any(list(futures)):
                    index = futures.pop(future)
                    exc = future.exception()
                    if exc is None:
                        yield index, future.result()
                        continue
                    if isinstance(exc, BrokenProcessPool):
                        # One worker death breaks every in-flight future.
                        # Restart the fleet once (the generation guard
                        # makes latecomers no-ops) and queue the point
                        # for a retry on the fresh fleet.
                        if pool.restart(generation):
                            metrics.counter("campaign",
                                            "worker_restarts").inc()
                        generation = pool.generation
                        attempts = retries.get(index, 0)
                        if attempts >= MAX_POINT_RETRIES:
                            yield index, {"ok": False,
                                          "error": _error_record(exc)}
                        else:
                            retries[index] = attempts + 1
                            metrics.counter("campaign",
                                            "points_retried").inc()
                            to_retry.append(index)
                    else:
                        # Pool-level failure that is not a crash (e.g. an
                        # unpicklable payload): record and move on.
                        yield index, {"ok": False,
                                      "error": _error_record(exc)}
        except KeyboardInterrupt:
            for future in futures:
                future.cancel()
            shutdown_shared_pool()
            raise
        finally:
            for future in futures:
                future.cancel()
