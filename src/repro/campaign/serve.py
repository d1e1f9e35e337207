"""``repro serve``: an HTTP daemon over the warm simulator fleet.

The traffic story on top of the campaign engine: many concurrent
clients, one process-wide warm worker fleet
(:mod:`repro.campaign.pool`), one shared content-addressed
:class:`~repro.campaign.cache.RunCache` deduplicating identical requests
across clients.  Stdlib only (:class:`http.server.ThreadingHTTPServer`)
— no framework dependency.

Endpoints:

- ``POST /run`` — body: a JSON object of run fields from the run-field
  table (:mod:`repro.runspec`; the fields ``repro run`` flags expose,
  e.g. ``{"topology": "Ring(4)", "bandwidths": "100", "workload":
  "allreduce"}``).  Runs as a one-point campaign through
  :class:`~repro.campaign.runner.CampaignRunner`, so it gets the
  runner's normalization, cache and crash containment.  Response: the
  schema-v2 ``result_to_dict`` document, bit-identical to an in-process
  run of the same config; ``X-Repro-Cache: hit|miss`` reports dedup.
  A point that fails answers ``400`` if its error is a
  :class:`~repro.runspec.PointConfigError`, else ``500``, with the same
  error type at every ``--jobs``.
- ``POST /sweep`` — body: a :class:`~repro.campaign.spec.SweepSpec`
  document (``base``/``grid``/``zip``/``points``), optionally wrapped as
  ``{"spec": {...}, "fail_fast": bool}``; any other key in a wrapped
  body is a ``400`` (the daemon's ``--jobs`` sizes the fleet, not the
  client).  Response: ``application/x-ndjson`` —
  one merged point record per line, streamed **in spec order as points
  complete**, terminated by a ``{"summary": ...}`` line (or
  ``{"aborted": ...}`` on a fail-fast abort).
- ``GET /healthz`` — liveness: ``{"status": "ok"}``.
- ``GET /stats`` — telemetry counters (``campaign/*`` per-request
  counters, and the trace memo's ``trace_memo_hits`` and
  ``trace_memo_misses`` summed over the points run), cache counters,
  fleet state, uptime.

Backpressure: a bounded admission gate caps requests in flight; beyond
``queue_depth`` the daemon answers ``429 Too Many Requests`` with a
``Retry-After`` header instead of queueing unboundedly — saturated
fleets shed load rather than stack it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional

from repro.campaign.cache import RunCache
from repro.campaign.runner import (
    TRACE_MEMO_METRICS,
    CampaignError,
    CampaignRunner,
    PointConfigError,
)
from repro.campaign.spec import SweepSpec
from repro.errors import InputError
from repro.telemetry import MetricsRegistry

SERVE_SCHEMA_VERSION = 1


@dataclass
class ServeConfig:
    """Daemon configuration (mirrors the ``repro serve`` CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 8351
    jobs: int = 0
    cache_dir: Optional[str] = None
    queue_depth: int = 8
    max_body_bytes: int = 8 << 20
    quiet: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise InputError(f"jobs must be >= 0, got {self.jobs}")
        if self.queue_depth < 1:
            raise InputError(
                f"queue_depth must be >= 1, got {self.queue_depth}")


class _AdmissionGate:
    """Bounded in-flight request counter: admit or reject, never queue."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.inflight = 0
        self._lock = threading.Lock()

    def enter(self) -> bool:
        with self._lock:
            if self.inflight >= self.capacity:
                return False
            self.inflight += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1


def _canon(doc: Any) -> bytes:
    """The daemon's canonical response encoding (sorted keys, compact).

    The same serialisation a client would produce locally from the
    schema-v2 dict — which is what makes 'served response == in-process
    run' a *byte* comparison, not just a structural one.
    """
    return (json.dumps(doc, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


class ReproServer(ThreadingHTTPServer):
    """The serving daemon: shared cache, shared fleet, request telemetry."""

    daemon_threads = True

    def __init__(self, config: ServeConfig,
                 executor: Optional[Callable[[Mapping[str, Any]],
                                             Dict[str, Any]]] = None) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.metrics_lock = threading.Lock()
        self.gate = _AdmissionGate(config.queue_depth)
        self.cache = (RunCache(config.cache_dir)
                      if config.cache_dir else None)
        self.executor = executor
        self.started_at = time.time()
        super().__init__((config.host, config.port), _RequestHandler)

    # -- helpers shared by handler threads ---------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        with self.metrics_lock:
            self.metrics.counter("campaign", name, **labels).inc(amount)

    def count_trace_memo(self, telemetry: MetricsRegistry) -> None:
        """Add a campaign's trace memo hits and misses to the totals."""
        for name in TRACE_MEMO_METRICS:
            self.count(name, telemetry.value("campaign", name))

    def runner(self, fail_fast: Any = False) -> CampaignRunner:
        """A runner over the daemon's fleet size, executor and cache."""
        if not isinstance(fail_fast, bool):
            raise PointConfigError(
                f"sweep option fail_fast must be a JSON boolean, "
                f"got {fail_fast!r}")
        return CampaignRunner(jobs=self.config.jobs, fail_fast=fail_fast,
                              executor=self.executor, cache=self.cache)

    def warm_up(self) -> None:
        """Pre-start the fleet so the first request pays no worker boot."""
        if self.config.jobs >= 1:
            from repro.campaign.pool import get_shared_pool

            get_shared_pool(self.config.jobs).warm_up()

    def stats(self) -> Dict[str, Any]:
        from repro.campaign.pool import shared_pool_stats

        with self.metrics_lock:
            counters = self.metrics.to_list()
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3),
            "inflight": self.gate.inflight,
            "queue_depth": self.gate.capacity,
            "jobs": self.config.jobs,
            "counters": counters,
            "cache": (self.cache.counters()
                      if self.cache is not None else None),
            "pool": shared_pool_stats(),
        }


class _RequestHandler(BaseHTTPRequestHandler):
    """One thread per connection; bodies are close-delimited (HTTP/1.0).

    HTTP/1.0 keeps the NDJSON sweep stream simple: no chunked framing,
    the stream ends when the daemon closes the socket after the summary
    line.
    """

    protocol_version = "HTTP/1.0"
    server_version = "repro-serve/%d" % SERVE_SCHEMA_VERSION
    server: ReproServer  # narrowed for type checkers
    #: Whether this request holds an admission-gate slot.
    _slot_held = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.config.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ----------------------------------------------------------------

    def _release_slot(self) -> None:
        if self._slot_held:
            self._slot_held = False
            self.server.gate.leave()

    def _send_json(self, status: int, doc: Any,
                   headers: Optional[Mapping[str, str]] = None) -> None:
        body = _canon(doc)
        # A JSON reply ends the request: free its slot before the client
        # can read the reply, so a client that waits for it and sends
        # again is admitted rather than answered 429.
        self._release_slot()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, endpoint: str, exc: Exception) -> None:
        self.server.count("http_errors", endpoint=endpoint)
        self._send_json(status, {"error": {"type": type(exc).__name__,
                                           "message": str(exc)}})

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise PointConfigError("Content-Length is not an integer")
        if length <= 0:
            raise PointConfigError("empty request body; expected JSON")
        if length > self.server.config.max_body_bytes:
            raise PointConfigError(
                f"request body of {length} bytes exceeds the "
                f"{self.server.config.max_body_bytes}-byte limit")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PointConfigError(f"request body is not JSON: {exc}")

    # -- GET ---------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self.server.count("http_requests", endpoint="healthz")
            self._send_json(200, {"status": "ok"})
        elif self.path == "/stats":
            self.server.count("http_requests", endpoint="stats")
            self._send_json(200, self.server.stats())
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    # -- POST --------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path not in ("/run", "/sweep"):
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        endpoint = self.path.lstrip("/")
        self.server.count("http_requests", endpoint=endpoint)
        if not self.server.gate.enter():
            self.server.count("http_rejected", endpoint=endpoint)
            self._send_json(429, {
                "error": "server saturated: %d request(s) in flight "
                         "(queue depth %d); retry later" % (
                             self.server.gate.inflight,
                             self.server.gate.capacity),
            }, headers={"Retry-After": "1"})
            return
        self._slot_held = True
        try:
            if self.path == "/run":
                self._handle_run()
            else:
                self._handle_sweep()
        finally:
            self._release_slot()

    def _handle_run(self) -> None:
        server = self.server
        try:
            point = self._read_body()
            if not isinstance(point, dict):
                raise PointConfigError(
                    "POST /run expects a JSON object of run-config fields")
            campaign = server.runner().run(SweepSpec(points=[point]))
        except InputError as exc:
            self._send_error(400, "run", exc)
            return
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self._send_error(500, "run", exc)
            return
        server.count_trace_memo(campaign.telemetry)
        record = campaign.points[0]
        error = record["error"]
        if error is not None:
            server.count("http_errors", endpoint="run")
            self._send_json(
                400 if error["type"] == "PointConfigError" else 500,
                {"error": {"type": error["type"],
                           "message": error["message"]}})
            return
        server.count("cache_hits" if record["cached"] else "points_executed")
        server.count("runs_served")
        self._send_json(200, record["result"], headers={
            "X-Repro-Cache": "hit" if record["cached"] else "miss"})

    def _handle_sweep(self) -> None:
        server = self.server
        try:
            doc = self._read_body()
            if not isinstance(doc, dict):
                raise PointConfigError(
                    "POST /sweep expects a JSON sweep-spec document")
            if "spec" in doc:
                options = dict(doc)
                spec_doc = options.pop("spec")
                unknown = sorted(set(options) - {"fail_fast"})
                if unknown:
                    raise PointConfigError(
                        f"unknown sweep option(s) {', '.join(unknown)}; "
                        f"a wrapped body takes only spec and fail_fast")
            else:
                spec_doc, options = doc, {}
            # Config errors must be a 400, not an in-band abort line:
            # stream() validates every point before it returns.
            stream = server.runner(options.get("fail_fast", False)).stream(
                SweepSpec.from_dict(spec_doc))
        except InputError as exc:
            self._send_error(400, "sweep", exc)
            return

        # Headers are committed before execution: from here on, errors
        # travel in-band as the stream's final line.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        points = errors = 0
        try:
            while True:
                try:
                    record = next(stream)
                except StopIteration as stop:
                    result = stop.value
                    break
                points += 1
                errors += record["error"] is not None
                self.wfile.write(_canon(record))
                self.wfile.flush()
            server.count("sweeps_served")
            server.count("points_executed",
                         result.telemetry.value("campaign",
                                                "points_executed"))
            server.count_trace_memo(result.telemetry)
            summary: Dict[str, Any] = {"summary": {
                "points": points,
                "errors": errors,
                "cache": result.cache_counters,
                "telemetry": {"metrics": result.telemetry.to_list()},
            }}
            self.wfile.write(_canon(summary))
        except CampaignError as exc:
            server.count("http_errors", endpoint="sweep")
            self.wfile.write(_canon({"aborted": str(exc)}))
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-stream; runner.stream's close() has
            # already cancelled its outstanding tasks.
            server.count("http_disconnects", endpoint="sweep")
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            server.count("http_errors", endpoint="sweep")
            self.wfile.write(_canon({"aborted": f"{type(exc).__name__}: "
                                                f"{exc}"}))


def serve_in_thread(config: ServeConfig,
                    executor: Optional[Callable] = None) -> ReproServer:
    """Start a daemon on a background thread (tests, embedding).

    Binds immediately (``port=0`` picks an ephemeral port — read
    ``server.server_address``); call ``shutdown()`` + ``server_close()``
    to stop.
    """
    server = ReproServer(config, executor=executor)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return server


def serve_forever(config: ServeConfig) -> int:
    """The ``repro serve`` CLI entry: run until interrupted."""
    from repro.campaign.pool import shutdown_shared_pool

    server = ReproServer(config)
    host, port = server.server_address[0], server.server_address[1]
    print(f"repro serve: listening on http://{host}:{port}")
    print("endpoints  : POST /run  POST /sweep  GET /healthz  GET /stats")
    if config.jobs >= 1:
        print(f"fleet      : warming {config.jobs} worker(s) ...", end=" ",
              flush=True)
        server.warm_up()
        print("ready")
    if server.cache is not None:
        print(f"cache      : {server.cache.cache_dir}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        shutdown_shared_pool()
    return 0
