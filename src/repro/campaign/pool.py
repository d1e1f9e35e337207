"""Persistent warm worker pools for campaign fan-out.

A fresh ``spawn`` pool per sweep loses to serial execution: each of its
workers re-imports the entire package before simulating anything.  This
module removes that cost:

- **Warm workers** — the pool prefers the ``forkserver`` start method
  and preloads :mod:`repro.campaign._preload` into the fork server, so
  each worker forks already holding the imported simulate path; on
  platforms without ``forkserver`` the ``spawn`` fallback pays the
  import once per worker *lifetime* via the pool initializer.
- **Persistent fleets** — :func:`get_shared_pool` hands out one
  process-wide :class:`WarmPool` that survives across sweeps (and
  across HTTP requests in ``repro serve``), so steady-state fan-out
  never pays worker start-up again.
- **One point per task** — :func:`run_one` is the single worker entry
  point of the campaign runner's serial and pool paths, which is also
  how both of the serve daemon's endpoints execute a point.
- **No orphans** — every worker exits as soon as the process that owns
  the fleet dies, even by SIGKILL, which in turn lets the fork server
  exit.

Crash containment: a worker death breaks the underlying
:class:`~concurrent.futures.ProcessPoolExecutor`; :meth:`WarmPool.restart`
replaces it (idempotently per generation) so the campaign runner can
retry the affected points on a fresh fleet instead of hanging or
poisoning later sweeps.  A fleet that breaks while idle (a worker
OOM-killed between requests) has no in-flight task to report it, so
:meth:`WarmPool.submit` repairs it: a submit refused with
:class:`~concurrent.futures.process.BrokenProcessPool` restarts the
fleet once and submits again.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback as _traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Dict, Mapping, Optional, Set

from repro.runspec import TRACE_MEMO

#: Modules imported into the forkserver parent before the first fork, so
#: every forked worker starts warm (see repro/campaign/_preload.py).
PRELOAD_MODULES = ("repro.campaign._preload",)


def pick_start_method() -> str:
    """``forkserver`` where the platform offers it, else ``spawn``.

    ``fork`` is deliberately not used even where available: the pool is
    shared with the threaded ``repro serve`` daemon, and forking a
    threaded parent is unsafe.  ``forkserver`` forks from a clean,
    single-threaded server process instead.
    """
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def warm_worker() -> None:
    """Pool initializer: import the simulate path, die with the owner.

    Runs once per worker process.  A worker holds pipes that keep the
    fork server (and its sibling workers) alive, so a worker that
    outlives a SIGKILL'd owner would never see EOF; a daemon thread
    watching the owner's sentinel ends it instead.
    """
    import repro.campaign._preload  # noqa: F401

    owner = multiprocessing.parent_process()
    if owner is not None:
        threading.Thread(target=_exit_with, args=(owner.sentinel,),
                         name="repro-owner-watch", daemon=True).start()


def _exit_with(sentinel: int) -> None:
    """Block until the owner process is gone, then exit this worker."""
    _wait_ready([sentinel])
    os._exit(0)


def error_record(exc: BaseException) -> Dict[str, Any]:
    """The structured per-point error payload (type, message, traceback)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(_traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
    }


def run_one(
    executor: Callable[[Mapping[str, Any]], Dict[str, Any]],
    point: Mapping[str, Any],
) -> Dict[str, Any]:
    """Worker entry point: run one point into an ``{"ok", ...}`` outcome.

    Returns ``{"ok": True, "result": ...}`` or, when the point fails,
    ``{"ok": False, "error": <error_record>}``; only process death
    escapes (and is handled by the caller's broken-pool recovery).  A
    point that looked its traces up in this process's trace memo also
    carries ``"trace_memo": (hits, misses)``.
    """
    TRACE_MEMO.take_counts()
    try:
        outcome = {"ok": True, "result": executor(point)}
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - error record
        outcome = {"ok": False, "error": error_record(exc)}
    counts = TRACE_MEMO.take_counts()
    if any(counts):
        outcome["trace_memo"] = counts
    return outcome


def _worker_ident(settle_s: float) -> int:
    """Warm-up probe: settle briefly so probes spread across workers."""
    if settle_s > 0:
        time.sleep(settle_s)
    return os.getpid()


class WarmPool:
    """A persistent process pool whose workers pre-import the simulator.

    The underlying executor is created lazily on first submit and
    survives until :meth:`shutdown` — submitting work from several
    sweeps (or several server threads) reuses the same warm workers.
    ``restart`` replaces a broken executor without losing the pool
    object, so holders of a shared pool never see a stale handle.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.start_method = pick_start_method()
        self.generation = 0
        self.restarts = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._shutdown = False
        self._lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------------

    def _make_executor(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.start_method)
        if self.start_method == "forkserver":
            # Must be set before the fork server launches; a context is
            # cheap and per-pool, so this never fights other users.
            context.set_forkserver_preload(list(PRELOAD_MODULES))
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context,
            initializer=warm_worker)

    @property
    def alive(self) -> bool:
        return not self._shutdown

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist (lazily created)."""
        return self._executor is not None

    def submit(self, fn: Callable, *args: Any) -> Future:
        with self._lock:
            if self._shutdown:
                raise RuntimeError("pool has been shut down")
            if self._executor is None:
                self._executor = self._make_executor()
            try:
                return self._executor.submit(fn, *args)
            except BrokenProcessPool:
                # A worker died and no caller has restarted the fleet
                # (it broke while idle, so no future reported it).
                self.restart()
                self._executor = self._make_executor()
                return self._executor.submit(fn, *args)

    def restart(self, generation: Optional[int] = None) -> bool:
        """Replace the executor after a worker crash.

        Idempotent per generation: when one crash breaks many in-flight
        futures, only the first ``restart(gen)`` call rebuilds the
        executor; latecomers carrying the stale generation are no-ops.
        Returns whether a restart actually happened.
        """
        with self._lock:
            if self._shutdown:
                return False
            if generation is not None and generation != self.generation:
                return False
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.generation += 1
            self.restarts += 1
            return True

    def resize(self, workers: int) -> None:
        """Grow the fleet (never shrinks; a live sweep keeps its workers)."""
        with self._lock:
            if workers <= self.workers or self._shutdown:
                return
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=False)
                self._executor = None
                self.generation += 1
            self.workers = workers

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            self._shutdown = True
            if self._executor is not None:
                self._executor.shutdown(wait=wait, cancel_futures=True)
                self._executor = None

    # -- warm-up -----------------------------------------------------------------

    def warm_up(self, settle_s: float = 0.05) -> Set[int]:
        """Force worker creation + imports; returns the worker PIDs seen.

        Submits one settling probe per worker so the fleet is fully
        imported before real traffic arrives (the ``repro serve`` start
        path, and the perf harness' steady-state measurement).
        """
        futures = [self.submit(_worker_ident, settle_s)
                   for _ in range(self.workers)]
        return {future.result() for future in futures}

    def stats(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "started": self.started,
            "generation": self.generation,
            "restarts": self.restarts,
        }


# -- the process-wide shared fleet -----------------------------------------------

_shared: Optional[WarmPool] = None
_shared_lock = threading.Lock()


def get_shared_pool(workers: int) -> WarmPool:
    """The process-wide warm fleet, grown to at least ``workers`` workers.

    Sweeps within one process (CLI invocations of several specs, every
    request the serve daemon handles) share these workers, which is what
    amortises worker start-up to zero in steady state.
    """
    global _shared
    with _shared_lock:
        if _shared is None or not _shared.alive:
            _shared = WarmPool(workers)
        elif _shared.workers < workers:
            _shared.resize(workers)
        return _shared


def shutdown_shared_pool(wait: bool = False) -> None:
    """Tear down the shared fleet (KeyboardInterrupt, server exit, tests)."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.shutdown(wait=wait)
            _shared = None


def shared_pool_stats() -> Optional[Dict[str, Any]]:
    with _shared_lock:
        return _shared.stats() if _shared is not None else None
