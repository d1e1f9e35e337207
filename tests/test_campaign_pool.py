"""Warm-pool unit tests and campaign failure-path tests.

Covers the :mod:`repro.campaign.pool` primitives (the one-point worker
entry, pool lifecycle, workers exiting with a SIGKILL'd owner) and the
runner's crash-containment contract: a worker dying mid-sweep yields a
structured per-point error record — never a hung sweep — innocents in
flight beside the crasher survive via retry, ``fail_fast`` aborts
promptly, and ``KeyboardInterrupt`` tears the fleet down cleanly.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    CampaignError,
    CampaignRunner,
    SweepSpec,
    WarmPool,
    get_shared_pool,
    pick_start_method,
    run_one,
    shared_pool_stats,
    shutdown_shared_pool,
)

SMALL_BASE = {
    "topology": "Ring(4)", "bandwidths": "100",
    "workload": "allreduce", "payload_mib": 1,
}


def echo_executor(point):
    return {"total_time_ns": float(point["payload_mib"]) * 10.0}


def failing_executor(point):
    if float(point["payload_mib"]) >= 2:
        raise RuntimeError("boom at %s" % point["payload_mib"])
    return {"total_time_ns": 1.0}


def crashing_executor(point):
    """Kills the worker process outright (no exception to catch)."""
    if float(point["payload_mib"]) == 2.0:
        os._exit(13)
    return {"total_time_ns": float(point["payload_mib"]) * 10.0}


SRC = str(Path(repro.__file__).resolve().parents[1])

#: A pool owner that warms a shared fleet, prints its worker pids, and
#: waits to be killed.
POOL_OWNER = """
import time
from repro.campaign import get_shared_pool
print(*sorted(get_shared_pool(2).warm_up()), flush=True)
time.sleep(600)
"""


def running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        # Gone before the open, or between the open and the read.
        return False


@pytest.fixture(autouse=True)
def _clean_shared_pool():
    """Every test starts and ends without a leaked shared fleet."""
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


class TestRunOne:
    def test_result_becomes_ok_outcome(self):
        assert run_one(echo_executor, dict(SMALL_BASE, payload_mib=2)) == {
            "ok": True, "result": {"total_time_ns": 20.0}}

    def test_failure_becomes_outcome_not_exception(self):
        outcome = run_one(failing_executor, dict(SMALL_BASE, payload_mib=2))
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == "RuntimeError"
        assert set(outcome["error"]) == {"type", "message", "traceback"}


class TestWarmPoolLifecycle:
    def test_start_method_is_never_fork(self):
        assert pick_start_method() in ("forkserver", "spawn")
        assert WarmPool(1).start_method in ("forkserver", "spawn")

    def test_restart_is_idempotent_per_generation(self):
        pool = WarmPool(1)
        generation = pool.generation
        assert pool.restart(generation) is True
        # a latecomer carrying the stale generation is a no-op
        assert pool.restart(generation) is False
        assert pool.generation == generation + 1
        assert pool.restarts == 1
        pool.shutdown()

    def test_resize_grows_never_shrinks(self):
        pool = WarmPool(2)
        pool.resize(1)
        assert pool.workers == 2
        pool.resize(3)
        assert pool.workers == 3
        pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = WarmPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(os.getpid)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WarmPool(0)


class TestSharedFleet:
    def test_workers_are_reused_across_sweeps(self):
        pool = get_shared_pool(2)
        pids = pool.warm_up()
        assert len(pids) >= 1
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 3]})
        CampaignRunner(jobs=2, executor=echo_executor).run(spec)
        # the same worker processes are still serving after the sweep
        assert pool.warm_up() == pids
        assert get_shared_pool(2) is pool

    def test_shared_pool_grows_on_demand(self):
        pool = get_shared_pool(1)
        assert get_shared_pool(2) is pool
        assert pool.workers == 2

    def test_stats_reflect_lifecycle(self):
        assert shared_pool_stats() is None
        pool = get_shared_pool(1)
        stats = shared_pool_stats()
        assert stats["workers"] == 1 and stats["started"] is False
        pool.warm_up()
        assert shared_pool_stats()["started"] is True
        shutdown_shared_pool()
        assert shared_pool_stats() is None

    def test_fleet_broken_while_idle_is_repaired(self):
        """A worker killed between sweeps (an OOM kill) breaks the fleet
        with nothing in flight; the next sweep must still run."""
        pool = get_shared_pool(2)
        os.kill(min(pool.warm_up()), signal.SIGKILL)
        # Wait until the executor has noticed the death, so the next
        # submit is refused rather than racing the detection.
        deadline = time.monotonic() + 10
        while (not pool._executor._broken
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert pool._executor._broken
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 3]})
        campaign = CampaignRunner(jobs=2, executor=echo_executor).run(spec)
        assert campaign.errors == []
        assert campaign.results == [{"total_time_ns": 10.0},
                                    {"total_time_ns": 30.0}]
        assert pool.restarts == 1

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
    def test_workers_exit_when_owner_is_killed(self):
        owner = subprocess.Popen(
            [sys.executable, "-c", POOL_OWNER], stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=SRC))
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60)
            pids = ([int(pid) for pid in owner.stdout.readline().split()]
                    if ready else [])
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait()
            owner.stdout.close()
        assert pids
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid in pids if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestCrashContainment:
    def test_worker_crash_mid_sweep_yields_error_record(self):
        """A dying worker must not hang the sweep or take innocents down.

        The crash breaks every point in flight beside the crasher; each
        is resubmitted as itself on a fresh fleet, the innocents
        succeed, and the deterministic crasher exhausts its retries into
        a structured error record.
        """
        spec = SweepSpec(base=SMALL_BASE,
                         grid={"payload_mib": [1, 2, 3, 4]})
        campaign = CampaignRunner(jobs=2,
                                  executor=crashing_executor).run(spec)
        assert len(campaign.points) == 4
        errors = campaign.errors
        assert len(errors) == 1
        assert errors[0]["config"]["payload_mib"] == 2.0
        assert errors[0]["error"]["type"] == "BrokenProcessPool"
        survivors = [p for p in campaign.points if p["error"] is None]
        assert sorted(p["result"]["total_time_ns"] for p in survivors) == [
            10.0, 30.0, 40.0]
        counters = {m["name"]: m["value"]
                    for m in campaign.telemetry.to_list()}
        assert counters["worker_restarts"] >= 1
        assert counters["points_retried"] >= 1
        assert counters["points_failed"] == 1

    def test_fail_fast_cancels_pending_batches(self):
        spec = SweepSpec(base=SMALL_BASE,
                         grid={"payload_mib": [2, 1, 3, 4]})
        runner = CampaignRunner(jobs=2, executor=failing_executor,
                                fail_fast=True)
        with pytest.raises(CampaignError, match="failed"):
            runner.run(spec)

    def test_keyboard_interrupt_tears_fleet_down(self, monkeypatch):
        import repro.campaign.runner as runner_mod

        def interrupted_wait(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "_wait_any", interrupted_wait)
        spec = SweepSpec(base=SMALL_BASE, grid={"payload_mib": [1, 3]})
        runner = CampaignRunner(jobs=1, executor=echo_executor)
        with pytest.raises(KeyboardInterrupt):
            runner.run(spec)
        # ^C must leave no shared fleet behind
        assert shared_pool_stats() is None
