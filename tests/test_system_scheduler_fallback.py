"""Unit tests for the Themis greedy fallback (no-scipy path)."""

import sys

import pytest

import repro
from repro.system.scheduler import ThemisScheduler
from repro.workload import generate_single_collective

try:
    import scipy.optimize  # noqa: F401
except ImportError:
    _HAVE_LP = False
else:
    _HAVE_LP = True

GiB = 1 << 30


@pytest.fixture
def no_lp(monkeypatch):
    """Force the scipy-less code path: balanced_plan returns None."""
    monkeypatch.setattr(ThemisScheduler, "_solve_mix",
                        lambda self, *args, **kwargs: [])


def _allreduce(topology, scheduler, chunks=32):
    traces = generate_single_collective(
        topology, repro.CollectiveType.ALL_REDUCE, GiB)
    config = repro.SystemConfig(topology=topology, scheduler=scheduler,
                                collective_chunks=chunks)
    return repro.simulate(traces, config)


def test_fallback_completes_and_conserves_traffic(no_lp):
    topo = repro.parse_topology(
        "Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])
    result = _allreduce(topo, "themis")
    assert result.total_time_ns > 0
    total = sum(result.collectives[0].traffic_by_dim.values())
    assert total == pytest.approx(2 * GiB * (1 - 1 / 512), rel=1e-6)


def test_fallback_no_worse_than_2x_baseline(no_lp):
    topo = repro.parse_topology(
        "Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])
    base = _allreduce(topo, "baseline").total_time_ns
    greedy = _allreduce(topo, "themis").total_time_ns
    assert greedy < 2.0 * base


def test_fallback_matches_baseline_on_1d(no_lp):
    topo = repro.parse_topology("Switch(64)", [200], latencies_ns=[25])
    base = _allreduce(topo, "baseline").total_time_ns
    greedy = _allreduce(topo, "themis").total_time_ns
    assert greedy == pytest.approx(base, rel=1e-6)


@pytest.mark.skipif(not _HAVE_LP,
                    reason="needs scipy (the optional balancing extra)")
def test_fluid_path_engages_when_lp_available():
    """Sanity: without the monkeypatch, the LP/fluid path is used and its
    result differs from the greedy fallback on a heterogeneous shape."""
    topo = repro.parse_topology(
        "Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])
    fluid = _allreduce(topo, "themis").total_time_ns
    base = _allreduce(topo, "baseline").total_time_ns
    assert fluid < base


def test_missing_scipy_is_said_once_per_run(monkeypatch, capsys):
    """Without scipy the run says it took the greedy path: one stderr
    notice, and a line in the ``repro run`` summary."""
    from repro.cli import main
    from repro.system import scheduler

    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    monkeypatch.setattr(scheduler, "_lp_fallback_noted", False)
    argv = ["run", "--topology", "Ring(2)_FC(8)_Ring(8)_Switch(4)",
            "--bandwidths", "250,200,100,50", "--workload", "allreduce",
            "--payload-mib", "64", "--scheduler", "themis"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == f"note: {scheduler.LP_FALLBACK_NOTICE}\n"
    assert f"note     : {scheduler.LP_FALLBACK_NOTICE}" in captured.out
