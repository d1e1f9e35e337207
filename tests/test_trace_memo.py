"""The per-process trace memo behind ``repro.runsim._build_traces``.

A design-space sweep that varies only network, system and memory fields
runs every point on one trace set; the memo builds it once per worker
and shares it read-only.  Pinned here:

- the key test: changing any declared trace field alone is a miss;
- the inverse property: changing any other run field alone is a hit,
  and the memoised traces serialize exactly like a fresh build for the
  changed run;
- the LRU bound, per-thread counts, ``--model-json`` content keys;
- a memoised sweep merges to the document of one fresh in-process run
  per point, byte for byte, at every ``jobs``, and reports its hits and
  misses in the campaign's execution metrics only.
"""

import hashlib
import json
import math
import subprocess
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import runsim
from repro.campaign import (
    CampaignRunner,
    SweepSpec,
    canonical_campaign_json,
    run_point,
    shutdown_shared_pool,
)
from repro.frontend import zoo_entry
from repro.runspec import (
    FIELDS,
    TRACE_FIELDS,
    TRACE_MEMO,
    TRACE_MEMO_SIZE,
    TraceMemo,
    run_namespace,
)
from repro.trace.serialization import dumps_trace

#: Table V's shape in miniature: MoE-1T on hierarchical remote memory,
#: swept over the pooled-fabric bandwidth, so every point shares one
#: trace set.
HIERMEM_BASE = {
    "topology": "Switch(4)_Switch(2)", "bandwidths": "256,12.5",
    "workload": "moe1t", "memory_model": "hiermem", "inswitch": True,
}
FABRIC_SWEEP = SweepSpec(base=HIERMEM_BASE,
                         grid={"fabric_bw_gbps": [128, 256, 512, 1024]})

SMALL = {"topology": "Ring(2)_Switch(2)", "bandwidths": "100,50"}

#: Every builtin workload and one zoo model, each on a small shape.
BUILDS = {
    "allreduce": {"payload_mib": 1},
    "alltoall": {"payload_mib": 1},
    "gpt3": {"mp": 2},
    "transformer1t": {"mp": 2},
    "dlrm": {},
    "fsdp-gpt3": {},
    "dp-gpt3": {},
    "pp-gpt3": {"pp": 2, "microbatches": 2},
    "moe1t": {"memory_model": "hiermem", "inswitch": True},
    "zoo:llama3-8b": {"model": "llama3-8b", "seq_len": 128, "mp": 2},
}


def _point(build):
    fields = dict(SMALL, **BUILDS[build])
    if not build.startswith("zoo:"):
        fields["workload"] = build
    return fields


def _digest(traces):
    text = "\n".join(dumps_trace(traces[rank]) for rank in sorted(traces))
    return hashlib.sha256(text.encode()).hexdigest()


def _memoised(args):
    """Build through the memo; return (traces, this thread's counts)."""
    traces, _degrees = runsim._build_traces(args, runsim.build_topology(args))
    return traces, TRACE_MEMO.take_counts()


def _fresh(args):
    """Build without the memo."""
    topology = runsim.build_topology(args)
    entry, degrees, _key = runsim._resolve(args, topology)
    return runsim._build(args, topology, entry, degrees)[0]


# -- the key ---------------------------------------------------------------------


def _model_json(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(zoo_entry("llama3-8b").config))
    return str(path)


#: Bases that read each declared trace field.
GPT3 = dict(SMALL, workload="gpt3", mp=2)
PP_GPT3 = dict(SMALL, workload="pp-gpt3", pp=2)
ZOO = dict(SMALL, model="llama3-8b", seq_len=128, mp=2)

#: One alternative value per declared trace field, on a base whose
#: producer reads that field.
KEY_CHANGES = {
    "topology": (HIERMEM_BASE, "Switch(2)_Switch(4)"),
    "workload": (SMALL, "alltoall"),
    "model": (SMALL, "llama3-8b"),
    "model_json": (SMALL, _model_json),
    "batch": (ZOO, 2),
    "seq_len": (ZOO, 256),
    "payload_mib": (SMALL, 64.0),
    "mp": (GPT3, 4),
    "dp": (ZOO, 2),
    "pp": (ZOO, 2),
    "ep": (ZOO, 2),
    "microbatches": (PP_GPT3, 2),
    "memory_model": (dict(HIERMEM_BASE, inswitch=False), "local"),
    "inswitch": (HIERMEM_BASE, False),
}


def test_key_changes_cover_every_declared_field():
    assert set(KEY_CHANGES) == set(TRACE_FIELDS)


def _key(args):
    return runsim._resolve(args, runsim.build_topology(args))[2]


@pytest.mark.parametrize("field", sorted(KEY_CHANGES))
def test_changing_a_trace_field_is_a_miss(field, tmp_path):
    point, value = KEY_CHANGES[field]
    if callable(value):
        value = value(tmp_path)
    base = run_namespace(point)
    changed = run_namespace(dict(point, **{field: value}))
    assert getattr(changed, field) != getattr(base, field)
    memo = TraceMemo(4)
    memo.lookup(_key(base), object)
    memo.lookup(_key(changed), object)
    assert memo.take_counts() == (0, 2)


def test_spellings_of_one_builtin_degree_set_share_a_key():
    # gpt3's unset --mp is 16, and DP fills the rest: one build.
    point = dict(SMALL, topology="Ring(4)_Switch(8)", workload="gpt3")
    _, counts = _memoised(run_namespace(dict(point, mp=0)))
    assert counts == (0, 1)
    _, counts = _memoised(run_namespace(dict(point, mp=16)))
    assert counts == (1, 0)
    _, counts = _memoised(run_namespace(dict(point, mp=16, dp=2)))
    assert counts == (1, 0)


def test_a_trace_field_change_rebuilds_through_the_simulate_path():
    first, counts = _memoised(run_namespace(HIERMEM_BASE))
    assert counts == (0, 1)
    second, counts = _memoised(run_namespace(
        dict(HIERMEM_BASE, inswitch=False)))
    assert counts == (0, 1)
    assert _digest(second) != _digest(first)


# -- the inverse property --------------------------------------------------------


#: Alternative values for every run field the key leaves out.
OTHER_FIELDS = {
    "bandwidths": st.lists(st.sampled_from([12.5, 50.0, 100.0, 400.0]),
                           min_size=2, max_size=2),
    "latencies": st.lists(st.sampled_from([0.0, 20.0, 500.0, 1000.0]),
                          min_size=2, max_size=2),
    "scheduler": st.just("baseline"),
    "backend": st.sampled_from(["garnet", "flow", "adaptive"]),
    "packet_bytes": st.sampled_from([512, 8192]),
    "train_packets": st.sampled_from([2, 16]),
    "granularity": st.sampled_from(["fluid", "packet", "adaptive"]),
    "escalation_threshold": st.sampled_from([0.0, 2.0, math.inf]),
    "deescalation_hysteresis": st.sampled_from([0.5, 2.0]),
    "chunks": st.sampled_from([1, 4, 64]),
    "peak_tflops": st.sampled_from([10.0, 1000.0]),
    "hbm_gbps": st.sampled_from([100.0, 8000.0]),
    "fabric_bw_gbps": st.sampled_from([64.0, 2048.0]),
    "group_bw_gbps": st.sampled_from([50.0, 500.0]),
    "remote_path_gbps": st.sampled_from([10.0, 400.0]),
    "faults": st.just(["straggler@npu0:2x@t=0"]),
    "fault_seed": st.sampled_from([1, 7]),
    "checkpoint_interval_ms": st.just(5.0),
    "checkpoint_gib": st.just(1.0),
    "trace_level": st.sampled_from(["phase", "collective", "chunk",
                                    "packet"]),
    "check_invariants": st.just(True),
    "folding": st.just("off"),
    "strict_invariants": st.just(True),
}


#: What a run sets, besides a build's own fields, to read each field of
#: OTHER_FIELDS that a run at the defaults (analytical backend, local
#: memory, no faults, no invariant checker) does not read.
READ_WITH = {
    "packet_bytes": {"backend": "garnet"},
    "train_packets": {"backend": "garnet"},
    "escalation_threshold": {"backend": "adaptive"},
    "deescalation_hysteresis": {"backend": "adaptive"},
    "fabric_bw_gbps": {"memory_model": "hiermem"},
    "group_bw_gbps": {"memory_model": "hiermem"},
    "remote_path_gbps": {"memory_model": "zero-infinity", "inswitch": False},
    "checkpoint_interval_ms": {"fault_seed": 1},
    "checkpoint_gib": {"fault_seed": 1, "checkpoint_interval_ms": 5.0},
    "strict_invariants": {"check_invariants": True},
}

#: The (build, field) pairs that no run reads: only moe1t reads a memory
#: model, and gpt3 and transformer1t size checkpoints from their model
#: state.
REFUSED = {
    *((build, field) for build in BUILDS if build != "moe1t"
      for field in ("fabric_bw_gbps", "group_bw_gbps", "remote_path_gbps")),
    ("gpt3", "checkpoint_gib"), ("transformer1t", "checkpoint_gib"),
}


def test_every_run_field_is_in_the_key_or_the_inverse_property():
    assert set(OTHER_FIELDS) == set(FIELDS) - set(TRACE_FIELDS)
    assert set(READ_WITH) <= set(OTHER_FIELDS)


def _with(point, field, value):
    if FIELDS[field].sweepable:
        return run_namespace(dict(point, **{field: value}))
    args = run_namespace(point)
    setattr(args, field, value)
    return args


@pytest.mark.parametrize("field", sorted(OTHER_FIELDS))
@pytest.mark.parametrize("build", sorted(BUILDS))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_changing_any_other_field_is_a_hit(build, field, data):
    value = data.draw(OTHER_FIELDS[field], label=field)
    refused = (build, field) in REFUSED
    point = dict(_point(build), **({} if refused else READ_WITH.get(field, {})))
    base_args = run_namespace(point)
    args = _with(point, field, value)
    assume(getattr(args, field) != getattr(base_args, field))
    TRACE_MEMO.clear()
    if refused:
        with pytest.raises(runsim.PointConfigError,
                           match=f" does not model {FIELDS[field].flag} "):
            _memoised(args)
        return
    first, counts = _memoised(base_args)
    assert counts == (0, 1)
    second, counts = _memoised(args)
    assert counts == (1, 0)
    assert second is first
    assert _digest(second) == _digest(_fresh(args))
    assert getattr(args, "graph_name", None) == getattr(
        base_args, "graph_name", None)


def test_remote_memory_models_share_a_trace_set():
    # Only whether parameters are remote reaches the builder.  Only
    # hiermem reads --inswitch.
    point = dict(_point("moe1t"), inswitch=False)
    first, _ = _memoised(run_namespace(point))
    args = run_namespace(dict(point, memory_model="zero-infinity"))
    second, counts = _memoised(args)
    assert counts == (1, 0) and second is first
    assert _digest(second) == _digest(_fresh(args))


# -- the memo --------------------------------------------------------------------


def test_lru_bound_evicts_the_least_recently_used():
    memo = TraceMemo(2)
    for key in ("a", "b", "a", "c"):  # "a" refreshed, so "c" evicts "b"
        memo.lookup(key, object)
    assert len(memo) == 2
    assert memo.take_counts() == (1, 3)
    memo.lookup("a", object)
    memo.lookup("b", object)
    assert memo.take_counts() == (1, 1)


def test_process_memo_is_bounded():
    assert TRACE_MEMO.size == TRACE_MEMO_SIZE
    payloads = range(1, TRACE_MEMO_SIZE + 2)
    for mib in payloads:
        _memoised(run_namespace(dict(SMALL, payload_mib=mib)))
    assert len(TRACE_MEMO) == TRACE_MEMO_SIZE
    _, counts = _memoised(run_namespace(dict(SMALL, payload_mib=2)))
    assert counts == (1, 0)
    _, counts = _memoised(run_namespace(dict(SMALL, payload_mib=1)))
    assert counts == (0, 1)


def test_counts_are_per_thread():
    memo = TraceMemo(4)
    memo.lookup("shared", object)
    seen = []

    def worker():
        memo.lookup("shared", object)
        memo.lookup("own", object)
        seen.append(memo.take_counts())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [(1, 1)]
    assert memo.take_counts() == (0, 1)


def test_concurrent_lookups_stay_bounded_and_counted():
    memo = TraceMemo(8)
    seen = []

    def worker(offset):
        for i in range(300):
            key = (i * 7 + offset) % 12
            assert memo.lookup(key, lambda: ("built", key)) == ("built", key)
        seen.append(memo.take_counts())

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(memo) == 8
    assert sum(hits + misses for hits, misses in seen) == 4 * 300


def test_editing_a_model_json_file_is_a_miss(tmp_path):
    config = dict(zoo_entry("llama3-8b").config, num_hidden_layers=2,
                  _name_or_path="tiny-llama")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    path_a = tmp_path / "a" / "tiny.json"
    path_b = tmp_path / "b" / "tiny.json"
    path_a.write_text(json.dumps(config))
    path_b.write_text(json.dumps(config))
    point = dict(SMALL, seq_len=128, mp=2)

    def build(path):
        args = run_namespace(dict(point, model_json=str(path)))
        traces, counts = _memoised(args)
        return args, traces, counts

    args, first, counts = build(path_a)
    assert counts == (0, 1) and args.graph_name == "tiny-llama"
    # Same content elsewhere: keyed on content, not path.  A hit names
    # the graph too.
    args, same, counts = build(path_b)
    assert counts == (1, 0) and same is first
    assert args.graph_name == "tiny-llama"
    path_a.write_text(json.dumps(dict(config, num_hidden_layers=3)))
    args, edited, counts = build(path_a)
    assert counts == (0, 1)
    assert _digest(edited) == _digest(_fresh(args)) != _digest(first)


def test_unreadable_model_json_bypasses_the_memo(tmp_path):
    args = run_namespace(dict(SMALL, model_json=str(tmp_path / "none.json")))
    assert _key(args) is None
    with pytest.raises(runsim.PointConfigError, match="not found"):
        _memoised(args)
    assert len(TRACE_MEMO) == 0


# -- sweeps ----------------------------------------------------------------------


@pytest.fixture
def clean_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def _memo_counts(campaign):
    return tuple(int(campaign.telemetry.value("campaign", name))
                 for name in ("trace_memo_hits", "trace_memo_misses"))


def test_merged_sweep_identical_across_jobs_and_fresh_runs(clean_pool):
    serial = CampaignRunner(jobs=0).run(FABRIC_SWEEP)
    pooled = CampaignRunner(jobs=2).run(FABRIC_SWEEP)
    assert serial.errors == [] and pooled.errors == []
    assert _memo_counts(serial) == (3, 1)
    hits, misses = _memo_counts(pooled)
    assert hits + misses == 4 and 1 <= misses <= 2
    assert serial.to_dict() == pooled.to_dict()
    assert (serial.canonical_results_json()
            == pooled.canonical_results_json())
    metrics = {m["name"] for m in serial.to_dict()["telemetry"]["metrics"]}
    assert not metrics & {"trace_memo_hits", "trace_memo_misses"}
    fresh_points = []
    for i, point in enumerate(serial.points):
        TRACE_MEMO.clear()
        fresh_points.append({"index": i, "config": point["config"],
                             "result": run_point(point["config"]),
                             "error": None})
    fresh = {"spec": FABRIC_SWEEP.to_dict(), "points": fresh_points}
    assert canonical_campaign_json(fresh) == serial.canonical_results_json()


def test_custom_executor_outcomes_leave_the_simulate_path_unloaded():
    code = (
        "import sys\n"
        "from repro.campaign.pool import run_one\n"
        "print(run_one(len, 'ab'), 'repro.runsim' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "{'ok': True, 'result': 2} False\n"
