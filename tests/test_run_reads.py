"""Each run reads only the run fields its rows of the table declare.

Next to the trace producers (``tests/test_workload_reads.py``),
``repro.runsim`` declares what each network backend (``--granularity``
resolved) and each memory model reads, and the switches that turn
fields on: ``--checkpoint-*`` only with faults, ``--checkpoint-gib``
only with a checkpoint interval and a producer without a footprint
model, ``--strict-invariants`` only with ``--check-invariants``.  A
field the run does not read, set away from its default, is a
``PointConfigError`` at every entry point; every declared field is
really read.
"""

import dataclasses
import json
import math
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from repro import runsim
from repro.campaign import CampaignRunner, SweepSpec
from repro.cli import main
from repro.core.config import NETWORK_BACKENDS
from repro.runspec import FIELDS, MEMORY_MODELS, PointConfigError, run_namespace
from repro.stats.export import result_to_dict
from tests.golden.outputs import digest
from tests.test_campaign_serve import post, serving

REPO = Path(__file__).resolve().parents[1]
SYSTEM = {"topology": "Ring(4)_Switch(2)", "bandwidths": "100,50"}
ALLREDUCE = dict(SYSTEM, workload="allreduce", payload_mib=1)
MOE1T = dict(SYSTEM, workload="moe1t")

#: Points that each ran silently on a field no row of theirs reads, with
#: the row the error names and the flag.
DROPPED = {
    "analytical-packet-bytes": (dict(ALLREDUCE, packet_bytes=512),
                                "backend 'analytical'", "--packet-bytes"),
    "analytical-train-packets": (dict(ALLREDUCE, train_packets=4),
                                 "backend 'analytical'", "--train-packets"),
    "analytical-escalation-threshold": (
        dict(ALLREDUCE, escalation_threshold=2), "backend 'analytical'",
        "--escalation-threshold"),
    "analytical-deescalation-hysteresis": (
        dict(ALLREDUCE, deescalation_hysteresis=0.5), "backend 'analytical'",
        "--deescalation-hysteresis"),
    "flow-scheduler-chunks": (
        dict(ALLREDUCE, backend="flow", scheduler="baseline", chunks=4),
        "backend 'flow'", "--scheduler"),
    "fluid-chunks": (dict(ALLREDUCE, granularity="fluid", chunks=4),
                     "backend 'flow'", "--chunks"),
    "adaptive-train-packets": (dict(ALLREDUCE, backend="adaptive",
                                    train_packets=4),
                               "backend 'adaptive'", "--train-packets"),
    "garnet-escalation-threshold": (
        dict(ALLREDUCE, backend="garnet", escalation_threshold=2),
        "backend 'garnet'", "--escalation-threshold"),
    "local-fabric-bw": (dict(MOE1T, fabric_bw_gbps=128),
                        "memory model 'local'", "--fabric-bw-gbps"),
    "local-group-bw": (dict(MOE1T, group_bw_gbps=50),
                       "memory model 'local'", "--group-bw-gbps"),
    "local-remote-path": (dict(MOE1T, remote_path_gbps=50),
                          "memory model 'local'", "--remote-path-gbps"),
    "checkpoint-interval-without-faults": (
        dict(ALLREDUCE, checkpoint_interval_ms=5),
        "a run without --faults or --fault-seed", "--checkpoint-interval-ms"),
    "checkpoint-gib-without-faults": (
        dict(ALLREDUCE, checkpoint_gib=1),
        "a run without --faults or --fault-seed", "--checkpoint-gib"),
    "checkpoint-gib-without-interval": (
        dict(ALLREDUCE, fault_seed=3, checkpoint_gib=1),
        "a run without --checkpoint-interval-ms", "--checkpoint-gib"),
    "gpt3-checkpoint-gib": (
        dict(SYSTEM, workload="gpt3", mp=4, fault_seed=3,
             checkpoint_interval_ms=5, checkpoint_gib=1),
        "workload 'gpt3'", "--checkpoint-gib"),
    # Two pairs the simulate path refused with a message of their own.
    "flow-faults": (dict(ALLREDUCE, backend="flow",
                         faults=["straggler@npu1:2x@t=0"]),
                    "backend 'flow'", "--faults"),
    "zero-infinity-inswitch": (
        dict(MOE1T, memory_model="zero-infinity", inswitch=True),
        "memory model 'zero-infinity'", "--inswitch"),
}


def message(what, flag):
    return f"{what} does not model {flag} "


@pytest.mark.parametrize("case", sorted(DROPPED))
def test_dropped_field_is_a_point_error(case):
    fields, what, flag = DROPPED[case]
    with pytest.raises(PointConfigError) as excinfo:
        runsim.simulate_from_args(run_namespace(fields))
    assert str(excinfo.value).startswith(message(what, flag))


def test_the_error_names_what_reads_the_field():
    fields, _what, _flag = DROPPED["flow-scheduler-chunks"]
    with pytest.raises(PointConfigError) as excinfo:
        runsim.simulate_from_args(run_namespace(fields))
    assert str(excinfo.value) == (
        "backend 'flow' does not model --scheduler (it reads: no other "
        "field); leave --scheduler unset, or use --backend analytical")


def _argv(fields):
    argv = ["run"]
    for field, value in fields.items():
        if value is True:
            argv.append(FIELDS[field].flag)
            continue
        for one in value if isinstance(value, list) else [value]:
            argv += [FIELDS[field].flag, str(one)]
    return argv


@pytest.mark.parametrize("case", sorted(DROPPED))
def test_cli_refuses_with_one_error_line(case, capsys):
    fields, what, flag = DROPPED[case]
    with pytest.raises(SystemExit) as excinfo:
        main(_argv(fields))
    text = str(excinfo.value.code)
    assert text.startswith("error: " + message(what, flag))
    assert "\n" not in text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, what, flag", [
    (_argv(DROPPED["flow-scheduler-chunks"][0]), "backend 'flow'",
     "--scheduler"),
    (_argv(ALLREDUCE) + ["--strict-invariants"],
     "a run without --check-invariants", "--strict-invariants"),
], ids=["flow-scheduler", "strict-without-check"])
def test_cli_process_exits_with_one_error_line(argv, what, flag):
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": str(REPO / "src")})
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " + message(what, flag))


@pytest.mark.parametrize("case", sorted(DROPPED))
def test_sweep_point_with_a_dropped_field_is_an_error_record(case):
    fields, what, flag = DROPPED[case]
    field = next(f for f in FIELDS if FIELDS[f].flag == flag)
    campaign = CampaignRunner(jobs=0).run(SweepSpec(
        base={k: v for k, v in fields.items() if k != field},
        grid={field: [fields[field]]}))
    (point,) = campaign.points
    assert point["result"] is None
    assert point["error"]["type"] == "PointConfigError"
    assert point["error"]["message"].startswith(message(what, flag))


def test_serve_answers_400_for_each_dropped_field():
    with serving() as (base, _server):
        for fields, what, flag in DROPPED.values():
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base + "/run", fields)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error["type"] == "PointConfigError"
            assert error["message"].startswith(message(what, flag))


# -- declaration exactness --------------------------------------------------------


def test_rows_are_the_choice_lists():
    assert set(runsim.BACKENDS) == set(NETWORK_BACKENDS)
    assert tuple(runsim.MEMORY_MODELS) == MEMORY_MODELS


ALLTOALL = {"topology": "Ring(8)", "bandwidths": "100",
            "workload": "alltoall", "payload_mib": 1}
TABLE_V = {"topology": "Switch(4)_Switch(2)", "bandwidths": "256,12.5",
           "workload": "moe1t"}

#: A small point on each row, and for each field the row reads a value
#: that changes the run.
EXACT = {
    ("backend", "analytical"): (ALLREDUCE, {
        "scheduler": "baseline", "chunks": 4,
        "faults": ["straggler@npu1:2x@t=0"], "fault_seed": 3}),
    ("backend", "garnet"): (dict(ALLREDUCE, backend="garnet"), {
        "packet_bytes": 512, "train_packets": 4}),
    ("backend", "flow"): (dict(ALLREDUCE, backend="flow"), {}),
    ("backend", "adaptive"): (
        dict(ALLTOALL, backend="adaptive", escalation_threshold=1), {
            "packet_bytes": 1024, "escalation_threshold": math.inf,
            "deescalation_hysteresis": 2}),
    ("memory", "local"): (TABLE_V, {}),
    ("memory", "hiermem"): (dict(TABLE_V, memory_model="hiermem"), {
        "fabric_bw_gbps": 128, "group_bw_gbps": 50, "inswitch": True}),
    ("memory", "zero-infinity"): (
        dict(TABLE_V, memory_model="zero-infinity"),
        {"remote_path_gbps": 50}),
}


def _outputs(fields):
    """The digests of a run's schema-v2 document and resilience report."""
    _topology, result, resilience = runsim.simulate_from_args(
        run_namespace(fields))
    return (digest(result_to_dict(result)),
            resilience and digest(dataclasses.asdict(resilience)))


def test_exact_covers_every_row():
    assert set(EXACT) == ({("backend", b) for b in runsim.BACKENDS}
                          | {("memory", m) for m in runsim.MEMORY_MODELS})


@pytest.mark.parametrize("axis, row", sorted(EXACT))
def test_every_declared_field_changes_the_run(axis, row):
    point, changes = EXACT[axis, row]
    table = runsim.BACKENDS if axis == "backend" else runsim.MEMORY_MODELS
    assert set(changes) == set(table[row])
    first = _outputs(point)
    for field, value in changes.items():
        assert _outputs(dict(point, **{field: value})) != first, field


def test_every_checkpoint_field_changes_the_resilience_report():
    point = dict(ALLREDUCE, fault_seed=3)
    first = _outputs(point)
    interval = _outputs(dict(point, checkpoint_interval_ms=0.001))
    sized = _outputs(dict(point, checkpoint_interval_ms=0.001,
                          checkpoint_gib=1))
    assert len({first[1], interval[1], sized[1]}) == 3
