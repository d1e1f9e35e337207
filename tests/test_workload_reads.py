"""Each run reads only the trace fields its producer declares.

``repro.runsim.BUILTINS`` and ``repro.runsim.FRONTEND`` declare, per
producer, the trace fields it reads and the value each unset degree
takes.  A trace field a run's producer does not read, set away from its
default, is a ``PointConfigError`` (one ``error:`` line on the CLI, a
failed point in a sweep); every declared field is really read.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro import runsim
from repro.campaign import CampaignRunner, SweepSpec
from repro.runspec import (
    FIELDS,
    TRACE_FIELDS,
    WORKLOADS,
    PointConfigError,
    run_namespace,
)
from repro.trace.serialization import dumps_trace

REPO = Path(__file__).resolve().parents[1]
OPGRAPH = str(REPO / "examples" / "tiny_opgraph.json")
SYSTEM = {"topology": "Ring(4)_Switch(8)", "bandwidths": "100,50"}
GPT3 = dict(SYSTEM, workload="gpt3", mp=4)
TINY = dict(SYSTEM, model_json=OPGRAPH)

#: Points that each ran silently on a field their producer never read.
DROPPED = [
    (dict(GPT3, microbatches=2), "gpt3", "--microbatches"),
    (dict(GPT3, batch=8, seq_len=128), "gpt3", "--batch"),
    (dict(GPT3, payload_mib=7), "gpt3", "--payload-mib"),
    (dict(GPT3, memory_model="hiermem"), "gpt3", "--memory-model"),
    (dict(GPT3, inswitch=True), "gpt3", "--inswitch"),
    (dict(TINY, batch=8, seq_len=64), f"ingest:{OPGRAPH}", "--batch"),
    (dict(TINY, payload_mib=7), f"ingest:{OPGRAPH}", "--payload-mib"),
    (dict(TINY, memory_model="zero-infinity"), f"ingest:{OPGRAPH}",
     "--memory-model"),
    (dict(TINY, workload="gpt3"), f"ingest:{OPGRAPH}", "--workload"),
    (dict(SYSTEM, workload="allreduce", batch=8), "allreduce", "--batch"),
    (dict(SYSTEM, model="llama3-8b", payload_mib=7), "ingest:llama3-8b",
     "--payload-mib"),
]
DROPPED_IDS = ["gpt3-microbatches", "gpt3-batch-seq", "gpt3-payload",
               "gpt3-hiermem", "gpt3-inswitch", "opgraph-batch-seq",
               "opgraph-payload", "opgraph-zero-infinity", "opgraph-workload",
               "allreduce-batch", "llama-payload"]


def message(name, flag):
    return f"workload {name!r} does not model {flag} "


@pytest.mark.parametrize("fields, name, flag", DROPPED, ids=DROPPED_IDS)
def test_dropped_field_is_a_point_error(fields, name, flag):
    with pytest.raises(PointConfigError) as excinfo:
        runsim.simulate_from_args(run_namespace(fields))
    assert str(excinfo.value).startswith(message(name, flag))


def _argv(fields):
    argv = ["run"]
    for field, value in fields.items():
        if value is True:
            argv.append(FIELDS[field].flag)
        else:
            argv += [FIELDS[field].flag, str(value)]
    return argv


@pytest.mark.parametrize("fields, name, flag", DROPPED[:1] + DROPPED[-2:],
                         ids=["gpt3-microbatches", "allreduce-batch",
                              "llama-payload"])
def test_cli_prints_one_error_line(fields, name, flag):
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", *_argv(fields)],
        capture_output=True, text=True, env={"PYTHONPATH": str(REPO / "src")})
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " + message(name, flag))


def test_sweep_fails_only_the_point_that_sets_an_unread_field():
    campaign = CampaignRunner(jobs=0).run(SweepSpec(
        base=dict(GPT3, topology="Ring(4)_Switch(4)"),
        grid={"microbatches": [4, 2]}))
    assert [point["error"] is None for point in campaign.points] == [
        True, False]
    assert campaign.errors[0]["error"]["message"].startswith(
        message("gpt3", "--microbatches"))


def test_workloads_choice_list_is_the_table():
    assert tuple(runsim.BUILTINS) == WORKLOADS


# -- declaration exactness --------------------------------------------------------


SMALL = {"topology": "Ring(2)_Switch(2)", "bandwidths": "100,50"}

#: Each producer on a small shape; the frontend plans a zoo model.
BASES = {
    "allreduce": {"workload": "allreduce"},
    "alltoall": {"workload": "alltoall"},
    "gpt3": {"workload": "gpt3", "mp": 2},
    "transformer1t": {"workload": "transformer1t", "mp": 2},
    "dlrm": {"workload": "dlrm"},
    "fsdp-gpt3": {"workload": "fsdp-gpt3"},
    "dp-gpt3": {"workload": "dp-gpt3"},
    "pp-gpt3": {"workload": "pp-gpt3", "pp": 2},
    "moe1t": {"workload": "moe1t", "memory_model": "hiermem"},
    "ingest": {"model": "llama3-8b", "seq_len": 128, "mp": 2, "pp": 2},
}

#: A value off each trace field's default (and off every base's value).
OTHER = {"workload": "alltoall", "batch": 2, "seq_len": 256,
         "payload_mib": 7.0, "mp": 4, "dp": 4, "pp": 4, "ep": 4,
         "microbatches": 2, "memory_model": "zero-infinity",
         "inswitch": True}

#: Fields that pick the producer rather than shape its traces.
SELECTORS = ("topology", "workload", "model", "model_json")

#: A value that changes the traces, for each declared non-degree field.
READ_CHANGES = {"payload_mib": 7.0, "microbatches": 2, "memory_model": "local",
                "inswitch": True, "batch": 2, "seq_len": 256}


def test_bases_cover_every_producer():
    assert set(BASES) == set(runsim.BUILTINS) | {"ingest"}


def _reads(base):
    return runsim.reads(run_namespace(dict(SMALL, **BASES[base])))


def _digest(fields):
    args = run_namespace(fields)
    topology = runsim.build_topology(args)
    entry, degrees, _key = runsim._resolve(args, topology)
    traces, _name = runsim._build(args, topology, entry, degrees)
    text = "\n".join(dumps_trace(traces[rank]) for rank in sorted(traces))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_undeclared_field_is_refused(base):
    read = _reads(base)
    undeclared = [f for f in TRACE_FIELDS
                  if f not in read and f not in ("model", "model_json")]
    assert undeclared
    for field in undeclared:
        assert OTHER[field] != FIELDS[field].default
        args = run_namespace(dict(SMALL, **BASES[base], **{
            field: OTHER[field]}))
        with pytest.raises(PointConfigError, match=" does not model "
                           + FIELDS[field].flag + " "):
            runsim._resolve(args, runsim.build_topology(args))


@pytest.mark.parametrize("base", sorted(BASES))
def test_every_declared_field_is_read(base):
    point = dict(SMALL, **BASES[base])
    fields = [f for f in _reads(base) if f not in SELECTORS
              and f not in ("mp", "dp", "pp", "ep")]
    first = _digest(point)
    for field in fields:
        assert _digest(dict(point, **{field: READ_CHANGES[field]})) != first, \
            field
