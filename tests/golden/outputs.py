"""The byte-identity record: digests of run outputs that tier-1 recomputes.

``outputs.json`` holds, for each point of :data:`POINTS`, the sha256 of
the run's canonical schema-v2 document (``result_to_dict``, sorted and
compact, the ``digest()`` rule of ``benchmarks/e2e/workloads.py``), its
``total_time_ns`` and ``events_processed``; a faulted point adds the
digest of its resilience report.  The ``validate`` entry is the digest
of the ``repro validate --suite all --full`` report.  Each point runs
through the simulate path (``repro.runsim.simulate_from_args``), as
``repro run`` and every campaign point do.

A change that moves a simulated number re-pins the record and names
each moved entry with its reason::

    PYTHONPATH=src python tests/golden/outputs.py          # print old -> new
    PYTHONPATH=src python tests/golden/outputs.py --write  # and re-pin
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

RECORD = Path(__file__).with_name("outputs.json")

#: A small two-level system every point shares unless it names its own.
SYSTEM = {"topology": "Ring(8)_Switch(2)", "bandwidths": "100,50"}
SQUARE = {"topology": "Ring(4)_Switch(4)", "bandwidths": "100,50"}
CUBE = {"topology": "Ring(2)_Ring(2)_Ring(2)_Switch(2)",
        "bandwidths": "200,100,100,50"}

#: A two-layer Mixtral-shaped MoE config, given inline as --model-json.
TINY_MOE = json.dumps({
    "_name_or_path": "tiny-moe", "model_type": "mixtral",
    "hidden_size": 512, "intermediate_size": 1024,
    "num_hidden_layers": 2, "num_attention_heads": 8,
    "num_key_value_heads": 4, "num_local_experts": 4,
    "num_experts_per_tok": 2, "hidden_act": "silu",
    "max_position_embeddings": 1024, "vocab_size": 1000,
    "tie_word_embeddings": False,
}, sort_keys=True)


def _on(system: Dict[str, Any], **fields: Any) -> Dict[str, Any]:
    return dict(system, **fields)


#: Every point is a valid run: it sets only fields its workload reads.
POINTS: Dict[str, Dict[str, Any]] = {
    # Each builtin at its defaults and at one other valid setting.
    "allreduce": _on(SYSTEM, workload="allreduce"),
    "allreduce-7mib": _on(SYSTEM, workload="allreduce", payload_mib=7),
    "alltoall": _on(SYSTEM, workload="alltoall"),
    "alltoall-7mib": _on(SYSTEM, workload="alltoall", payload_mib=7),
    "gpt3": _on(SYSTEM, workload="gpt3"),
    "gpt3-mp4": _on(SYSTEM, workload="gpt3", mp=4),
    "transformer1t": _on(SYSTEM, workload="transformer1t"),
    "transformer1t-mp8-dp2": _on(SYSTEM, workload="transformer1t", mp=8,
                                 dp=2),
    "pp-gpt3": _on(SYSTEM, workload="pp-gpt3"),
    "pp-gpt3-pp4-mb2": _on(SQUARE, workload="pp-gpt3", pp=4, microbatches=2),
    "dlrm": _on(SYSTEM, workload="dlrm"),
    "dlrm-baseline": _on(SYSTEM, workload="dlrm", scheduler="baseline"),
    "fsdp-gpt3": _on(SYSTEM, workload="fsdp-gpt3"),
    "fsdp-gpt3-chunks4": _on(SYSTEM, workload="fsdp-gpt3", chunks=4),
    "dp-gpt3": _on(SYSTEM, workload="dp-gpt3"),
    "dp-gpt3-baseline": _on(SYSTEM, workload="dp-gpt3",
                            scheduler="baseline"),
    # MoE-1T on each memory organisation.
    "moe1t": _on(SYSTEM, workload="moe1t"),
    "moe1t-hiermem": _on(SYSTEM, workload="moe1t", memory_model="hiermem"),
    "moe1t-hiermem-inswitch": _on(SYSTEM, workload="moe1t",
                                  memory_model="hiermem", inswitch=True),
    "moe1t-zero-infinity": _on(SYSTEM, workload="moe1t",
                               memory_model="zero-infinity"),
    # A planned frontend point with TP, PP and EP all above 1.
    "zoo-moe-tp2-pp2-ep2": _on(CUBE, model_json=TINY_MOE, seq_len=128,
                               mp=2, pp=2, ep=2, microbatches=2),
    # A faulted run whose checkpoint size comes from the model footprint.
    "gpt3-faults-checkpoints": _on(
        SYSTEM, workload="gpt3", faults=["straggler@npu3:1.5x@t=0"],
        fault_seed=7, checkpoint_interval_ms=200.0),
    # pp-gpt3's per-rank stage traces fold to one rank per stage; the
    # same run unfolded must give the same document.
    "pp-gpt3-unfolded": _on(SYSTEM, workload="pp-gpt3", folding="off"),
}

# {analytical, flow, garnet, adaptive} x {baseline, themis}.
for _backend in ("analytical", "flow", "garnet", "adaptive"):
    for _scheduler in ("baseline", "themis"):
        POINTS[f"backend-{_backend}-{_scheduler}"] = _on(
            SYSTEM, workload="allreduce", payload_mib=1, backend=_backend,
            scheduler=_scheduler)


def digest(doc: Any) -> str:
    """sha256 of the canonical (sorted, compact) JSON text of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def compute_point(fields: Dict[str, Any]) -> Dict[str, Any]:
    """One point's record entry, from a run on a cold trace memo."""
    from repro.runsim import simulate_from_args
    from repro.runspec import TRACE_MEMO, run_namespace
    from repro.stats.export import result_to_dict

    args = run_namespace({k: v for k, v in fields.items()
                          if k != "folding"})
    args.folding = fields.get("folding", args.folding)
    TRACE_MEMO.clear()
    _topology, result, resilience = simulate_from_args(args)
    entry = {"digest": digest(result_to_dict(result)),
             "total_time_ns": result.total_time_ns,
             "events_processed": result.events_processed}
    if resilience is not None:
        entry["resilience"] = digest(dataclasses.asdict(resilience))
    return entry


def compute_validate() -> Dict[str, Any]:
    """The digest of ``repro validate --suite all --full``'s report."""
    import contextlib
    import io

    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "--suite", "all", "--full",
                         "--report-out", str(path)])
        report = path.read_bytes()
    return {"digest": hashlib.sha256(report).hexdigest(), "exit": code}


def compute(name: str) -> Dict[str, Any]:
    if name == "validate":
        return compute_validate()
    return compute_point(POINTS[name])


def names():
    return [*POINTS, "validate"]


def load() -> Dict[str, Any]:
    return json.loads(RECORD.read_text()) if RECORD.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite outputs.json with the new values")
    args = parser.parse_args(argv)
    old = load()
    new = {name: compute(name) for name in names()}
    moved = 0
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name), new.get(name)
        if before == after:
            continue
        moved += 1
        print(f"{name}:")
        for key in sorted(set(before or {}) | set(after or {})):
            a = (before or {}).get(key)
            b = (after or {}).get(key)
            if a != b:
                print(f"  {key}: {a} -> {b}")
    print(f"{moved} of {len(new)} entries moved")
    if args.write:
        RECORD.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
