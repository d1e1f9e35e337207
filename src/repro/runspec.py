"""The run-field table: every ``repro run`` configuration field, declared once.

Each :class:`RunField` row holds a field's name, normalizer, default,
help, choices and whether it is sweepable.  Generated from the table:
the run flags of ``repro run``/``sweep``/``validate`` and the subset
``ingest`` and ``topology-info`` take (:func:`add_run_flags`); the
campaign's :data:`FIELD_TYPES`, :func:`default_fields` and
:func:`normalize_point` (whose output is the run-cache key and the
merged document's ``config``); and the namespace the simulate path in
:mod:`repro.runsim` reads for a sweep or ``repro serve`` point
(:func:`run_namespace`), with its choice check (:func:`check_choices`).
Next to it, :data:`TRACE_FIELDS` declares the fields the trace builders
read and the part of each that keys the process's trace memo
(:data:`TRACE_MEMO`).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InputError, strict_float, strict_int

WORKLOADS = ("allreduce", "alltoall", "gpt3", "transformer1t", "dlrm",
             "fsdp-gpt3", "dp-gpt3", "pp-gpt3", "moe1t")

MEMORY_MODELS = ("local", "hiermem", "zero-infinity")


class PointConfigError(InputError):
    """A point (or a set of run flags) does not form a valid run configuration."""


def _parsed(value: Any, kind: type) -> Any:
    # A flag, a --grid value or a JSON "4" arrives as text.
    return kind(value) if isinstance(value, str) else value


def integer(value: Any) -> int:
    return strict_int(_parsed(value, int), "", template="not an integer")


def number(value: Any) -> float:
    return strict_float(_parsed(value, float), "",
                        template="not a finite number")


def number_or_inf(value: Any) -> float:
    return math.inf if _parsed(value, float) == math.inf else number(value)


def _list_entry(value: Any) -> str:
    # A number or text keeps float(): parse_topology's finite/positive
    # rule names the dimension.  Anything else fails the number rule.
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):
        number(value)
    return format(float(value), "g")


def number_list(value: Any) -> str:
    """Canonical comma-list form for bandwidths/latencies fields."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_list_entry, value))
    if value in ("", None):
        return ""
    return ",".join(format(float(v), "g") for v in str(value).split(","))


def _bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _faults_list(value: Any) -> Optional[List[str]]:
    if value is None:
        return None
    if isinstance(value, str):
        return [value]
    return [str(v) for v in value]


def integer_or_none(value: Any) -> Optional[int]:
    return None if value is None else integer(value)


@dataclass(frozen=True)
class RunField:
    """One run-configuration field; its flag is ``--`` + name with dashes."""

    name: str
    normalize: Callable[[Any], Any]
    default: Any
    help: str
    choices: Optional[Tuple[str, ...]] = None
    sweepable: bool = True
    metavar: Optional[str] = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


RUN_FIELDS: Tuple[RunField, ...] = (
    RunField("topology", str, "", 'shape notation, e.g. "Ring(4)_Switch(8)"'),
    RunField("bandwidths", number_list, "", "per-dim GB/s, comma separated"),
    RunField("latencies", number_list, "",
             "per-dim ns/hop, comma separated (default 500)"),
    RunField("workload", str, "allreduce", "builtin workload",
             choices=WORKLOADS),
    RunField("model", str, "",
             "simulate a frontend zoo model instead of a builtin workload "
             "(see: repro ingest --list-models)", metavar="NAME"),
    RunField("model_json", str, "",
             "ingest an HF-style config.json or repro-opgraph JSON through "
             "the frontend and simulate it", metavar="PATH"),
    RunField("batch", integer, 0,
             "frontend batch size override (0 = the model family's default)"),
    RunField("seq_len", integer, 0,
             "frontend sequence length override (0 = the model family's "
             "default)"),
    RunField("payload_mib", number, 1024.0,
             "collective payload for allreduce/alltoall"),
    RunField("scheduler", str, "themis",
             "collective chunk scheduler (read by the analytical backend)",
             choices=("baseline", "themis")),
    RunField("backend", str, "analytical",
             "network backend; on garnet/flow/adaptive collectives are "
             "lowered to explicit send/recv algorithms; 'adaptive' is flow "
             "with runtime per-link fluid->packet escalation under "
             "contention and hysteresis-based de-escalation",
             choices=("analytical", "garnet", "flow", "adaptive")),
    RunField("packet_bytes", integer, 0,
             "packet/segment size (read by the garnet and adaptive "
             "backends; 0 = backend default, 4096)"),
    RunField("train_packets", integer, 1,
             "packet-train coalescing factor (read by the garnet backend); "
             "> 1 trades contention granularity for simulation speed on "
             "large payloads"),
    RunField("granularity", str, "",
             "alias of --backend: 'fluid' is flow, 'packet' is garnet, "
             "'adaptive' is adaptive (it may refine the default analytical, "
             "its own backend, or, for 'adaptive', flow); default: --backend "
             "decides",
             choices=("", "fluid", "packet", "adaptive")),
    RunField("escalation_threshold", number_or_inf, 4.0,
             "adaptive backend: escalate a link to packet simulation "
             "when it carries more than this many concurrent flows "
             "(0 = always, inf = never)"),
    RunField("deescalation_hysteresis", number, 1.0,
             "adaptive backend: de-escalate a packet-mode link when its "
             "flow count drops to threshold minus this margin or below"),
    RunField("chunks", integer, 16,
             "pipelining degree of each collective (read by the analytical "
             "backend)"),
    RunField("mp", integer, 0, "tensor/model-parallel degree (0 = auto)"),
    RunField("dp", integer, 0, "data-parallel degree (0 = auto)"),
    RunField("pp", integer, 0, "pipeline-parallel degree (0 = auto)"),
    RunField("ep", integer, 0,
             "expert-parallel degree for frontend models with routed ops "
             "(0 = auto)"),
    RunField("microbatches", integer, 4, "pipeline microbatches per iteration"),
    RunField("peak_tflops", number, 234.0, "NPU roofline peak TFLOP/s"),
    RunField("hbm_gbps", number, 2039.0,
             "local HBM bandwidth (roofline + local memory model)"),
    RunField("memory_model", str, "local",
             "remote-memory organisation: hiermem pools groups behind "
             "switches (Table V), zero-infinity gives each GPU a private "
             "slow path", choices=MEMORY_MODELS),
    RunField("fabric_bw_gbps", number, 256.0,
             "hiermem in-node pooled fabric bandwidth (Table V row 3)"),
    RunField("group_bw_gbps", number, 100.0,
             "hiermem remote memory group bandwidth (Table V row 6)"),
    RunField("remote_path_gbps", number, 100.0,
             "zero-infinity per-GPU slow-path bandwidth"),
    RunField("inswitch", _bool, False,
             "fuse collectives into the pooled memory fabric (moe1t "
             "workload; requires --memory-model hiermem)"),
    RunField("faults", _faults_list, None,
             "inject faults, e.g. 'straggler@npu3:1.5x@t=2ms' (repeatable; "
             "';' separates specs; see repro.faults for the grammar)",
             metavar="SPEC"),
    RunField("fault_seed", integer_or_none, None,
             "also draw a seeded random fault schedule over the run's "
             "fault-free duration (deterministic per seed)", metavar="SEED"),
    RunField("checkpoint_interval_ms", number, 0.0,
             "checkpoint period for the resilience report's restart/replay "
             "accounting (read with --faults or --fault-seed; 0 = no "
             "checkpoints)"),
    RunField("checkpoint_gib", number, 16.0,
             "per-NPU snapshot size (read with --checkpoint-interval-ms "
             "and faults by workloads without a footprint model; gpt3 and "
             "transformer1t derive it from the model-state footprint)"),
    RunField("trace_level", str, "off",
             "span recording depth for --chrome-trace / --metrics-out "
             "(deeper levels record more spans; 'packet' needs a "
             "packet-modeling backend)",
             choices=("off", "phase", "collective", "chunk", "packet")),
    RunField("check_invariants", _bool, False,
             "attach the runtime invariant checker (repro.validate): "
             "causality, conservation, and capacity laws verified during "
             "the run; violations are reported and fail the command"),
    RunField("folding", str, "auto",
             "symmetry folding: 'auto' simulates one rank per equivalence "
             "class of symmetric ranks and reconstructs the per-rank result "
             "bit-identically; 'off' simulates every trace",
             choices=("auto", "off"), sweepable=False),
    RunField("strict_invariants", _bool, False,
             "with --check-invariants, raise at the first violation instead "
             "of collecting a report", sweepable=False),
)

FIELDS: Dict[str, RunField] = {f.name: f for f in RUN_FIELDS}

#: Sweepable fields and their normalizers, in table order.
FIELD_TYPES: Dict[str, Callable[[Any], Any]] = {
    f.name: f.normalize for f in RUN_FIELDS if f.sweepable}

_FIXED_DEFAULTS = {f.name: f.default for f in RUN_FIELDS if not f.sweepable}
_CHOICE_FIELDS = tuple(f for f in RUN_FIELDS if f.choices is not None)
_FLAG_ACTIONS = {_bool: "store_true", _faults_list: "append"}


def _same(value: Any) -> Any:
    return value


def _model_file(spec: str) -> Any:
    # The builder reads the file's content, and its stem names a graph
    # whose config gives no name; inline JSON is its own content.  An
    # unreadable file raises OSError: the run bypasses the memo and the
    # builder reports it.
    if not spec or spec.lstrip().startswith("{"):
        return spec
    path = Path(spec)
    return hashlib.sha256(path.read_bytes()).hexdigest(), path.stem


#: The run fields the trace builders read, each with the part they read;
#: a run's memo key holds the ones its producer reads (``repro.runsim``).
#: ``topology`` is the shape notation alone, ``memory_model`` whether
#: parameters are remote, ``model_json`` the file's content.  No other
#: field changes a build (the inverse property in tests/test_trace_memo.py).
TRACE_FIELDS: Dict[str, Callable[[Any], Any]] = {
    **dict.fromkeys(("topology", "workload", "model"), _same),
    "model_json": _model_file,
    **dict.fromkeys(("batch", "seq_len", "payload_mib", "mp", "dp", "pp",
                     "ep", "microbatches"), _same),
    "memory_model": lambda model: model != "local",  # remote parameters?
    "inswitch": _same,
}


class TraceMemo:
    """A bounded LRU of built trace sets, shared by a process's threads.

    Entries are shared, never copied, so a caller must not edit what
    :meth:`lookup` returns.  Each thread counts its own hits and misses,
    so a worker can report them with the point it ran
    (:meth:`take_counts`).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._local = threading.local()

    def lookup(self, key: Any, build: Callable[[], Any]) -> Any:
        """The entry under ``key``; on a miss, ``build()``'s, now kept."""
        counts = self._counts()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            counts[0] += 1
            return entry
        counts[1] += 1
        entry = build()
        with self._lock:
            self._entries[key] = entry
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)
        return entry

    def take_counts(self) -> Tuple[int, int]:
        """This thread's ``(hits, misses)`` since its last call."""
        counts = self._counts()
        taken = (counts[0], counts[1])
        counts[:] = [0, 0]
        return taken

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def _counts(self) -> List[int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = [0, 0]
        return counts


#: Trace sets kept per process.  A Table V sweep needs one; a sweep over
#: shapes or parallelism degrees cycles through a few.
TRACE_MEMO_SIZE = 8

#: The process's trace memo (``repro run``, campaign workers and
#: ``repro serve`` handler threads alike).
TRACE_MEMO = TraceMemo(TRACE_MEMO_SIZE)


def default_fields() -> Dict[str, Any]:
    """Default value of every sweepable field (``repro run``'s defaults)."""
    return {name: FIELDS[name].default for name in FIELD_TYPES}


def normalize_point(point: Mapping[str, Any]) -> Dict[str, Any]:
    """A fully-resolved, canonically-typed config for one run.

    Fills every sweepable field with its default, applies the field's
    normalizer (so ``"64"`` from a ``--grid`` axis and ``64`` from the
    Python API hash identically in the run cache), and rejects unknown
    fields, uncoercible values and a missing topology or bandwidths.
    """
    if not isinstance(point, Mapping):
        raise PointConfigError(
            f"a point must be an object of run fields, got "
            f"{type(point).__name__}")
    unknown = sorted(set(point) - set(FIELD_TYPES))
    if unknown:
        raise PointConfigError(
            f"unknown sweep field(s) {unknown}; valid fields: "
            + ", ".join(sorted(FIELD_TYPES)))
    resolved = default_fields()
    for name, value in point.items():
        try:
            resolved[name] = FIELD_TYPES[name](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise PointConfigError(
                f"field {name!r}: cannot interpret {value!r} ({exc})")
    if not resolved["topology"] or not resolved["bandwidths"]:
        raise PointConfigError(
            "every point needs 'topology' and 'bandwidths' (set them in "
            "the base config or a sweep axis)")
    return resolved


def run_namespace(point: Mapping[str, Any]) -> argparse.Namespace:
    """The simulate path's view of a point: normalized, plus fixed defaults."""
    return argparse.Namespace(**_FIXED_DEFAULTS, **normalize_point(point))


def check_choices(args: Any) -> None:
    """Reject a choice field whose value is not one of its choices."""
    for f in _CHOICE_FIELDS:
        value = getattr(args, f.name)
        if value not in f.choices:
            raise PointConfigError(
                f"argument {f.flag}: invalid choice: {value!r} (choose from "
                + ", ".join(repr(c) for c in f.choices) + ")")


def add_run_flags(parser: Any, names: Optional[Iterable[str]] = None,
                  required: Iterable[str] = ()) -> None:
    """Add the flags of ``names`` (default: every run field) to a parser
    or argument group."""
    required = set(required)
    for f in RUN_FIELDS if names is None else [FIELDS[n] for n in names]:
        kwargs: Dict[str, Any] = {"default": f.default, "help": f.help}
        if f.normalize in _FLAG_ACTIONS:
            kwargs["action"] = _FLAG_ACTIONS[f.normalize]
        else:
            kwargs["type"] = f.normalize
        if f.choices is not None:
            kwargs["choices"] = f.choices
        if f.metavar is not None:
            kwargs["metavar"] = f.metavar
        parser.add_argument(f.flag, required=f.name in required, **kwargs)
