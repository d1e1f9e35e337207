"""Real-model frontend: ingest model specs into simulator-ready traces.

The pipeline (paper-aligned ModTrans-style ingestion)::

    HF config.json ──┐
    opgraph JSON ────┼──> OpGraph IR ──> planner ──> {npu: ExecutionTrace}
    zoo entry ───────┘    (analytic      (TP/PP/DP/EP
                           costing)       annotation)

Entry points:

- :func:`ingest` — one-call path from any spec source to an op graph;
- :func:`repro.frontend.planner.plan` — op graph + topology + degrees →
  per-NPU execution traces runnable on every network backend;
- :mod:`repro.frontend.zoo` — registered models built through the same
  parsers as user-supplied specs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.frontend.hf_config import (
    DECODER_MODEL_TYPES,
    IngestOptions,
    build_op_graph,
    default_options_for,
    detect_family,
    load_config,
)
from repro.frontend.ir import (
    FrontendError,
    OpGraph,
    OpGraphBuilder,
    OpKind,
    OpNode,
)
from repro.frontend.opgraph_json import (
    OPGRAPH_FORMAT,
    loads_opgraph,
    opgraph_from_dict,
    parse_opgraph,
    save_opgraph,
    to_opgraph_json,
)
from repro.frontend.planner import (
    Plan,
    PlanConfig,
    plan,
    resolve_parallelism,
)
from repro.frontend.zoo import (
    ZooEntry,
    zoo_entries,
    zoo_entry,
    zoo_graph,
    zoo_names,
)

__all__ = [
    "DECODER_MODEL_TYPES",
    "FrontendError",
    "IngestOptions",
    "OPGRAPH_FORMAT",
    "OpGraph",
    "OpGraphBuilder",
    "OpKind",
    "OpNode",
    "Plan",
    "PlanConfig",
    "ZooEntry",
    "build_op_graph",
    "default_options_for",
    "detect_family",
    "ingest",
    "load_config",
    "loads_opgraph",
    "opgraph_from_dict",
    "parse_opgraph",
    "plan",
    "resolve_parallelism",
    "save_opgraph",
    "to_opgraph_json",
    "zoo_entries",
    "zoo_entry",
    "zoo_graph",
    "zoo_names",
]


def ingest(
    source: Union[str, Path, Dict[str, Any]],
    options: Optional[IngestOptions] = None,
) -> OpGraph:
    """Ingest any supported model spec into an :class:`OpGraph`.

    Dispatches on shape: zoo names, ``repro-opgraph`` documents, and
    HF-style config dicts / JSON strings / file paths all land here.
    """
    from repro.frontend.zoo import _BY_NAME

    if isinstance(source, str) and source in _BY_NAME:
        return zoo_graph(source, options)
    if isinstance(source, dict):
        payload: Optional[Dict[str, Any]] = source
    else:
        payload = load_config(source)
    if payload.get("format") == OPGRAPH_FORMAT:
        return opgraph_from_dict(payload)
    opts = options or default_options_for(payload)
    return build_op_graph(payload, opts)
