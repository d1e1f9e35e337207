"""Operator-graph JSON ingestion (ONNX / torch.fx-shaped graphs).

For models that are not HF-config-shaped, the frontend accepts an
explicit operator list — the flat node-and-edges form that ``torch.fx``
tracing or an ONNX graph walk naturally produces::

    {
      "format": "repro-opgraph",
      "version": 1,
      "name": "two-layer-mlp",
      "dtype_bytes": 2,
      "ops": [
        {"id": 0, "kind": "matmul", "name": "fc1",
         "m": 4096, "k": 1024, "n": 4096, "tp": "col", "layer": 0},
        {"id": 1, "kind": "elementwise", "name": "gelu", "deps": [0],
         "elements": 16777216, "layer": 0},
        {"id": 2, "kind": "matmul", "name": "fc2", "deps": [1],
         "m": 4096, "k": 4096, "n": 1024, "tp": "row", "layer": 0}
      ]
    }

Each op either carries *shapes* (``m/k/n`` for matmuls,
``batch/seq/hidden`` for attention, ``batch/c_in/c_out/kernel/h/w`` for
convolutions, ``elements`` for elementwise/norm, ``rows/dim/tokens`` for
embeddings) — from which FLOPs, parameter bytes, and activation bytes
are derived analytically — or explicit ``flops`` / ``param_bytes`` /
``output_bytes`` overrides for pre-costed graphs.

:func:`to_opgraph_json` writes the same format back out, so any ingested
model (HF configs and the zoo included) round-trips through this schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.errors import strict_int
from repro.frontend.ir import (
    FrontendError,
    OpGraph,
    OpKind,
    OpNode,
    attention_flops,
    conv2d_flops,
    matmul_flops,
)

OPGRAPH_FORMAT = "repro-opgraph"
OPGRAPH_VERSION = 1


def _int_field(raw: Dict[str, Any], op_id: Any, name: str,
               default: Any = None) -> int:
    if name not in raw:
        if default is None:
            raise FrontendError(
                f"op {op_id}: kind {raw.get('kind')!r} needs field {name!r}")
        return default
    return strict_int(raw[name], f"op {op_id}: field {name!r}", FrontendError)


def _op_from_dict(raw: Dict[str, Any], dtype_bytes: int) -> OpNode:
    if not isinstance(raw, dict):
        raise FrontendError(
            f"ops entries must be objects, got {type(raw).__name__}")
    if "id" not in raw:
        raise FrontendError(f"op entry is missing 'id': {raw!r}")
    op_id = raw["id"]
    try:
        kind = OpKind(str(raw.get("kind", "")))
    except ValueError:
        raise FrontendError(
            f"op {op_id}: unknown kind {raw.get('kind')!r}; expected one "
            f"of {[k.value for k in OpKind]}") from None
    dt = _int_field(raw, op_id, "dtype_bytes", dtype_bytes)

    flops = param_bytes = output_bytes = input_bytes = 0
    if kind is OpKind.MATMUL and "m" in raw:
        m = _int_field(raw, op_id, "m")
        k = _int_field(raw, op_id, "k")
        n = _int_field(raw, op_id, "n")
        flops = matmul_flops(m, k, n)
        param_bytes = k * n * dt
        output_bytes = m * n * dt
        input_bytes = m * k * dt
    elif kind is OpKind.ATTENTION and "seq" in raw:
        batch = _int_field(raw, op_id, "batch", 1)
        seq = _int_field(raw, op_id, "seq")
        hidden = _int_field(raw, op_id, "hidden")
        flops = attention_flops(batch, seq, hidden)
        output_bytes = input_bytes = batch * seq * hidden * dt
    elif kind is OpKind.CONV and "c_in" in raw:
        batch = _int_field(raw, op_id, "batch", 1)
        c_in = _int_field(raw, op_id, "c_in")
        c_out = _int_field(raw, op_id, "c_out")
        kernel = _int_field(raw, op_id, "kernel", 3)
        h = _int_field(raw, op_id, "h")
        w = _int_field(raw, op_id, "w", h)
        flops = conv2d_flops(batch, c_in, c_out, kernel, h, w)
        param_bytes = c_in * c_out * kernel * kernel * dt
        output_bytes = batch * c_out * h * w * dt
        input_bytes = batch * c_in * h * w * dt
    elif kind in (OpKind.ELEMENTWISE, OpKind.NORM) and "elements" in raw:
        elements = _int_field(raw, op_id, "elements")
        flops = (5 if kind is OpKind.NORM else 1) * elements
        output_bytes = input_bytes = elements * dt
    elif kind is OpKind.EMBEDDING and "rows" in raw:
        rows = _int_field(raw, op_id, "rows")
        dim = _int_field(raw, op_id, "dim")
        tokens = _int_field(raw, op_id, "tokens", 1)
        flops = tokens * dim
        param_bytes = rows * dim * dt
        output_bytes = tokens * dim * dt
        input_bytes = tokens * 8

    # Explicit overrides win over (or substitute for) shape derivation.
    flops = _int_field(raw, op_id, "flops", flops)
    param_bytes = _int_field(raw, op_id, "param_bytes", param_bytes)
    output_bytes = _int_field(raw, op_id, "output_bytes", output_bytes)
    input_bytes = _int_field(raw, op_id, "input_bytes", input_bytes)
    if flops == 0 and output_bytes == 0 and param_bytes == 0:
        raise FrontendError(
            f"op {op_id}: no cost derivable — give shape fields for kind "
            f"{kind.value!r} or explicit flops/output_bytes")

    deps, attrs, routed = (raw.get("deps", ()), raw.get("attrs", {}),
                           raw.get("routed", False))
    for field, value, types, what in (
            ("deps", deps, (list, tuple), "a list"),
            ("attrs", attrs, dict, "an object"),
            ("routed", routed, bool, "true or false")):
        if not isinstance(value, types):
            raise FrontendError(
                f"op {op_id}: field {field!r} must be {what}, got {value!r}")
    return OpNode(
        op_id=_int_field(raw, op_id, "id"),
        name=str(raw.get("name") or f"op{op_id}"),
        kind=kind,
        deps=tuple(strict_int(d, f"op {op_id}: field 'deps'", FrontendError)
                   for d in deps),
        flops=flops,
        param_bytes=param_bytes,
        output_bytes=output_bytes,
        input_bytes=input_bytes,
        layer=(None if raw.get("layer") is None
               else _int_field(raw, op_id, "layer")),
        tp=str(raw.get("tp", "none")),
        routed=routed,
        route_bytes=_int_field(raw, op_id, "route_bytes", 0),
        attrs=dict(attrs),
    )


def loads_opgraph(text: str) -> OpGraph:
    """Parse an operator-graph JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FrontendError(f"opgraph is not valid JSON: {exc}") from exc
    return opgraph_from_dict(payload)


def parse_opgraph(payload: Any) -> Tuple[str, List[OpNode]]:
    """A parsed opgraph document's name and ops, not yet checked as a graph."""
    if not isinstance(payload, dict):
        raise FrontendError(
            f"opgraph document must be a JSON object, got "
            f"{type(payload).__name__}")
    if payload.get("format") != OPGRAPH_FORMAT:
        raise FrontendError(
            f"not a repro opgraph (format={payload.get('format')!r}; "
            f"expected {OPGRAPH_FORMAT!r})")
    version = strict_int(payload.get("version"), "opgraph field 'version'",
                         FrontendError)
    if version != OPGRAPH_VERSION:
        raise FrontendError(f"unsupported opgraph version {version!r}")
    raw_ops = payload.get("ops", ())
    if not isinstance(raw_ops, list):
        raise FrontendError("'ops' must be a list")
    dtype_bytes = strict_int(payload.get("dtype_bytes", 2),
                             "opgraph field 'dtype_bytes'", FrontendError)
    return (str(payload.get("name", "opgraph")),
            [_op_from_dict(raw, dtype_bytes) for raw in raw_ops])


def opgraph_from_dict(payload: Any) -> OpGraph:
    """Build an :class:`OpGraph` from a parsed opgraph document."""
    return OpGraph(*parse_opgraph(payload))


def to_opgraph_json(graph: OpGraph, indent: int = 0) -> str:
    """Serialize any op graph back into the opgraph JSON format."""
    payload = {
        "format": OPGRAPH_FORMAT,
        "version": OPGRAPH_VERSION,
        "name": graph.name,
        "ops": [op.to_dict() for op in graph],
    }
    return json.dumps(payload, indent=indent or None)


def save_opgraph(graph: OpGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(to_opgraph_json(graph, indent=1))
