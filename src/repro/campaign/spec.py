"""Declarative sweep specifications: grid / zip / list grammar.

A :class:`SweepSpec` names the design space of a campaign — the same
"many cheap analytical runs" usage model behind the paper's Table V
bandwidth grid and Fig. 9(b) scaling curves — as data, not hand-rolled
loops:

- ``base``: field values shared by every point;
- ``grid``: per-field value lists, expanded as a cartesian product in
  insertion order (the *last* axis varies fastest);
- ``zip_axes``: equal-length value lists that vary *together* (e.g. a
  topology string with its matching bandwidth list); the zipped rows
  form the outermost loop around the grid;
- ``points``: an explicit list of field dicts, for irregular spaces the
  grid/zip grammar cannot express (mutually exclusive with grid/zip).

Expansion is deterministic: the same spec always yields the same ordered
list of fully-resolved point dicts, which is what lets the campaign
runner merge parallel results back in spec order and lets the run cache
key points by their canonical JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InputError


class SweepSpecError(InputError):
    """A malformed sweep specification."""


def canonical_json(value: Any) -> str:
    """Canonical JSON form: sorted keys, compact separators.

    Two points are the same configuration exactly when their canonical
    JSON strings match — the form the run cache hashes and the
    determinism tests compare byte-for-byte.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SweepSpecError(
            f"sweep values must be JSON-serializable: {exc}") from exc


def _check_axes(kind: str, axes: Mapping[str, Sequence[Any]]) -> None:
    if not isinstance(axes, Mapping):
        raise SweepSpecError(f"{kind} must map field names to value lists, "
                             f"got {type(axes).__name__}")
    for field, values in axes.items():
        if not isinstance(field, str) or not field:
            raise SweepSpecError(f"{kind} field names must be non-empty "
                                 f"strings, got {field!r}")
        if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)):
            raise SweepSpecError(
                f"{kind} axis {field!r} must be a list/tuple of values, "
                f"got {type(values).__name__}")
        if not values:
            raise SweepSpecError(f"{kind} axis {field!r} is empty")


class SweepSpec:
    """One campaign's design space over run-config fields."""

    def __init__(
        self,
        base: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        zip_axes: Optional[Mapping[str, Sequence[Any]]] = None,
        points: Optional[Iterable[Mapping[str, Any]]] = None,
    ) -> None:
        self.base: Dict[str, Any] = dict(base or {})
        # Validate the raw axes before list() coercion: a string value
        # would otherwise silently explode into its characters.
        _check_axes("grid", grid or {})
        _check_axes("zip", zip_axes or {})
        self.grid: Dict[str, List[Any]] = {
            k: list(v) for k, v in (grid or {}).items()}
        self.zip_axes: Dict[str, List[Any]] = {
            k: list(v) for k, v in (zip_axes or {}).items()}
        self.points: List[Dict[str, Any]] = [dict(p) for p in (points or [])]
        if self.points and (self.grid or self.zip_axes):
            raise SweepSpecError(
                "explicit points and grid/zip axes are mutually exclusive; "
                "fold the axes into the point list or drop the points")
        overlap = set(self.grid) & set(self.zip_axes)
        if overlap:
            raise SweepSpecError(
                f"fields appear in both grid and zip: {sorted(overlap)}")
        lengths = {len(v) for v in self.zip_axes.values()}
        if len(lengths) > 1:
            raise SweepSpecError(
                "zip axes must all have the same length, got "
                + ", ".join(f"{k}={len(v)}"
                            for k, v in sorted(self.zip_axes.items())))

    # -- expansion ---------------------------------------------------------------

    def __len__(self) -> int:
        if self.points:
            return len(self.points)
        n = next(iter(len(v) for v in self.zip_axes.values()), 1)
        for values in self.grid.values():
            n *= len(values)
        return n

    def expand(self) -> List[Dict[str, Any]]:
        """The ordered list of fully-resolved point dicts."""
        if self.points:
            return [{**self.base, **p} for p in self.points]
        rows: List[Dict[str, Any]] = [{}]
        if self.zip_axes:
            length = len(next(iter(self.zip_axes.values())))
            rows = [
                {field: values[i] for field, values in self.zip_axes.items()}
                for i in range(length)
            ]
        expanded = rows
        for field, values in self.grid.items():
            expanded = [
                {**point, field: value}
                for point in expanded
                for value in values
            ]
        return [{**self.base, **p} for p in expanded]

    def varying_fields(self) -> List[str]:
        """Fields whose value differs between at least two points."""
        points = self.expand()
        fields: List[str] = []
        seen: set = set()
        for point in points:
            for field in point:
                if field not in seen:
                    seen.add(field)
                    fields.append(field)
        varying = []
        for field in fields:
            values = {canonical_json(p.get(field)) for p in points}
            if len(values) > 1:
                varying.append(field)
        return varying

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"base": dict(self.base)}
        if self.grid:
            doc["grid"] = {k: list(v) for k, v in self.grid.items()}
        if self.zip_axes:
            doc["zip"] = {k: list(v) for k, v in self.zip_axes.items()}
        if self.points:
            doc["points"] = [dict(p) for p in self.points]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SweepSpec":
        if not isinstance(doc, Mapping):
            raise SweepSpecError(
                f"a sweep spec must be an object, got {type(doc).__name__}")
        unknown = sorted(map(str, set(doc) - {"base", "grid", "zip", "points"}))
        if unknown:
            raise SweepSpecError(
                f"unknown sweep spec key(s) {', '.join(unknown)}; "
                "valid keys: base, grid, zip, points")
        base, points = doc.get("base") or {}, doc.get("points") or []
        if not isinstance(base, Mapping) or not isinstance(points, list) \
                or not all(isinstance(p, Mapping) for p in points):
            raise SweepSpecError(
                "a sweep spec's 'base' must be an object and its 'points' "
                "a list of objects")
        return cls(base=base, grid=doc.get("grid"),
                   zip_axes=doc.get("zip"), points=points)

    # -- CLI text grammar --------------------------------------------------------

    @staticmethod
    def parse_axis(text: str) -> Tuple[str, List[str]]:
        """Parse one ``field=v1|v2|v3`` axis from the CLI.

        ``|`` separates values (commas stay available for in-value lists
        like ``--grid "bandwidths=100,25|600"``).  Values are returned as
        strings; the executor applies the same type conversions as the
        ``run`` subcommand's flags.
        """
        field, sep, values_text = text.partition("=")
        field = field.strip().replace("-", "_")
        if not sep or not field:
            raise SweepSpecError(
                f"axis {text!r} is not of the form field=v1|v2|...")
        values = [v.strip() for v in values_text.split("|")]
        if not values or any(v == "" for v in values):
            raise SweepSpecError(f"axis {text!r} has an empty value")
        return field, values

    @classmethod
    def from_cli(
        cls,
        base: Mapping[str, Any],
        grid_texts: Sequence[str] = (),
        zip_texts: Sequence[str] = (),
    ) -> "SweepSpec":
        """Build a spec from repeated ``--grid`` / ``--zip`` flag values."""
        grid: Dict[str, List[str]] = {}
        for text in grid_texts:
            field, values = cls.parse_axis(text)
            if field in grid:
                raise SweepSpecError(f"duplicate grid axis {field!r}")
            grid[field] = values
        zip_axes: Dict[str, List[str]] = {}
        for text in zip_texts:
            field, values = cls.parse_axis(text)
            if field in zip_axes:
                raise SweepSpecError(f"duplicate zip axis {field!r}")
            zip_axes[field] = values
        return cls(base=base, grid=grid, zip_axes=zip_axes)
