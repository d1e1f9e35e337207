"""Fault taxonomy, spec-string parser, and seeded schedule generator.

A :class:`FaultSpec` describes one deterministic fault — *what* breaks,
*when*, for *how long*, and *how badly*.  A :class:`FaultSchedule` is an
ordered, immutable collection of them, either hand-written (parsed from
spec strings) or drawn from a seeded random process so fault studies are
reproducible run-to-run.

Spec-string grammar (``@``-separated segments)::

    <kind>@<target>[:<param>]@t=<time>[@for=<duration>]

    straggler@npu3:1.5x@t=2ms            # NPU 3 runs 1.5x slower from 2 ms
    straggler@npu3:1.5x@t=2ms@for=4ms    # ...and recovers at 6 ms
    stall@npu7@t=1ms@for=500us           # NPU 7 frozen for 500 us
    degrade@dim1:0.5x@t=0                # dim 1 bandwidth halved
    linkdown@dim1:link4@t=5ms            # NPU 4's dim-1 link fails
    fail@npu12@t=8ms                     # permanent failure -> restart

Times accept ``ns``/``us``/``ms``/``s`` suffixes (bare numbers are ns).
Factor semantics differ by kind and are validated at construction:
*straggler* factors are slowdowns (>= 1, "1.5x slower"); *degrade* and
*linkdown* factors are the **remaining** bandwidth fraction (0 < f <= 1).
Multiple specs join with ``;``.
"""

from __future__ import annotations

import enum
import random
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.errors import InputError


class FaultSpecError(InputError):
    """Raised for malformed fault spec strings or invalid field values."""


class FaultKind(enum.Enum):
    """What breaks."""

    STRAGGLER = "straggler"  # one NPU's compute and sends run factor-x slower
    STALL = "stall"  # one NPU frozen (no compute progress) for a duration
    DEGRADE = "degrade"  # a whole dimension's bandwidth scaled by factor
    LINK_DOWN = "linkdown"  # one NPU's egress link into a dimension fails
    NPU_FAIL = "fail"  # permanent loss -> checkpoint restart + replay


#: Remaining-bandwidth fraction a failed link retains.  A dead link on a
#: bidirectional building block forces traffic onto the surviving
#: direction / rerouted path, so the member injects at half rate; an
#: explicit factor in the spec string overrides this.
LINK_DOWN_DEFAULT_FACTOR = 0.5

_TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

_TIME_RE = re.compile(r"^([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)(ns|us|ms|s)?$")


def parse_time_ns(text: str) -> float:
    """``"2ms"`` -> 2e6; bare numbers are nanoseconds."""
    match = _TIME_RE.match(text.strip())
    if not match:
        raise FaultSpecError(f"bad time {text!r} (expected e.g. '2ms', '500us')")
    value, unit = match.groups()
    return float(value) * _TIME_UNITS[unit or "ns"]


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, onset time, optional duration, target, severity.

    Attributes:
        kind: Fault type (see :class:`FaultKind`).
        start_ns: Activation time.
        duration_ns: Active window; ``None`` means until the end of the
            run (always ``None`` for permanent ``NPU_FAIL``; required for
            ``STALL``).
        npu: Target NPU id (straggler / stall / fail; also the link owner
            for ``LINK_DOWN``).
        dim: Target topology dimension (degrade / linkdown).
        factor: Severity.  Slowdown multiplier >= 1 for stragglers;
            remaining-bandwidth fraction in (0, 1] for degrade/linkdown;
            unused (1.0) for stall/fail.
    """

    kind: FaultKind
    start_ns: float
    duration_ns: Optional[float] = None
    npu: Optional[int] = None
    dim: Optional[int] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        # Coerce to builtin floats so describe()'s repr-based canonical
        # form stays clean when callers pass numpy scalars.
        object.__setattr__(self, "start_ns", float(self.start_ns))
        if self.duration_ns is not None:
            object.__setattr__(self, "duration_ns", float(self.duration_ns))
        object.__setattr__(self, "factor", float(self.factor))
        if self.start_ns < 0:
            raise FaultSpecError(f"fault start must be >= 0, got {self.start_ns}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise FaultSpecError(
                f"fault duration must be positive, got {self.duration_ns}")
        kind = self.kind
        if kind in (FaultKind.STRAGGLER, FaultKind.STALL, FaultKind.NPU_FAIL):
            if self.npu is None or self.npu < 0:
                raise FaultSpecError(f"{kind.value} fault needs a target npu")
        if kind in (FaultKind.DEGRADE, FaultKind.LINK_DOWN):
            if self.dim is None or self.dim < 0:
                raise FaultSpecError(f"{kind.value} fault needs a target dim")
        if kind is FaultKind.LINK_DOWN and (self.npu is None or self.npu < 0):
            raise FaultSpecError("linkdown fault needs a link (owning npu) index")
        if kind is FaultKind.STRAGGLER and self.factor < 1.0:
            raise FaultSpecError(
                f"straggler factor is a slowdown (>= 1), got {self.factor}")
        if kind in (FaultKind.DEGRADE, FaultKind.LINK_DOWN) and not (
                0.0 < self.factor <= 1.0):
            raise FaultSpecError(
                f"{kind.value} factor is a remaining-bandwidth fraction in "
                f"(0, 1], got {self.factor}")
        if kind is FaultKind.STALL and self.duration_ns is None:
            raise FaultSpecError("stall fault needs a duration (@for=...)")
        if kind is FaultKind.NPU_FAIL and self.duration_ns is not None:
            raise FaultSpecError("fail is permanent; it cannot take @for=...")

    @property
    def end_ns(self) -> float:
        """Clearing time; ``inf`` for open-ended / permanent faults."""
        if self.duration_ns is None:
            return float("inf")
        return self.start_ns + self.duration_ns

    def describe(self) -> str:
        """Canonical spec-string form (parses back to an equal spec).

        Values print via :func:`repr`, the shortest digit string that
        round-trips the exact float — ``%g``-style formatting would
        silently truncate to 6 significant digits.
        """
        kind = self.kind
        if kind is FaultKind.STRAGGLER:
            target = f"npu{self.npu}:{self.factor!r}x"
        elif kind is FaultKind.STALL or kind is FaultKind.NPU_FAIL:
            target = f"npu{self.npu}"
        elif kind is FaultKind.LINK_DOWN:
            target = f"dim{self.dim}:link{self.npu}"
            if self.factor != LINK_DOWN_DEFAULT_FACTOR:
                target += f":{self.factor!r}x"
        else:  # DEGRADE
            target = f"dim{self.dim}:{self.factor!r}x"
        text = f"{kind.value}@{target}@t={self.start_ns!r}ns"
        if self.duration_ns is not None and kind is not FaultKind.NPU_FAIL:
            text += f"@for={self.duration_ns!r}ns"
        return text

    def __str__(self) -> str:
        return self.describe()


_FACTOR_RE = re.compile(r"^([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)x$")


def _parse_factor(token: str, context: str) -> float:
    match = _FACTOR_RE.match(token)
    if not match:
        raise FaultSpecError(f"bad factor {token!r} in {context!r} "
                             "(expected e.g. '1.5x')")
    return float(match.group(1))


def _parse_index(token: str, prefix: str, context: str) -> int:
    if not token.startswith(prefix) or not token[len(prefix):].isdigit():
        raise FaultSpecError(
            f"bad target {token!r} in {context!r} (expected '{prefix}<N>')")
    return int(token[len(prefix):])


def parse_fault(text: str) -> FaultSpec:
    """Parse one spec string (grammar in the module docstring)."""
    raw = text.strip()
    segments = [s.strip() for s in raw.split("@") if s.strip()]
    if len(segments) < 3:
        raise FaultSpecError(
            f"bad fault spec {raw!r}: expected kind@target@t=<time>")
    kind_token, target = segments[0], segments[1]
    try:
        kind = FaultKind(kind_token.lower())
    except ValueError:
        valid = ", ".join(k.value for k in FaultKind)
        raise FaultSpecError(
            f"unknown fault kind {kind_token!r} in {raw!r} (one of: {valid})")

    start_ns: Optional[float] = None
    duration_ns: Optional[float] = None
    for segment in segments[2:]:
        if segment.startswith("t="):
            start_ns = parse_time_ns(segment[2:])
        elif segment.startswith("for="):
            duration_ns = parse_time_ns(segment[4:])
        else:
            raise FaultSpecError(
                f"bad clause {segment!r} in {raw!r} "
                "(expected 't=<time>' or 'for=<duration>')")
    if start_ns is None:
        raise FaultSpecError(f"fault spec {raw!r} is missing its 't=<time>'")

    npu: Optional[int] = None
    dim: Optional[int] = None
    factor = 1.0
    parts = target.split(":")
    if kind is FaultKind.STRAGGLER:
        if len(parts) != 2:
            raise FaultSpecError(
                f"straggler target must be 'npu<N>:<F>x', got {target!r}")
        npu = _parse_index(parts[0], "npu", raw)
        factor = _parse_factor(parts[1], raw)
    elif kind in (FaultKind.STALL, FaultKind.NPU_FAIL):
        if len(parts) != 1:
            raise FaultSpecError(
                f"{kind.value} target must be 'npu<N>', got {target!r}")
        npu = _parse_index(parts[0], "npu", raw)
    elif kind is FaultKind.DEGRADE:
        if len(parts) != 2:
            raise FaultSpecError(
                f"degrade target must be 'dim<D>:<F>x', got {target!r}")
        dim = _parse_index(parts[0], "dim", raw)
        factor = _parse_factor(parts[1], raw)
    else:  # LINK_DOWN
        if len(parts) not in (2, 3):
            raise FaultSpecError(
                f"linkdown target must be 'dim<D>:link<L>[:<F>x]', got {target!r}")
        dim = _parse_index(parts[0], "dim", raw)
        npu = _parse_index(parts[1], "link", raw)
        factor = (_parse_factor(parts[2], raw) if len(parts) == 3
                  else LINK_DOWN_DEFAULT_FACTOR)

    return FaultSpec(kind=kind, start_ns=start_ns, duration_ns=duration_ns,
                     npu=npu, dim=dim, factor=factor)


def parse_faults(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``;``-separated list of fault specs."""
    return tuple(parse_fault(part) for part in text.split(";") if part.strip())


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered set of faults to inject into one run.

    Truthiness reflects content: an empty schedule is falsy, and the
    simulator treats it exactly like no schedule at all (the hooks stay
    unreachable, so results are bit-identical to a fault-free build).
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None  # provenance when generated; informational

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults",
                           tuple(sorted(self.faults, key=lambda f: f.start_ns)))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def describe(self) -> str:
        return ";".join(f.describe() for f in self.faults)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        return cls(parse_faults(text))

    @classmethod
    def merge(cls, schedules: Iterable["FaultSchedule"]) -> "FaultSchedule":
        faults: Tuple[FaultSpec, ...] = ()
        seed = None
        for schedule in schedules:
            faults += schedule.faults
            seed = schedule.seed if schedule.seed is not None else seed
        return cls(faults, seed=seed)

    @classmethod
    def generate(
        cls,
        seed: int,
        num_npus: int,
        num_dims: int,
        horizon_ns: float,
        straggler_mtbf_ns: Optional[float] = None,
        stall_mtbf_ns: Optional[float] = None,
        degrade_mtbf_ns: Optional[float] = None,
        linkdown_mtbf_ns: Optional[float] = None,
        fail_mtbf_ns: Optional[float] = None,
        straggler_factor: Tuple[float, float] = (1.2, 2.0),
        straggler_duration_ns: Tuple[float, float] = (1e6, 10e6),
        stall_duration_ns: Tuple[float, float] = (0.1e6, 2e6),
        degrade_factor: Tuple[float, float] = (0.3, 0.9),
        degrade_duration_ns: Tuple[float, float] = (1e6, 10e6),
    ) -> "FaultSchedule":
        """Draw a schedule from seeded Poisson fault processes.

        Each ``*_mtbf_ns`` is a **fleet-level** mean time between faults
        of that kind (exponential inter-arrival times over ``horizon_ns``);
        ``None`` disables the kind.  The same seed and arguments always
        produce the same schedule — Python's :class:`random.Random` is
        stable across runs and versions.
        """
        if num_npus < 1:
            raise FaultSpecError(f"num_npus must be >= 1, got {num_npus}")
        if num_dims < 1:
            raise FaultSpecError(f"num_dims must be >= 1, got {num_dims}")
        if horizon_ns <= 0:
            raise FaultSpecError(f"horizon_ns must be positive, got {horizon_ns}")
        rng = random.Random(seed)
        faults = []

        def arrivals(mtbf: Optional[float]):
            times = []
            if mtbf is None:
                return times
            if mtbf <= 0:
                raise FaultSpecError(f"MTBF must be positive, got {mtbf}")
            t = rng.expovariate(1.0 / mtbf)
            while t < horizon_ns:
                times.append(t)
                t += rng.expovariate(1.0 / mtbf)
            return times

        for t in arrivals(straggler_mtbf_ns):
            faults.append(FaultSpec(
                kind=FaultKind.STRAGGLER, start_ns=t,
                duration_ns=rng.uniform(*straggler_duration_ns),
                npu=rng.randrange(num_npus),
                factor=rng.uniform(*straggler_factor)))
        for t in arrivals(stall_mtbf_ns):
            faults.append(FaultSpec(
                kind=FaultKind.STALL, start_ns=t,
                duration_ns=rng.uniform(*stall_duration_ns),
                npu=rng.randrange(num_npus)))
        for t in arrivals(degrade_mtbf_ns):
            faults.append(FaultSpec(
                kind=FaultKind.DEGRADE, start_ns=t,
                duration_ns=rng.uniform(*degrade_duration_ns),
                dim=rng.randrange(num_dims),
                factor=rng.uniform(*degrade_factor)))
        for t in arrivals(linkdown_mtbf_ns):
            faults.append(FaultSpec(
                kind=FaultKind.LINK_DOWN, start_ns=t,
                duration_ns=rng.uniform(*degrade_duration_ns),
                dim=rng.randrange(num_dims), npu=rng.randrange(num_npus),
                factor=LINK_DOWN_DEFAULT_FACTOR))
        for t in arrivals(fail_mtbf_ns):
            faults.append(FaultSpec(
                kind=FaultKind.NPU_FAIL, start_ns=t,
                npu=rng.randrange(num_npus)))
        return cls(tuple(faults), seed=seed)
