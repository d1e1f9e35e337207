"""Checkpoint/restart cost model for permanent-failure resilience.

Training jobs survive permanent NPU failures by periodically snapshotting
model state and, on failure, restarting from the last snapshot and
replaying the lost work.  This module prices that strategy analytically
so checkpoint interval can be swept against MTBF:

- **Snapshot cost**: each checkpoint writes ``snapshot_bytes`` (per NPU —
  typically the ZeRO model-state footprint from
  :func:`repro.memory.capacity.transformer_footprint`) at
  ``write_bandwidth_gbps``, stalling training for ``snapshot_ns``.
- **Restart cost** per permanent failure at time ``t``: a fixed
  ``restart_overhead_ns`` (detection, rescheduling onto a spare,
  reloading the snapshot) plus **replay** of the work done since the last
  checkpoint boundary (``t mod interval``; without checkpointing the
  whole prefix ``t`` is lost).

The classic Young/Daly optimum ``interval = sqrt(2 * snapshot * MTBF)``
falls out of this model; :func:`optimal_interval_ns` computes it for
example sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import InputError

GiB = 1 << 30

DEFAULT_WRITE_BANDWIDTH_GBPS = 25.0  # parallel FS / burst-buffer per NPU
DEFAULT_RESTART_OVERHEAD_NS = 30e9  # detect + reschedule + reload, 30 s


@dataclass(frozen=True)
class CheckpointConfig:
    """How (and whether) the job checkpoints.

    Attributes:
        interval_ns: Time between snapshots; ``None`` disables periodic
            checkpointing (a failure then loses the whole run prefix).
        snapshot_bytes: Bytes written per NPU per snapshot.
        write_bandwidth_gbps: Checkpoint-store write bandwidth per NPU,
            GB/s (numerically bytes/ns).
        restart_overhead_ns: Fixed cost of one restart (detection,
            rescheduling, snapshot reload).
    """

    interval_ns: Optional[float]
    snapshot_bytes: float = 0.0
    write_bandwidth_gbps: float = DEFAULT_WRITE_BANDWIDTH_GBPS
    restart_overhead_ns: float = DEFAULT_RESTART_OVERHEAD_NS

    def __post_init__(self) -> None:
        if self.interval_ns is not None and self.interval_ns <= 0:
            raise InputError(
                f"interval_ns must be positive, got {self.interval_ns}")
        if self.snapshot_bytes < 0:
            raise InputError(
                f"snapshot_bytes must be >= 0, got {self.snapshot_bytes}")
        if self.write_bandwidth_gbps <= 0:
            raise InputError(
                f"write_bandwidth_gbps must be positive, "
                f"got {self.write_bandwidth_gbps}")
        if self.restart_overhead_ns < 0:
            raise InputError(
                f"restart_overhead_ns must be >= 0, "
                f"got {self.restart_overhead_ns}")

    @property
    def snapshot_ns(self) -> float:
        """Stall time of one snapshot write."""
        return self.snapshot_bytes / self.write_bandwidth_gbps

    @classmethod
    def from_footprint(
        cls,
        footprint,
        interval_ns: Optional[float],
        write_bandwidth_gbps: float = DEFAULT_WRITE_BANDWIDTH_GBPS,
        restart_overhead_ns: float = DEFAULT_RESTART_OVERHEAD_NS,
    ) -> "CheckpointConfig":
        """Price snapshots from a per-NPU memory footprint.

        ``footprint`` is a :class:`repro.memory.capacity.MemoryFootprint`;
        a checkpoint persists its *model state* (parameters + optimizer;
        activations are recomputed on replay).
        """
        return cls(interval_ns=interval_ns,
                   snapshot_bytes=float(footprint.model_state),
                   write_bandwidth_gbps=write_bandwidth_gbps,
                   restart_overhead_ns=restart_overhead_ns)


def num_checkpoints(config: CheckpointConfig, total_ns: float) -> int:
    """Snapshots taken during ``total_ns`` of useful simulated time."""
    if config.interval_ns is None or total_ns <= 0:
        return 0
    return int(total_ns // config.interval_ns)


def checkpoint_overhead_ns(config: CheckpointConfig, total_ns: float) -> float:
    """Total stall time spent writing snapshots over the run."""
    return num_checkpoints(config, total_ns) * config.snapshot_ns


def restart_cost_ns(config: Optional[CheckpointConfig], fail_time_ns: float) -> float:
    """Time one permanent failure at ``fail_time_ns`` costs the job.

    Replay-from-last-checkpoint plus the fixed restart overhead.  With no
    checkpoint config (or no interval) the whole prefix is replayed and
    the default restart overhead applies.
    """
    if fail_time_ns < 0:
        raise ValueError(f"fail_time_ns must be >= 0, got {fail_time_ns}")
    if config is None:
        return DEFAULT_RESTART_OVERHEAD_NS + fail_time_ns
    if config.interval_ns is None:
        return config.restart_overhead_ns + fail_time_ns
    replay = math.fmod(fail_time_ns, config.interval_ns)
    return config.restart_overhead_ns + config.snapshot_ns + replay


def resilience_overheads(
    config: Optional[CheckpointConfig],
    total_ns: float,
    failure_times_ns: Sequence[float],
) -> Tuple[int, float, float]:
    """(num_checkpoints, checkpoint_overhead_ns, restart_lost_ns)."""
    if config is None:
        ckpts, ckpt_ns = 0, 0.0
    else:
        ckpts = num_checkpoints(config, total_ns)
        ckpt_ns = checkpoint_overhead_ns(config, total_ns)
    restart_ns = sum(restart_cost_ns(config, t) for t in failure_times_ns)
    return ckpts, ckpt_ns, restart_ns


def optimal_interval_ns(snapshot_ns: float, mtbf_ns: float) -> float:
    """Young's approximation of the optimal checkpoint interval."""
    if snapshot_ns < 0 or mtbf_ns <= 0:
        raise ValueError("snapshot_ns must be >= 0 and mtbf_ns positive")
    return math.sqrt(2.0 * snapshot_ns * mtbf_ns)
