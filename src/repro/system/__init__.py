"""System layer: collective algorithms, scheduling, and compute modeling.

This layer sits between the workload's execution traces and the network
backend (paper Fig. 1c).  It decomposes collectives into per-dimension
phases (multi-rail hierarchical algorithm, Sec. II-B), splits them into
pipelined chunks, schedules the chunks over topology dimensions — either
in fixed hierarchical order or with Themis's bandwidth-balanced LP plan,
solved exactly in-repo — and costs compute nodes with a roofline model.
"""

from repro.system.phases import PhaseKind, phase_table, phase_traffic_bytes
from repro.system.scheduler import (
    BaselineScheduler,
    ChunkScheduler,
    ThemisScheduler,
    make_scheduler,
)
from repro.system.collective_op import CollectiveOperation
from repro.system.compute import RooflineCompute
from repro.system.executor import SendRecvCollectiveExecutor

__all__ = [
    "BaselineScheduler",
    "ChunkScheduler",
    "CollectiveOperation",
    "PhaseKind",
    "RooflineCompute",
    "SendRecvCollectiveExecutor",
    "ThemisScheduler",
    "make_scheduler",
    "phase_table",
    "phase_traffic_bytes",
]
