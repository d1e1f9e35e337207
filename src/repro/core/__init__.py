"""Core: the graph-based execution engine and top-level simulator.

:class:`Simulator` wires the layers together — execution traces
(workload), collective scheduling and compute (system), the analytical
network backend, and the memory models — and runs the discrete-event
simulation to produce a :class:`RunResult` with total time and exposed-time
breakdowns (paper Fig. 1).
"""

from repro.core.config import SystemConfig
from repro.core.engine import DeadlockError, ExecutionEngine
from repro.core.results import CollectiveRecord, RunResult
from repro.core.simulator import Simulator, simulate
from repro.network.topology import CollectiveGroupError

__all__ = [
    "CollectiveGroupError",
    "CollectiveRecord",
    "DeadlockError",
    "ExecutionEngine",
    "RunResult",
    "Simulator",
    "SystemConfig",
    "simulate",
]
