"""Memory system models (paper Sec. IV-D).

The Memory API takes a tensor's location (local vs remote), size, and the
memory-system design, and returns access time.  Provided models:

- :class:`LocalMemory` — HBM: ``latency + size / bandwidth``;
- :class:`HierarchicalRemoteMemory` — the disaggregated hierarchical pool
  of Figs. 6–7, with pipelined chunk transfers through remote-memory
  groups, out-node switches, and in-node switches;
- :class:`InSwitchCollectiveMemory` — the Fig. 8 variant where parameters
  are gathered (All-Gather) while being loaded and sharded
  (Reduce-Scatter) while being stored, inside the switches;
- :class:`ZeroInfinityMemory` — the ZeRO-Infinity baseline (Fig. 10):
  per-GPU dedicated slow paths to CPU memory / NVMe.

Models hold no per-run state and no instrumentation slots; the
execution engine records their telemetry counters and checks their
invariants where it issues each memory node.
"""

from repro.memory.api import MemoryModel, MemoryRequest
from repro.memory.local import LocalMemory
from repro.memory.remote import HierMemConfig, HierarchicalRemoteMemory
from repro.memory.inswitch import InSwitchCollectiveMemory
from repro.memory.zero_infinity import ZeroInfinityConfig, ZeroInfinityMemory

__all__ = [
    "HierMemConfig",
    "HierarchicalRemoteMemory",
    "InSwitchCollectiveMemory",
    "LocalMemory",
    "MemoryModel",
    "MemoryRequest",
    "ZeroInfinityConfig",
    "ZeroInfinityMemory",
]
