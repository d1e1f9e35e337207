"""repro — a Python reproduction of ASTRA-sim 2.0 (ISPASS 2023).

A discrete-event simulator for distributed DNN training platforms with:

- a graph-based execution engine over Chakra-style execution traces
  (arbitrary parallelism: DP / MP / PP / hybrid / expert);
- a multi-dimensional hierarchical network taxonomy
  (``Ring(4)_FC(2)_Switch(8)``) with an analytical backend and a
  packet-level Garnet-lite backend;
- collective scheduling (baseline hierarchical and Themis greedy);
- memory models: local HBM, disaggregated hierarchical pools, in-switch
  collectives, and a ZeRO-Infinity baseline.

Quickstart::

    import repro

    topo = repro.parse_topology("Ring(4)_Switch(2)", [200, 50])
    traces = repro.generate_single_collective(
        topo, repro.CollectiveType.ALL_REDUCE, payload_bytes=1 << 30)
    result = repro.simulate(traces, repro.SystemConfig(topology=topo))
    print(f"All-Reduce took {result.total_time_us:.1f} us")
"""

import importlib
import sys


def _lazy_exports(package, table):
    """Resolve a package's re-exports on first access (PEP 562).

    ``table`` maps each module to the space-separated public names the
    package re-exports from it.  Returns ``(names, __getattr__,
    __dir__)``: the sorted names for ``__all__``, and module hooks that
    import a name's module the first time the name is looked up and
    cache the value in the package namespace.  ``package.X``, ``from
    package import X`` and ``import *`` work as with eager imports, but
    importing the package itself loads none of those modules.
    """
    exports = {name: module for module, names in table.items()
               for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return sorted(exports), __getattr__, __dir__


_names, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core": "CollectiveRecord DeadlockError ExecutionEngine RunResult "
                  "Simulator SystemConfig simulate",
    "repro.errors": "InputError",
    "repro.events": "EventEngine",
    "repro.faults": "CheckpointConfig FaultKind FaultSchedule FaultSpec "
                    "parse_faults",
    "repro.memory": "HierMemConfig HierarchicalRemoteMemory "
                    "InSwitchCollectiveMemory LocalMemory MemoryRequest "
                    "ZeroInfinityConfig ZeroInfinityMemory",
    "repro.network": "AnalyticalNetwork BuildingBlock DimSpec "
                     "FlowLevelNetwork GarnetLiteNetwork MultiDimTopology "
                     "TopologyError parse_topology",
    "repro.stats": "Activity Breakdown ResilienceReport "
                   "format_breakdown_table format_table",
    "repro.system": "RooflineCompute SendRecvCollectiveExecutor "
                    "make_scheduler",
    "repro.telemetry": "Telemetry TelemetryConfig TelemetryError "
                       "TelemetryReport TraceLevel",
    "repro.trace": "CollectiveType ETNode ExecutionTrace NodeType "
                   "TensorLocation load_trace save_trace",
    "repro.validate": "InvariantChecker InvariantConfig InvariantError "
                      "InvariantReport InvariantViolation SuiteReport "
                      "run_conformance_suite run_metamorphic_suite",
    "repro.workload": "ParallelismSpec dlrm_paper generate_data_parallel "
                      "generate_dlrm generate_fsdp generate_megatron_hybrid "
                      "generate_moe generate_pipeline_parallel "
                      "generate_single_collective gpt3_175b moe_1t "
                      "transformer_1t",
})

__version__ = "2.0.0"

__all__ = [*_names, "__version__"]
del _names
