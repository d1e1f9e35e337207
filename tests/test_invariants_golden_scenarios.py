"""Satellite: the paper's golden scenarios re-run with invariants on.

Two properties per scenario family (Table IV, Fig. 4, Table V):

1. the runs are *invariant-clean* — zero violations on the exact
   configurations the golden suite pins; and
2. the checker is *observation-only* — enabling it does not move
   simulated time by a single ULP relative to the frozen goldens.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.configs import conv_4d_scaled
from repro.configs.table5 import (
    hiermem_baseline,
    hiermem_opt,
    zero_infinity_table5,
)
from repro.core import Simulator, SystemConfig
from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.system import SendRecvCollectiveExecutor
from repro.trace import ETNode, ExecutionTrace, NodeType, TensorLocation
from repro.validate import InvariantChecker, InvariantConfig
from repro.workload.generators import generate_single_collective

MiB = 1 << 20
GiB = 1 << 30
GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())["values"]


class TestTable4Checked:
    # One narrow and one wide shape keep the runtime tier-1 friendly
    # while covering both ends of the last-dim scaling axis.
    @pytest.mark.parametrize("shape", ["2_8_8_4", "8_8_8_4"])
    def test_shape_is_clean_and_unperturbed(self, shape):
        dim1, _, _, last = (int(p) for p in shape.split("_"))
        topology = conv_4d_scaled(last_dim=last, dim1=dim1)
        traces = generate_single_collective(
            topology, repro.CollectiveType.ALL_REDUCE, GiB)
        config = SystemConfig(
            topology=topology, scheduler="baseline", collective_chunks=64,
            invariants=InvariantConfig())
        result = repro.simulate(traces, config)
        assert result.invariants.ok, result.invariants.counts_by_name()
        golden = _golden("table4")["shapes"][shape]
        assert result.total_time_ns == golden["total_time_ns"]
        assert result.events_processed == golden["events_processed"]


class TestFig4Checked:
    @pytest.mark.parametrize("num_gpus,payload_mib",
                             [(4, 64), (16, 256)])
    def test_executor_point_is_clean_and_unperturbed(self, num_gpus,
                                                     payload_mib):
        topo = parse_topology(f"Ring({num_gpus})", [150.0],
                              latencies_ns=[700.0])
        checker = InvariantChecker(InvariantConfig())
        engine = EventEngine(invariants=checker)
        network = AnalyticalNetwork(engine, topo, invariants=checker)
        executor = SendRecvCollectiveExecutor(engine, network)
        out = {}
        executor.run_ring_allreduce(
            list(range(num_gpus)), payload_mib * MiB,
            on_complete=lambda t: out.update(t=t))
        engine.run()
        report = checker.finalize(engine.now, engine=engine,
                                  network=network)
        assert report.ok, report.counts_by_name()
        assert report.checks > 0
        golden = _golden("fig4")["simulated_ns"]
        assert out["t"] == golden[f"{num_gpus}gpu_{payload_mib}mib"]


def _table5_workload():
    """Cheap stand-in for the moe_1t step: remote I/O around a tiny MoE
    All-to-All + All-Reduce, exercising the same memory path Table V
    measures without simulating 1T parameters."""
    nodes = [
        ETNode(0, NodeType.MEMORY_LOAD, name="load.experts",
               tensor_bytes=8 * MiB, location=TensorLocation.REMOTE),
        ETNode(1, NodeType.COMPUTE, name="moe.fwd", flops=1 << 26,
               tensor_bytes=2 * MiB, deps=(0,)),
        ETNode(2, NodeType.COMM_COLLECTIVE, name="dispatch.alltoall",
               tensor_bytes=4 * MiB, deps=(1,),
               collective=repro.CollectiveType.ALL_TO_ALL),
        ETNode(3, NodeType.COMM_COLLECTIVE, name="grad.allreduce",
               tensor_bytes=4 * MiB, deps=(2,),
               collective=repro.CollectiveType.ALL_REDUCE),
        ETNode(4, NodeType.MEMORY_STORE, name="store.optimizer",
               tensor_bytes=8 * MiB, deps=(3,),
               location=TensorLocation.REMOTE),
    ]
    return {0: ExecutionTrace(0, nodes)}


class TestTable5Checked:
    @pytest.mark.parametrize("make_config", [
        zero_infinity_table5, hiermem_baseline, hiermem_opt,
    ], ids=["zero-infinity", "hiermem-baseline", "hiermem-opt"])
    def test_config_is_invariant_clean(self, make_config):
        config = make_config()
        checked = SystemConfig(
            topology=config.topology,
            scheduler=config.scheduler,
            compute=config.compute,
            local_memory=config.local_memory,
            remote_memory=config.remote_memory,
            collective_chunks=config.collective_chunks,
            invariants=InvariantConfig(),
        )
        result = Simulator(_table5_workload(), checked).run()
        assert result.invariants.ok, result.invariants.counts_by_name()
        assert result.invariants.checks > 0
        assert result.total_time_ns > 0
