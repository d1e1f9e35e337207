"""The engine's results depend on insertion order, never on node-id values.

Every trace set here runs twice: once with dense ids ``0..n-1`` and once
relabelled by ``id -> 100000 - 7*id`` (sparse and descending) in the same
insertion order.  The exported documents must be equal, and the deadlock
reports name the relabelled ids in the same places.
"""

import dataclasses
from unittest import mock

import pytest

from repro import runsim
from repro.core import DeadlockError, Simulator, SystemConfig
from repro.memory import (HierMemConfig, InSwitchCollectiveMemory, LocalMemory,
                          ZeroInfinityConfig, ZeroInfinityMemory)
from repro.network import parse_topology
from repro.runspec import run_namespace
from repro.stats.export import result_to_dict
from repro.system import RooflineCompute
from repro.trace import (CollectiveType, ETNode, ExecutionTrace, NodeType,
                         TensorLocation)
from repro.workload.generators import VIA_FABRIC


def sparse(node_id):
    return 100000 - 7 * node_id


def relabel(traces, new_id=sparse):
    """The same trace set, every id and dep mapped by ``new_id``."""
    return {
        npu: ExecutionTrace(npu, [
            dataclasses.replace(node, node_id=new_id(node.node_id),
                                deps=tuple(new_id(d) for d in node.deps),
                                attrs=dict(node.attrs))
            for node in trace])
        for npu, trace in traces.items()}


def _config():
    topo = parse_topology("Ring(4)_Switch(2)", [100, 50],
                          latencies_ns=[20, 40])
    pool = HierMemConfig(num_nodes=2, gpus_per_node=4, num_out_switches=2,
                         num_remote_groups=4, access_latency_ns=30.0)
    return SystemConfig(
        topology=topo,
        compute=RooflineCompute(peak_tflops=1.0),
        local_memory=LocalMemory(bandwidth_gbps=100.0, latency_ns=5.0),
        remote_memory=ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=10.0, access_latency_ns=50.0)),
        fabric_collectives=InSwitchCollectiveMemory(pool),
        collective_chunks=2,
    )


def _mixed():
    """Two NPUs: compute, local/remote memory, a fabric collective, a
    dim-0 collective across both traces and a send/recv pair, with
    same-time issues whose order only insertion order decides."""
    t0 = ExecutionTrace(0, [
        ETNode(0, NodeType.COMPUTE, name="fwd", flops=4000),
        ETNode(1, NodeType.MEMORY_LOAD, name="ld", tensor_bytes=2000,
               deps=(0,)),
        ETNode(2, NodeType.MEMORY_LOAD, name="rld", tensor_bytes=3000,
               location=TensorLocation.REMOTE, deps=(0,)),
        ETNode(3, NodeType.MEMORY_LOAD, name="gather", tensor_bytes=4096,
               location=TensorLocation.REMOTE, deps=(0,),
               attrs={"via": VIA_FABRIC}),
        ETNode(4, NodeType.COMM_COLLECTIVE, name="a2a", tensor_bytes=1 << 16,
               collective=CollectiveType.ALL_TO_ALL, deps=(1,),
               attrs={"via": VIA_FABRIC}),
        ETNode(5, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=8000,
               collective=CollectiveType.ALL_REDUCE, comm_dims=(0,),
               deps=(2, 4)),
        ETNode(6, NodeType.COMM_SEND, name="send", tensor_bytes=1000,
               peer=1, tag=7, deps=(5,)),
        ETNode(7, NodeType.COMPUTE, name="bwd", flops=2000, deps=(5, 3)),
        ETNode(8, NodeType.MEMORY_STORE, name="st", tensor_bytes=500,
               location=TensorLocation.REMOTE, deps=(7,)),
        ETNode(9, NodeType.COMPUTE, name="opt", flops=1000, deps=(6, 8)),
    ])
    t1 = ExecutionTrace(1, [
        ETNode(0, NodeType.COMPUTE, name="fwd", flops=9000),
        ETNode(1, NodeType.MEMORY_STORE, name="st", tensor_bytes=700),
        ETNode(2, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=8000,
               collective=CollectiveType.ALL_REDUCE, comm_dims=(0,),
               deps=(0,)),
        ETNode(3, NodeType.COMM_RECV, name="recv", tensor_bytes=1000,
               peer=0, tag=7, deps=(2,)),
        ETNode(4, NodeType.COMPUTE, name="bwd", flops=3000, deps=(3, 1)),
        ETNode(5, NodeType.COMPUTE, name="tail", flops=500, deps=(2,)),
    ])
    return {0: t0, 1: t1}


def test_mixed_trace_set_is_id_independent():
    dense = result_to_dict(Simulator(_mixed(), _config()).run())
    relabelled = result_to_dict(Simulator(relabel(_mixed()), _config()).run())
    assert dense["nodes_executed"] == 16
    assert relabelled == dense


def _planned(point, new_id=None):
    original = runsim._build_traces

    def build(args, topology):
        traces, degrees = original(args, topology)
        return (traces if new_id is None else relabel(traces, new_id),
                degrees)

    with mock.patch.object(runsim, "_build_traces", build):
        _, result, _ = runsim.simulate_from_args(run_namespace(point))
    return result_to_dict(result)


def test_planned_pipeline_set_is_id_independent():
    point = {"model": "llama3-8b", "seq_len": 256, "pp": 2,
             "microbatches": 2, "topology": "Ring(2)_Switch(2)",
             "bandwidths": "100,50"}
    dense = _planned(point)
    assert _planned(point, sparse) == dense


def _stuck(traces):
    with pytest.raises(DeadlockError) as exc:
        Simulator(relabel(traces), _config()).run()
    return str(exc.value)


def test_unmatched_recv_report_names_sparse_ids():
    message = _stuck({1: ExecutionTrace(1, [
        ETNode(0, NodeType.COMM_RECV, name="recvF", tensor_bytes=100,
               peer=0, tag=42),
    ])})
    assert message == (
        "1 nodes never completed:\n"
        "  npu 1 node 100000 comm_recv ('recvF'): no matching send from "
        "npu 0 tag 42\n"
        "1 receives still posted, 0 arrivals unclaimed (check send/recv tags)")


def test_incomplete_rendezvous_report_names_sparse_ids():
    message = _stuck({
        0: ExecutionTrace(0, [
            ETNode(0, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=100,
                   collective=CollectiveType.ALL_REDUCE, comm_dims=(0,)),
        ]),
        1: ExecutionTrace(1, [
            ETNode(0, NodeType.COMM_RECV, tensor_bytes=10, peer=3, tag=9),
            ETNode(1, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=100,
                   collective=CollectiveType.ALL_REDUCE, comm_dims=(0,),
                   deps=(0,)),
        ]),
    })
    assert message == (
        "3 nodes never completed:\n"
        "  npu 0 node 100000 comm_collective ('ar'): issued but never "
        "completed\n"
        "  npu 1 node 100000 comm_recv: no matching send from npu 3 tag 9\n"
        "incomplete collective rendezvous:\n"
        "  rep 0: arrived [0], missing [1]\n"
        "  npu 1 node 99993 comm_collective ('ar'): waiting on 1 "
        "dependencies\n"
        "1 receives still posted, 0 arrivals unclaimed (check send/recv tags)")


def test_blocked_dependencies_report_names_sparse_ids():
    message = _stuck({0: ExecutionTrace(0, [
        ETNode(0, NodeType.COMM_RECV, tensor_bytes=10, peer=1, tag=1),
        ETNode(1, NodeType.COMPUTE, name="after", flops=100, deps=(0,)),
        ETNode(2, NodeType.COMPUTE, name="later", flops=100, deps=(1, 0)),
    ])})
    assert message == (
        "3 nodes never completed:\n"
        "  npu 0 node 100000 comm_recv: no matching send from npu 1 tag 1\n"
        "  npu 0 node 99986 compute ('later'): waiting on 2 dependencies\n"
        "  npu 0 node 99993 compute ('after'): waiting on 1 dependencies\n"
        "1 receives still posted, 0 arrivals unclaimed (check send/recv tags)")
