"""Unit tests for deadlock diagnostics."""

import pytest

from repro.core import CollectiveGroupError, DeadlockError, Simulator, SystemConfig
from repro.memory import LocalMemory
from repro.network import parse_topology
from repro.system import RooflineCompute
from repro.trace import CollectiveType, ETNode, ExecutionTrace, NodeType


def _config():
    topo = parse_topology("Ring(4)_Switch(2)", [100, 50])
    return SystemConfig(
        topology=topo,
        compute=RooflineCompute(peak_tflops=1.0),
        local_memory=LocalMemory(bandwidth_gbps=100.0),
    )


def test_unmatched_recv_names_the_peer_and_tag():
    trace = ExecutionTrace(1, [
        ETNode(0, NodeType.COMM_RECV, name="recvF", tensor_bytes=100,
               peer=0, tag=42),
    ])
    sim = Simulator({1: trace}, _config())
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    message = str(exc.value)
    assert "no matching send from npu 0 tag 42" in message
    assert "recvF" in message


def test_incomplete_rendezvous_lists_missing_members():
    # NPU 0 issues a dim-0 collective; NPU 1 (same group, simulated) never
    # reaches its matching node because it waits on an unmatched recv.
    t0 = ExecutionTrace(0, [
        ETNode(0, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=100,
               collective=CollectiveType.ALL_REDUCE, comm_dims=(0,)),
    ])
    t1 = ExecutionTrace(1, [
        ETNode(0, NodeType.COMM_RECV, tensor_bytes=10, peer=3, tag=9),
        ETNode(1, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=100,
               collective=CollectiveType.ALL_REDUCE, comm_dims=(0,),
               deps=(0,)),
    ])
    sim = Simulator({0: t0, 1: t1}, _config())
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    message = str(exc.value)
    assert "incomplete collective rendezvous" in message
    assert "arrived [0]" in message
    assert "missing [1]" in message


def test_blocked_dependencies_reported():
    trace = ExecutionTrace(0, [
        ETNode(0, NodeType.COMM_RECV, tensor_bytes=10, peer=1, tag=1),
        ETNode(1, NodeType.COMPUTE, name="after", flops=100, deps=(0,)),
    ])
    sim = Simulator({0: trace}, _config())
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "waiting on 1 dependencies" in str(exc.value)


def test_healthy_run_raises_nothing():
    trace = ExecutionTrace(0, [ETNode(0, NodeType.COMPUTE, flops=100)])
    result = Simulator({0: trace}, _config()).run()
    assert result.total_time_ns > 0


def test_collective_excluding_its_issuer_is_rejected_at_issue():
    # NPU 3 names a member list without itself: no rendezvous can ever
    # complete, so the issue fails with the NPU, node and group named
    # instead of deadlocking every member.
    traces = {
        npu: ExecutionTrace(npu, [
            ETNode(0, NodeType.COMM_COLLECTIVE, name="ar", tensor_bytes=100,
                   collective=CollectiveType.ALL_REDUCE, comm_dims=(0,),
                   involved_npus=(0, 1, 2) if npu == 3 else (0, 1, 2, 3)),
        ])
        for npu in range(4)
    }
    sim = Simulator(traces, _config())
    with pytest.raises(CollectiveGroupError) as exc:
        sim.run()
    error = exc.value
    assert isinstance(error, ValueError)
    assert (error.npu, error.node_id, error.group) == (3, 0, (0, 1, 2))
    assert str(error) == ("npu 3 node 0 ('ar') issues a collective whose "
                          "involved_npus [0, 1, 2] exclude it")
