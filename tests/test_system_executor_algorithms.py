"""Unit tests for the Direct and Halving-Doubling executors (Table I)."""

import hashlib

import pytest

from repro.events import EventEngine
from repro.network import (AnalyticalNetwork, GarnetLiteNetwork, make_network,
                           parse_topology)
from repro.system import SendRecvCollectiveExecutor


def _run(algorithm, backend_cls, group, payload, notation, bws, lats,
         **backend_kwargs):
    engine = EventEngine()
    topo = parse_topology(notation, list(bws), latencies_ns=list(lats))
    net = backend_cls(engine, topo, **backend_kwargs)
    executor = SendRecvCollectiveExecutor(engine, net)
    result = {}
    getattr(executor, algorithm)(group, payload,
                                 on_complete=lambda t: result.update(t=t))
    engine.run()
    return result["t"]


class TestDirectAllReduce:
    def test_bandwidth_term_matches_phase_model(self):
        """RS + AG each serialize payload*(k-1)/k per NPU."""
        k, payload = 8, 1 << 20
        t = _run("run_direct_allreduce", AnalyticalNetwork, list(range(k)),
                 payload, f"FC({k})", (100,), (0,))
        expected = 2 * (payload * (k - 1) / k) / 100
        assert t == pytest.approx(expected, rel=0.01)

    def test_latency_is_one_step_per_half(self):
        k, payload = 4, 1 << 10
        lat = 10_000.0  # dominate the bandwidth term
        t = _run("run_direct_allreduce", AnalyticalNetwork, list(range(k)),
                 payload, f"FC({k})", (1000,), (lat,))
        # Two phases; each costs ~one propagation on top of serialization.
        assert t == pytest.approx(2 * lat, rel=0.05)

    def test_agrees_with_garnet_on_fc(self):
        k, payload = 4, 1 << 16
        args = (list(range(k)), payload, f"FC({k})", (100,), (100,))
        t_a = _run("run_direct_allreduce", AnalyticalNetwork, *args)
        t_g = _run("run_direct_allreduce", GarnetLiteNetwork, *args,
                   packet_bytes=payload // k)
        # Garnet splits the dim bandwidth across k-1 links, so concurrent
        # personalized sends run in parallel at 1/(k-1) rate each — same
        # aggregate serialization the analytical port enforces.
        assert t_g == pytest.approx(t_a, rel=0.05)

    def test_trivial_group(self):
        t = _run("run_direct_allreduce", AnalyticalNetwork, [0], 1 << 10,
                 "FC(4)", (100,), (0,))
        assert t == 0.0

    def test_duplicates_rejected(self):
        engine = EventEngine()
        topo = parse_topology("FC(4)", [100])
        executor = SendRecvCollectiveExecutor(
            engine, AnalyticalNetwork(engine, topo))
        with pytest.raises(ValueError):
            executor.run_direct_allreduce([0, 0, 1], 100)


class TestHalvingDoublingAllReduce:
    def test_bandwidth_term_is_optimal(self):
        """Total serialized traffic per NPU: payload*(k-1)/k per half."""
        k, payload = 8, 1 << 20
        t = _run("run_halving_doubling_allreduce", AnalyticalNetwork,
                 list(range(k)), payload, f"Switch({k})", (100,), (0,))
        expected = 2 * (payload * (k - 1) / k) / 100
        assert t == pytest.approx(expected, rel=0.01)

    def test_log_k_latency_steps_per_half(self):
        k, payload = 8, 1 << 10
        lat = 10_000.0
        t = _run("run_halving_doubling_allreduce", AnalyticalNetwork,
                 list(range(k)), payload, f"Switch({k})", (1000,), (lat,))
        # 2*log2(8)=6 steps, each crossing the switch (2 hops x lat).
        assert t == pytest.approx(6 * 2 * lat, rel=0.05)

    def test_message_sizes_halve_then_double(self):
        # Indirectly: time for k=4 at zero latency is size/2 + size/4
        # per half over the port.
        k, payload = 4, 1 << 20
        t = _run("run_halving_doubling_allreduce", AnalyticalNetwork,
                 list(range(k)), payload, f"Switch({k})", (100,), (0,))
        expected = 2 * (payload / 2 + payload / 4) / 100
        assert t == pytest.approx(expected, rel=0.01)

    def test_non_power_of_two_rejected(self):
        engine = EventEngine()
        topo = parse_topology("Switch(8)", [100])
        executor = SendRecvCollectiveExecutor(
            engine, AnalyticalNetwork(engine, topo))
        with pytest.raises(ValueError):
            executor.run_halving_doubling_allreduce([0, 1, 2], 100)

    def test_agrees_with_garnet_on_switch(self):
        # Switch paths cross two links (NPU -> fabric -> NPU); with small
        # packets the second hop pipelines behind the first and the
        # store-and-forward penalty vanishes, recovering the analytical
        # single-serialization model.
        k, payload = 8, 1 << 16
        args = (list(range(k)), payload, f"Switch({k})", (100,), (100,))
        t_a = _run("run_halving_doubling_allreduce", AnalyticalNetwork, *args)
        t_g = _run("run_halving_doubling_allreduce", GarnetLiteNetwork, *args,
                   packet_bytes=512)
        assert t_g == pytest.approx(t_a, rel=0.05)


class TestAlgorithmEquivalence:
    def test_all_three_move_the_same_traffic(self):
        """At zero latency every Table I algorithm is bandwidth-optimal:
        identical All-Reduce time on equal-bandwidth dims."""
        k, payload = 8, 1 << 20
        ring = _run("run_ring_allreduce", AnalyticalNetwork, list(range(k)),
                    payload, f"Ring({k})", (100,), (0,))
        direct = _run("run_direct_allreduce", AnalyticalNetwork,
                      list(range(k)), payload, f"FC({k})", (100,), (0,))
        hd = _run("run_halving_doubling_allreduce", AnalyticalNetwork,
                  list(range(k)), payload, f"Switch({k})", (100,), (0,))
        assert ring == pytest.approx(direct, rel=0.01)
        assert ring == pytest.approx(hd, rel=0.01)

    def test_latency_ordering_matches_table(self):
        """Latency-bound regime: Direct (1 step) < HD (log k) < Ring (k-1)."""
        k, payload = 8, 1 << 8
        lat = 50_000.0
        ring = _run("run_ring_allreduce", AnalyticalNetwork, list(range(k)),
                    payload, f"Ring({k})", (1000,), (lat,))
        direct = _run("run_direct_allreduce", AnalyticalNetwork,
                      list(range(k)), payload, f"FC({k})", (1000,), (lat,))
        hd = _run("run_halving_doubling_allreduce", AnalyticalNetwork,
                  list(range(k)), payload, f"Switch({k})", (1000,), (lat,))
        assert direct < hd < ring


_ALGORITHMS = ("run_ring_allreduce", "run_ring_allgather",
               "run_direct_allreduce", "run_alltoall",
               "run_halving_doubling_allreduce")
_BACKENDS = ("analytical", "flow", "garnet", "adaptive")


def _message_log(algorithm, backend):
    """Every sim_send/sim_recv call and callback of one collective.

    One permuted group of all 8 NPUs of a 2-D topology, so peer order,
    tags and sizes all reach the log.
    """
    engine = EventEngine()
    topo = parse_topology("Ring(4)_Switch(2)", [100, 50],
                          latencies_ns=[100, 250])
    net = make_network(backend, engine, topo, packet_bytes=4096)
    log = []
    send, recv = net.sim_send, net.sim_recv

    def logged(kind, npu, peer, size, tag, callback):
        log.append((engine.now, kind, npu, peer, size, tag))

        def done(*args):
            log.append((engine.now, kind + "-done", npu, peer, size, tag))
            callback(*args)
        return done

    net.sim_send = lambda npu, peer, size, tag=0, callback=None: send(
        npu, peer, size, tag=tag,
        callback=logged("send", npu, peer, size, tag, callback))
    net.sim_recv = lambda npu, peer, size, tag=0, callback=None: recv(
        npu, peer, size, tag=tag,
        callback=logged("recv", npu, peer, size, tag, callback))
    executor = SendRecvCollectiveExecutor(engine, net, tag_base=7)
    result = {}
    group = [5, 0, 7, 2, 3, 6, 1, 4]
    getattr(executor, algorithm)(group, 96 * 1024 + 3,
                                 on_complete=lambda t: result.update(t=t))
    engine.run()
    digest = hashlib.sha256(
        "\n".join(map(repr, log)).encode()).hexdigest()
    return digest, (result["t"], engine.events_processed)


# sha256 of the message log, (collective time ns, events processed).
_PINNED = {
    ('run_ring_allreduce', 'analytical'): (
        '396b7c9673e41bf4447f6514c1acb9f7c549fdaf982677fc790fcad920e8bb24',
        (11323.679999999998, 224)),
    ('run_ring_allreduce', 'flow'): (
        '4fb8324e7a7fe0132fcf59c751f20facc83d49251840cfe672e003df4b331f54',
        (9972.000000000002, 153)),
    ('run_ring_allreduce', 'garnet'): (
        '6851405c95a39721f362b095caeb05d9b60b10bc5534c414c9825c84be618e60',
        (11323.679999999997, 952)),
    ('run_ring_allreduce', 'adaptive'): (
        '4fb8324e7a7fe0132fcf59c751f20facc83d49251840cfe672e003df4b331f54',
        (9972.000000000002, 153)),
    ('run_ring_allgather', 'analytical'): (
        '39288103b04e3a0964b04298bc45976d96424da80176c5b1ceeacb9423592c76',
        (6034.720000000001, 112)),
    ('run_ring_allgather', 'flow'): (
        '83dafbd8cb8b563a554a77197f0fc24912180d523d59726eb994a2acddec4f54',
        (5297.4400000000005, 77)),
    ('run_ring_allgather', 'garnet'): (
        '3d82bb6e44218c834b0e52437c25481b43b07d7ed6738153bc873185f526e34d',
        (6034.720000000001, 476)),
    ('run_ring_allgather', 'adaptive'): (
        '83dafbd8cb8b563a554a77197f0fc24912180d523d59726eb994a2acddec4f54',
        (5297.4400000000005, 77)),
    ('run_direct_allreduce', 'analytical'): (
        'bad6ca8f2e6ae5216b502e3be730ab1c53b2b003ee861ebc640699caa8ba5c4c',
        (3266.080000000001, 224)),
    ('run_direct_allreduce', 'flow'): (
        'ce67d9bf0ea0cf4590ee541b4d0be9c6ab37acf10d3c070b84583fd4e38a82af',
        (3366.08, 118)),
    ('run_direct_allreduce', 'garnet'): (
        '6c2ee29f4a5b7b1711c5aefd6459b9ce841264160f29a71afc88787fe6d90c7a',
        (3166.080000000001, 880)),
    ('run_direct_allreduce', 'adaptive'): (
        'ca467a2a59ed82f5c95d12301eae9c8eeae96911655d0043f01be3c0c07fc455',
        (3366.08, 156)),
    ('run_alltoall', 'analytical'): (
        '2355c50520ada98bb7915544f65381e8ae8073db4d1602cf81eb15077bd305b4',
        (1683.04, 112)),
    ('run_alltoall', 'flow'): (
        'e67b16b1bf16bfc20571bf95cb97d63b334f0b61adf030e17c05477234f858ea',
        (1683.04, 59)),
    ('run_alltoall', 'garnet'): (
        '232441e57edf406a0ed8fbe911ba8f7bf085401c645f4d611acc71f999bb3b44',
        (1583.0400000000002, 440)),
    ('run_alltoall', 'adaptive'): (
        '93c6a8096d426502c937df0da23b96215ff3ace60d5f37353728849e526d6413',
        (1683.04, 78)),
    ('run_halving_doubling_allreduce', 'analytical'): (
        'f7ff56be535a46cf605ea47380fca311d1872bc3b162b12a4caa272e757e842d',
        (7177.980000000001, 96)),
    ('run_halving_doubling_allreduce', 'flow'): (
        'dbba53e817198e35c9d0114e92337029df7df07a1d77ef2908b669692aef6285',
        (6440.68, 54)),
    ('run_halving_doubling_allreduce', 'garnet'): (
        '6387af260860f47042532066e62443fc3488969e96a793df87fced6816c3d87d',
        (6814.1200000000035, 1056)),
    ('run_halving_doubling_allreduce', 'adaptive'): (
        'dbba53e817198e35c9d0114e92337029df7df07a1d77ef2908b669692aef6285',
        (6440.68, 54)),
}


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("algorithm", _ALGORITHMS)
def test_message_order_is_pinned(algorithm, backend):
    """Characterization: the exact send/recv calls, callbacks and times
    every algorithm produces on every backend."""
    assert _message_log(algorithm, backend) == _PINNED[algorithm, backend]
