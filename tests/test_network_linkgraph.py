"""LazyLinkGraph / link_spec equivalence with the eager reference.

:func:`repro.network.linkgraph.build_links` enumerates every directed
link of a topology up front; :class:`LazyLinkGraph` answers the same
questions in closed form and materializes links on first touch.  These
tests pin the two representations to each other on every building-block
kind and their compositions.
"""

import pytest

from repro.network.linkgraph import (
    LazyLinkGraph,
    build_links,
    dimension_order_route,
    link_spec,
    total_link_count,
)
from repro.network.topology import parse_topology

TOPOLOGIES = [
    ("Ring(2)", [100.0]),
    ("Ring(4)", [150.0]),
    ("FC(4)", [200.0]),
    ("Switch(4)", [50.0]),
    ("Ring(4)_Switch(2)", [100.0, 50.0]),
    ("Ring(2)_FC(3)_Switch(4)", [250.0, 200.0, 50.0]),
]


def _topo(notation, bws):
    return parse_topology(notation, list(bws),
                          latencies_ns=[100.0 * (i + 1)
                                        for i in range(len(bws))])


class TestLinkSpec:
    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_matches_eager_enumeration(self, notation, bws):
        topo = _topo(notation, bws)
        eager = build_links(topo, lambda bw, lat: (bw, lat))
        for key, spec in eager.items():
            assert link_spec(topo, key[0], key[1]) == spec

    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_rejects_every_non_link(self, notation, bws):
        topo = _topo(notation, bws)
        eager = build_links(topo, lambda bw, lat: (bw, lat))
        nodes = set(range(topo.num_npus))
        nodes.update(k for key in eager for k in key
                     if not isinstance(k, int))
        for a in nodes:
            for b in nodes:
                if (a, b) not in eager:
                    assert link_spec(topo, a, b) is None

    def test_rejects_garbage_keys(self):
        topo = _topo("Ring(4)_Switch(2)", [100.0, 50.0])
        assert link_spec(topo, 0, 0) is None
        assert link_spec(topo, -1, 0) is None
        assert link_spec(topo, 0, topo.num_npus) is None
        assert link_spec(topo, "a", "b") is None
        # Wrong fabric node for the NPU's group.
        assert link_spec(topo, 0, ("sw", 1, (1, 0))) is None
        # Ring dim never routes through a fabric node.
        assert link_spec(topo, 0, ("sw", 0, (0, 0))) is None


class TestTotalLinkCount:
    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_matches_eager_enumeration(self, notation, bws):
        topo = _topo(notation, bws)
        assert total_link_count(topo) == len(
            build_links(topo, lambda bw, lat: object()))

    @pytest.mark.parametrize("notation,links", [
        ("Ring(4)", 8),    # 4 NPUs x 2 directed neighbor links
        ("Ring(2)", 2),    # one link each way
        ("Switch(4)", 8),  # 4 uplinks + 4 downlinks via the fabric node
    ])
    def test_small_topologies_by_hand(self, notation, links):
        assert total_link_count(_topo(notation, [100.0])) == links

    def test_closed_form_at_million_npus(self):
        topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(8192)",
                              [250.0, 200.0, 100.0, 50.0])
        n = topo.num_npus
        assert n == 1_048_576
        # ring(2): 1/npu, fc(8): 7/npu, ring(8): 2/npu, switch: 2/npu.
        assert total_link_count(topo) == n * (1 + 7 + 2 + 2)


class TestLazyLinkGraph:
    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_get_agrees_with_eager(self, notation, bws):
        topo = _topo(notation, bws)
        eager = build_links(topo, lambda bw, lat: (bw, lat))
        lazy = LazyLinkGraph(topo, lambda bw, lat: (bw, lat))
        for key, spec in eager.items():
            assert lazy.get(key) == spec
        assert len(lazy) == len(eager)
        assert lazy.total_count() == len(eager)

    def test_construction_materializes_nothing(self):
        topo = _topo("Ring(2)_FC(3)_Switch(4)", [250.0, 200.0, 50.0])
        lazy = LazyLinkGraph(topo, lambda bw, lat: (bw, lat))
        assert len(lazy) == 0
        assert lazy.total_count() == total_link_count(topo)

    def test_materializes_only_touched_links(self):
        topo = _topo("Ring(4)_Switch(2)", [100.0, 50.0])
        lazy = LazyLinkGraph(topo, lambda bw, lat: (bw, lat))
        path = dimension_order_route(topo, 0, 1)
        for a, b in zip(path, path[1:]):
            assert lazy.get((a, b)) is not None
        assert len(lazy) == len(path) - 1
        assert set(lazy) == set(zip(path, path[1:]))

    def test_get_is_idempotent(self):
        topo = _topo("Ring(4)", [100.0])
        lazy = LazyLinkGraph(topo, lambda bw, lat: object())
        first = lazy.get((0, 1))
        assert lazy.get((0, 1)) is first
        assert len(lazy) == 1

    def test_non_link_keys_create_nothing(self):
        topo = _topo("Ring(4)", [100.0])
        lazy = LazyLinkGraph(topo, lambda bw, lat: object())
        assert lazy.get((0, 2)) is None  # two hops apart on the ring
        assert len(lazy) == 0

    def test_on_create_hook_sees_key_and_link(self):
        topo = _topo("Ring(4)", [100.0])
        seen = []
        lazy = LazyLinkGraph(topo, lambda bw, lat: (bw, lat),
                             on_create=lambda key, link: seen.append(
                                 (key, link)))
        link = lazy.get((1, 2))
        assert seen == [((1, 2), link)]
        lazy.get((1, 2))  # cached: hook must not fire again
        assert len(seen) == 1

    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_every_route_resolves(self, notation, bws):
        topo = _topo(notation, bws)
        lazy = LazyLinkGraph(topo, lambda bw, lat: (bw, lat))
        for src in range(topo.num_npus):
            for dst in range(topo.num_npus):
                if src == dst:
                    continue
                path = dimension_order_route(topo, src, dst)
                for a, b in zip(path, path[1:]):
                    assert lazy.get((a, b)) is not None, (src, dst, a, b)

    @pytest.mark.parametrize("notation,bws", TOPOLOGIES)
    def test_path_is_the_memoised_route(self, notation, bws):
        topo = _topo(notation, bws)
        lazy = LazyLinkGraph(topo, lambda bw, lat: object())
        for src in range(topo.num_npus):
            for dst in range(topo.num_npus):
                if src == dst:
                    continue
                route = dimension_order_route(topo, src, dst)
                links = lazy.path(src, dst)
                assert links == tuple(
                    lazy.get(hop) for hop in zip(route, route[1:]))
                assert lazy.path(src, dst) is links

    def test_path_to_self_is_an_error(self):
        from repro.network.topology import TopologyError

        lazy = LazyLinkGraph(_topo("Ring(4)", [100.0]),
                             lambda bw, lat: object())
        with pytest.raises(TopologyError, match="no route"):
            lazy.path(2, 2)
