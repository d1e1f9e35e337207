"""Unit tests for the multi-dimensional topology representation."""

import re

import pytest

from repro.network import (
    BuildingBlock,
    CommGroup,
    CoordinateError,
    DimSpec,
    MultiDimTopology,
    TopologyError,
    parse_topology,
)


def _conv4d():
    return parse_topology(
        "Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50]
    )


class TestParser:
    def test_paper_notation(self):
        topo = _conv4d()
        assert topo.shape == (2, 8, 8, 4)
        assert topo.num_npus == 512
        assert [d.block for d in topo.dims] == [
            BuildingBlock.RING, BuildingBlock.FULLY_CONNECTED,
            BuildingBlock.RING, BuildingBlock.SWITCH,
        ]
        assert [d.bandwidth_gbps for d in topo.dims] == [250, 200, 100, 50]

    def test_notation_roundtrip(self):
        topo = _conv4d()
        again = parse_topology(topo.notation(), [d.bandwidth_gbps for d in topo.dims])
        assert again.shape == topo.shape

    def test_aliases_in_notation(self):
        topo = parse_topology("r(4)_sw(2)", [10, 10])
        assert topo.dims[0].block is BuildingBlock.RING
        assert topo.dims[1].block is BuildingBlock.SWITCH

    def test_bandwidth_count_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("Ring(4)_Ring(4)", [10])

    def test_latency_count_mismatch_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("Ring(4)", [10], latencies_ns=[1, 2])

    def test_malformed_dim_rejected(self):
        with pytest.raises(TopologyError):
            parse_topology("Ring[4]", [10])
        with pytest.raises(TopologyError):
            parse_topology("", [])

    @pytest.mark.parametrize("notation, bandwidths, latencies, message", [
        ("Foo(4)", [10], [], "unknown building block 'Foo'"),
        ("Ring(4)_", [10], [], "empty dimension in 'Ring(4)_'"),
        ("Ring(4)", [float("nan")], [],
         "bandwidth of dimension 0 is not a finite number: nan"),
        ("Ring(4)", [float("inf")], [],
         "bandwidth of dimension 0 is not a finite number: inf"),
        ("Ring(4)", [True], [], "bandwidth of dimension 0 is not a finite"),
        ("Ring(4)", ["10"], [], "bandwidth of dimension 0 is not a finite"),
        ("Ring(4)", [-1.0], [], "bandwidth must be positive"),
        ("Ring(4)", [10], [float("nan")],
         "latency is not a finite number: nan"),
        ("Ring(4)", [10], [-1.0], "latency must be >= 0"),
    ], ids=["unknown-block", "trailing-underscore", "nan-bandwidth",
            "inf-bandwidth", "bool-bandwidth", "string-bandwidth",
            "negative-bandwidth", "nan-latency", "negative-latency"])
    def test_bad_input_is_a_topology_error(self, notation, bandwidths,
                                           latencies, message):
        with pytest.raises(TopologyError, match=re.escape(message)):
            parse_topology(notation, bandwidths, latencies_ns=latencies)

    def test_custom_latencies(self):
        topo = parse_topology("Ring(4)_Switch(2)", [10, 10],
                              latencies_ns=[100, 700])
        assert topo.dims[0].latency_ns == 100
        assert topo.dims[1].latency_ns == 700


class TestDimSpec:
    def test_invalid_values_rejected(self):
        with pytest.raises(TopologyError):
            DimSpec(BuildingBlock.RING, 0, 10)
        with pytest.raises(TopologyError):
            DimSpec(BuildingBlock.RING, 4, 0)
        with pytest.raises(TopologyError):
            DimSpec(BuildingBlock.RING, 4, 10, latency_ns=-1)


class TestCoordinates:
    def test_dim0_varies_fastest(self):
        topo = _conv4d()
        assert topo.coords(0) == (0, 0, 0, 0)
        assert topo.coords(1) == (1, 0, 0, 0)
        assert topo.coords(2) == (0, 1, 0, 0)
        assert topo.coords(511) == (1, 7, 7, 3)

    def test_roundtrip_all_npus(self):
        topo = parse_topology("Ring(3)_FC(4)_Switch(5)", [1, 1, 1])
        for npu in range(topo.num_npus):
            assert topo.npu_id(topo.coords(npu)) == npu

    def test_out_of_range_rejected(self):
        topo = _conv4d()
        with pytest.raises(TopologyError):
            topo.coords(512)
        with pytest.raises(TopologyError):
            topo.npu_id((2, 0, 0, 0))
        with pytest.raises(TopologyError):
            topo.npu_id((0, 0, 0))


class TestCoordinateError:
    def test_structured_fields_name_the_offending_dim(self):
        topo = _conv4d()  # shape (2, 8, 8, 4)
        with pytest.raises(CoordinateError) as exc_info:
            topo.npu_id((0, 8, 0, 0))
        err = exc_info.value
        assert err.dim_index == 1
        assert err.coordinate == 8
        assert err.size == 8

    def test_negative_coordinate_rejected(self):
        topo = _conv4d()
        with pytest.raises(CoordinateError) as exc_info:
            topo.npu_id((0, 0, -1, 0))
        err = exc_info.value
        assert err.dim_index == 2
        assert err.coordinate == -1

    def test_message_spells_out_the_valid_range(self):
        topo = _conv4d()
        with pytest.raises(
                CoordinateError,
                match=r"coordinate 4 out of range for dimension 3 "
                      r"\(size 4; valid range 0\.\.3\)"):
            topo.npu_id((0, 0, 0, 4))

    def test_never_wraps_modulo(self):
        # A wrapped coordinate would alias a valid NPU id; it must raise.
        topo = parse_topology("Ring(4)", [10])
        with pytest.raises(CoordinateError):
            topo.npu_id((4,))
        with pytest.raises(CoordinateError):
            topo.npu_id((-4,))

    def test_is_a_topology_error(self):
        # Existing callers catching TopologyError keep working.
        assert issubclass(CoordinateError, TopologyError)

    def test_wrong_arity_stays_plain_topology_error(self):
        topo = _conv4d()
        with pytest.raises(TopologyError) as exc_info:
            topo.npu_id((0, 0))
        assert not isinstance(exc_info.value, CoordinateError)


class TestCommGroup:
    def test_closed_form_rep_and_size(self):
        topo = _conv4d()
        for npu in (0, 17, 442):
            for dims in [(0,), (2,), (1, 2), (0, 1, 2, 3)]:
                group = topo.comm_group(npu, dims)
                assert group.rep == min(group.members())
                assert group.size == len(group.members())

    def test_membership_without_materialization(self):
        topo = _conv4d()
        group = topo.comm_group(7, (1, 2))
        expected = set(topo.comm_group(7, (1, 2)).members())
        for npu in range(topo.num_npus):
            assert (npu in group) == (npu in expected)
        # Membership tests above must not have materialized the list.
        assert group._members == ()

    def test_intersection(self):
        topo = _conv4d()
        group = topo.comm_group(0, (0,))
        assert group.intersection([0, 1, 2, 3]) == {0, 1}
        assert group.intersection(iter(range(512))) == {0, 1}

    def test_duplicate_and_unsorted_dims_normalized(self):
        topo = _conv4d()
        assert topo.comm_group(9, (2, 0, 2)) == topo.comm_group(9, (0, 2))

    def test_equal_groups_hash_alike(self):
        topo = _conv4d()
        a = topo.comm_group(0, (1,))
        b = topo.comm_group(2, (1,))  # same communicator, other member
        assert a == b
        assert hash(a) == hash(b)
        assert topo.comm_group(0, (0,)) != topo.comm_group(0, (1,))

    def test_iteration_yields_sorted_members(self):
        topo = _conv4d()
        group = topo.comm_group(100, (0, 3))
        assert list(group) == sorted(group.members())

    def test_rejects_bad_inputs(self):
        topo = _conv4d()
        with pytest.raises(TopologyError):
            topo.comm_group(0, (4,))
        with pytest.raises(TopologyError):
            topo.group_rep(512, (0,))
        with pytest.raises(TopologyError):
            topo.group_size((7,))

    def test_group_size_closed_form(self):
        topo = _conv4d()  # shape (2, 8, 8, 4)
        assert topo.group_size(()) == 1
        assert topo.group_size((0,)) == 2
        assert topo.group_size((1, 2)) == 64
        assert topo.group_size((0, 1, 2, 3)) == 512

    def test_million_npu_group_is_cheap(self):
        # The whole point: symbolic groups never touch O(npus) state.
        topo = parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(8192)",
                              [250, 200, 100, 50])
        assert topo.num_npus == 1_048_576
        group = topo.comm_group(1_000_000, (3,))
        assert group.size == 8192
        assert 1_000_000 in group
        assert group.rep == topo.group_rep(1_000_000, (3,))
        assert isinstance(group, CommGroup)


class TestGroups:
    def test_dim_group_members(self):
        topo = _conv4d()
        group = topo.dim_group(0, 0)
        assert group == (0, 1)
        group1 = topo.dim_group(0, 1)
        assert group1 == tuple(2 * i for i in range(8))

    def test_comm_group_members_are_product(self):
        topo = _conv4d()
        group = topo.comm_group(0, (0, 1)).members()
        assert len(group) == 16
        assert group == tuple(range(16))

    def test_group_across_outer_dims(self):
        topo = _conv4d()
        group = topo.comm_group(0, (2, 3)).members()
        assert len(group) == 32
        assert 0 in group

    def test_group_contains_origin(self):
        topo = _conv4d()
        for dims in [(0,), (1, 2), (0, 3)]:
            assert 5 in topo.comm_group(5, dims).members()

    def test_bad_dim_rejected(self):
        topo = _conv4d()
        with pytest.raises(TopologyError):
            topo.dim_group(0, 4)


class TestHopsAndRouting:
    def test_hops_sum_over_dims(self):
        topo = _conv4d()
        # coords (1,0,0,0): 1 ring hop; (0,1,0,0): 1 fc hop
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 2) == 1
        # differ in switch dim: 2 hops
        assert topo.hops(0, 128) == 2

    def test_shared_dim(self):
        topo = _conv4d()
        assert topo.shared_dim(0, 1) == 0
        assert topo.shared_dim(0, 2) == 1
        with pytest.raises(TopologyError):
            topo.shared_dim(0, 3)  # differs in dims 0 and 1
        with pytest.raises(TopologyError):
            topo.shared_dim(0, 0)


class TestAggregates:
    def test_total_bandwidth(self):
        assert _conv4d().total_bandwidth_gbps() == 600

    def test_singleton_dims_excluded_from_bandwidth(self):
        topo = parse_topology("Ring(1)_Switch(4)", [999, 50])
        assert topo.total_bandwidth_gbps() == 50

    def test_total_links(self):
        topo = parse_topology("Ring(4)_Switch(2)", [10, 10])
        # 2 ring groups x 4 NPUs x 2 links + 4 switch groups x 2 x 1 uplink
        assert topo.total_links() == 16 + 8

    def test_empty_topology_rejected(self):
        with pytest.raises(TopologyError):
            MultiDimTopology([])
