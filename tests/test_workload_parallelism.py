"""Unit tests for parallelism-to-dimension assignment."""

import pytest

from repro.network import parse_topology
from repro.workload import ParallelismSpec, assign_dims
from repro.workload.parallelism import (
    DimAssignmentError,
    fit_hybrid,
    resolve_degrees,
)


def _conv4d():
    return parse_topology("Ring(2)_FC(8)_Ring(8)_Switch(4)", [250, 200, 100, 50])


class TestAssignDims:
    def test_paper_gpt3_mapping(self):
        """GPT-3 on Conv-4D: MP=16 on dims (0,1), DP=32 on dims (2,3)."""
        assignment = assign_dims(_conv4d(), ParallelismSpec(mp=16, dp=32))
        assert assignment["mp"] == (0, 1)
        assert assignment["dp"] == (2, 3)

    def test_transformer_1t_mapping(self):
        """T-1T: MP=128 on dims (0,1,2), DP=4 on dim 3."""
        assignment = assign_dims(_conv4d(), ParallelismSpec(mp=128, dp=4))
        assert assignment["mp"] == (0, 1, 2)
        assert assignment["dp"] == (3,)

    def test_pure_dp_takes_all_dims(self):
        assignment = assign_dims(_conv4d(), ParallelismSpec(dp=512))
        assert assignment["dp"] == (0, 1, 2, 3)
        assert assignment["mp"] == ()

    def test_pipeline_between_mp_and_dp(self):
        topo = parse_topology("Ring(4)_Ring(8)_Switch(2)", [100, 100, 50])
        assignment = assign_dims(topo, ParallelismSpec(mp=4, pp=8, dp=2))
        assert assignment["mp"] == (0,)
        assert assignment["pp"] == (1,)
        assert assignment["dp"] == (2,)

    def test_expert_parallelism_slot(self):
        topo = parse_topology("Ring(4)_Ring(8)_Switch(2)", [100, 100, 50])
        assignment = assign_dims(topo, ParallelismSpec(mp=4, ep=8, dp=2))
        assert assignment["ep"] == (1,)

    def test_total_mismatch_rejected(self):
        with pytest.raises(DimAssignmentError):
            assign_dims(_conv4d(), ParallelismSpec(mp=16, dp=16))

    def test_misaligned_degree_rejected(self):
        # MP=4 cannot align: dims are 2 then 8 (product 2 -> 16, never 4).
        with pytest.raises(DimAssignmentError):
            assign_dims(_conv4d(), ParallelismSpec(mp=4, dp=128))

    def test_degrees_validated(self):
        with pytest.raises(ValueError):
            ParallelismSpec(mp=0)


class TestFitHybrid:
    def test_fills_remaining_with_dp(self):
        spec = fit_hybrid(_conv4d(), mp=16)
        assert spec.mp == 16 and spec.dp == 32
        assert spec.total == 512

    def test_indivisible_rejected(self):
        with pytest.raises(DimAssignmentError):
            fit_hybrid(_conv4d(), mp=7)


class TestResolveDegrees:
    def test_auto_dp_fills_the_rest(self):
        assert resolve_degrees(32, mp=4, pp=2) == ParallelismSpec(
            mp=4, dp=4, pp=2)

    def test_zero_is_auto(self):
        assert resolve_degrees(8) == ParallelismSpec(dp=8)

    @pytest.mark.parametrize("degrees, message", [
        ({"mp": 3}, "--mp 3 does not divide the topology's 8 NPUs; "),
        ({"mp": 1, "pp": 3, "ep": 2},
         "--pp 3 x --ep 2 does not divide the topology's 8 NPUs; "),
        ({"mp": 2, "dp": 2},
         "--mp 2 does not divide the topology's 8 NPUs into --dp 2 "
         "replicas; "),
    ], ids=["mp", "pp-ep", "explicit-dp"])
    def test_one_message(self, degrees, message):
        with pytest.raises(DimAssignmentError) as excinfo:
            resolve_degrees(8, **degrees)
        assert str(excinfo.value).startswith(message)

    def test_negative_dp_is_a_degree_error(self):
        with pytest.raises(ValueError, match="dp degree must be >= 1, got -2"):
            resolve_degrees(8, mp=4, dp=-2)
