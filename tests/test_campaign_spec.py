"""Unit tests for the sweep-spec grammar (grid / zip / points)."""

import pytest

from repro.campaign import SweepSpec, SweepSpecError, canonical_json


class TestExpansion:
    def test_grid_is_cartesian_product_last_axis_fastest(self):
        spec = SweepSpec(
            base={"workload": "allreduce"},
            grid={"payload_mib": [1, 4], "chunks": [8, 16]},
        )
        assert len(spec) == 4
        assert spec.expand() == [
            {"workload": "allreduce", "payload_mib": 1, "chunks": 8},
            {"workload": "allreduce", "payload_mib": 1, "chunks": 16},
            {"workload": "allreduce", "payload_mib": 4, "chunks": 8},
            {"workload": "allreduce", "payload_mib": 4, "chunks": 16},
        ]

    def test_zip_axes_vary_together_outside_the_grid(self):
        spec = SweepSpec(
            zip_axes={"topology": ["Ring(4)", "Switch(4)"],
                      "bandwidths": ["100", "600"]},
            grid={"chunks": [8, 16]},
        )
        assert len(spec) == 4
        assert spec.expand() == [
            {"topology": "Ring(4)", "bandwidths": "100", "chunks": 8},
            {"topology": "Ring(4)", "bandwidths": "100", "chunks": 16},
            {"topology": "Switch(4)", "bandwidths": "600", "chunks": 8},
            {"topology": "Switch(4)", "bandwidths": "600", "chunks": 16},
        ]

    def test_explicit_points_merge_over_base(self):
        spec = SweepSpec(
            base={"scheduler": "themis", "chunks": 8},
            points=[{"chunks": 16}, {"scheduler": "baseline"}],
        )
        assert spec.expand() == [
            {"scheduler": "themis", "chunks": 16},
            {"scheduler": "baseline", "chunks": 8},
        ]

    def test_base_only_spec_is_one_point(self):
        spec = SweepSpec(base={"payload_mib": 1})
        assert len(spec) == 1
        assert spec.expand() == [{"payload_mib": 1}]

    def test_varying_fields_in_first_seen_order(self):
        spec = SweepSpec(
            base={"workload": "allreduce"},
            zip_axes={"topology": ["Ring(4)", "Switch(4)"],
                      "bandwidths": ["100", "600"]},
            grid={"chunks": [8, 16]},
        )
        assert spec.varying_fields() == ["topology", "bandwidths", "chunks"]

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(grid={"a": [1, 2, 3], "b": [4, 5]})
        assert spec.expand() == spec.expand()


class TestValidation:
    def test_points_exclusive_with_axes(self):
        with pytest.raises(SweepSpecError, match="mutually exclusive"):
            SweepSpec(points=[{"a": 1}], grid={"b": [1, 2]})

    def test_zip_axes_must_be_equal_length(self):
        with pytest.raises(SweepSpecError, match="same length"):
            SweepSpec(zip_axes={"a": [1, 2], "b": [1, 2, 3]})

    def test_grid_and_zip_must_be_disjoint(self):
        with pytest.raises(SweepSpecError, match="both grid and zip"):
            SweepSpec(grid={"a": [1]}, zip_axes={"a": [1]})

    def test_axis_values_must_be_a_list(self):
        with pytest.raises(SweepSpecError, match="list/tuple"):
            SweepSpec(grid={"a": "12"})

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepSpecError, match="empty"):
            SweepSpec(grid={"a": []})

    def test_unknown_top_level_key_rejected(self):
        # A typo must not shrink the campaign to its base point.
        doc = {"base": {"topology": "Ring(4)", "bandwidths": "100"},
               "grids": {"chunks": [2, 4]}}
        with pytest.raises(SweepSpecError) as exc:
            SweepSpec.from_dict(doc)
        assert str(exc.value) == ("unknown sweep spec key(s) grids; valid "
                                  "keys: base, grid, zip, points")


class TestSerialization:
    def test_round_trip_through_dict(self):
        spec = SweepSpec(
            base={"workload": "allreduce"},
            zip_axes={"topology": ["Ring(4)"], "bandwidths": ["100"]},
            grid={"chunks": [8, 16]},
        )
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone.expand() == spec.expand()
        assert clone.to_dict() == spec.to_dict()

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1})

    def test_canonical_json_rejects_unserializable(self):
        with pytest.raises(SweepSpecError, match="JSON-serializable"):
            canonical_json({"fn": canonical_json})


class TestCliGrammar:
    def test_parse_axis_splits_on_pipe(self):
        assert SweepSpec.parse_axis("payload-mib=1|4|16") == (
            "payload_mib", ["1", "4", "16"])

    def test_parse_axis_keeps_commas_inside_values(self):
        field, values = SweepSpec.parse_axis("bandwidths=100,25|600")
        assert field == "bandwidths"
        assert values == ["100,25", "600"]

    @pytest.mark.parametrize("text", ["payload", "=1|2", "a=1||2"])
    def test_malformed_axis_rejected(self, text):
        with pytest.raises(SweepSpecError):
            SweepSpec.parse_axis(text)

    def test_from_cli_builds_grid_and_zip(self):
        spec = SweepSpec.from_cli(
            base={"workload": "allreduce"},
            grid_texts=["chunks=8|16"],
            zip_texts=["topology=Ring(4)|Switch(4)",
                       "bandwidths=100|600"],
        )
        assert len(spec) == 4
        assert spec.expand()[0] == {
            "workload": "allreduce", "topology": "Ring(4)",
            "bandwidths": "100", "chunks": "8"}

    def test_from_cli_rejects_duplicate_axis(self):
        with pytest.raises(SweepSpecError, match="duplicate"):
            SweepSpec.from_cli(base={}, grid_texts=["a=1|2", "a=3|4"])
