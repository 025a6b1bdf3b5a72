"""The shift grid is data: assert its exact shape without simulating."""

from __future__ import annotations

import dataclasses

import pytest

from repro.robustness.config import RobustnessConfig
from repro.robustness.shift import (
    AXIS_STREAMS,
    SCENARIO_AXES,
    TELEMETRY_AXES,
    ShiftPoint,
    shift_grid,
)


@pytest.fixture(scope="module")
def grid():
    return shift_grid(RobustnessConfig())


class TestGridShape:
    def test_default_grid_has_fifteen_points(self, grid):
        assert len(grid) == 15

    def test_axis_order_and_counts(self, grid):
        axes = [p.axis for p in grid]
        assert axes == (
            ["load"] * 3 + ["burst"] * 3 + ["buffer"] * 3 + ["lanz"] * 3 + ["snmp"] * 3
        )

    def test_every_axis_starts_at_its_anchor(self, grid):
        base = RobustnessConfig().scenario
        for axis in SCENARIO_AXES:
            anchor = next(p for p in grid if p.axis == axis)
            assert anchor.value == 1.0
            assert anchor.scenario == base
        for axis in TELEMETRY_AXES:
            anchor = next(p for p in grid if p.axis == axis)
            assert anchor.value == 0.0
            assert not anchor.degrades_telemetry

    def test_misordered_axis_rejected_before_any_training(self):
        config = dataclasses.replace(RobustnessConfig(), load_scales=(1.5, 1.0))
        with pytest.raises(ValueError, match="anchor"):
            shift_grid(config)
        config = dataclasses.replace(RobustnessConfig(), snmp_losses=(0.2, 0.0))
        with pytest.raises(ValueError, match="anchor"):
            shift_grid(config)
        for field in (
            "load_scales", "burst_scales", "buffer_scales", "lanz_thresholds", "snmp_losses"
        ):
            config = dataclasses.replace(RobustnessConfig(), **{field: ()})
            with pytest.raises(ValueError, match=field):
                shift_grid(config)


class TestScenarioArithmetic:
    def test_load_scales_websearch_load(self, grid):
        base = RobustnessConfig().scenario
        point = next(p for p in grid if p.axis == "load" and p.value == 2.0)
        assert point.scenario.websearch_load == pytest.approx(
            base.websearch_load * 2.0
        )
        # Only the load knob moves; the rest of the scenario is the anchor's.
        assert dataclasses.replace(
            point.scenario, websearch_load=base.websearch_load
        ) == base

    def test_burst_scales_incast_integers(self, grid):
        base = RobustnessConfig().scenario
        point = next(p for p in grid if p.axis == "burst" and p.value == 2.0)
        assert point.scenario.incast_fan_in == max(1, round(base.incast_fan_in * 2))
        assert point.scenario.incast_burst == max(1, round(base.incast_burst * 2))

    def test_buffer_shrinks_with_a_floor_of_two(self, grid):
        base = RobustnessConfig().scenario
        point = next(p for p in grid if p.axis == "buffer" and p.value == 0.5)
        assert point.scenario.buffer_capacity == max(
            2, round(base.buffer_capacity * 0.5)
        )
        tiny = shift_grid(
            dataclasses.replace(RobustnessConfig(), buffer_scales=(1.0, 0.001))
        )
        point = next(p for p in tiny if p.axis == "buffer" and p.value == 0.001)
        assert point.scenario.buffer_capacity == 2

    def test_telemetry_axes_keep_the_anchor_scenario(self, grid):
        base = RobustnessConfig().scenario
        for point in grid:
            if point.axis in TELEMETRY_AXES:
                assert point.scenario == base


class TestShiftPoint:
    def test_labels(self):
        base = RobustnessConfig().scenario
        assert ShiftPoint("load", 1.5, base).label == "load x1.5"
        assert ShiftPoint("lanz", 5.0, base, lanz_threshold=5.0).label == "lanz thr=5"
        assert (
            ShiftPoint("snmp", 0.2, base, snmp_loss=0.2).label == "snmp loss=20%"
        )

    def test_degrades_telemetry_flag(self, grid):
        for point in grid:
            expected = point.lanz_threshold > 0 or point.snmp_loss > 0
            assert point.degrades_telemetry is expected

    def test_degrade_seed_is_stable_per_axis_and_value(self):
        base = RobustnessConfig().scenario
        point = ShiftPoint("lanz", 5.0, base, lanz_threshold=5.0)
        assert point.degrade_seed(7) == [7, AXIS_STREAMS["lanz"], 5000]
        # Distinct axes at the same knob value draw from distinct streams.
        other = ShiftPoint("snmp", 5.0, base, snmp_loss=1.0)
        assert other.degrade_seed(7) != point.degrade_seed(7)

    def test_axis_streams_are_distinct(self):
        assert len(set(AXIS_STREAMS.values())) == len(AXIS_STREAMS)

    def test_points_are_frozen(self, grid):
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid[0].value = 9.0


class TestStructuralAxes:
    """topology/aqm are opt-in: absent by default, appended after snmp."""

    def test_default_grid_has_no_structural_points(self, grid):
        assert not any(p.axis in ("topology", "aqm") for p in grid)

    def test_opting_in_appends_after_the_telemetry_axes(self):
        config = dataclasses.replace(
            RobustnessConfig(),
            topology_leaves=(1, 2),
            red_drop_probs=(0.0, 0.2),
        )
        axes = [p.axis for p in shift_grid(config)]
        assert axes[-4:] == ["topology", "topology", "aqm", "aqm"]

    def test_structural_anchors_are_validated(self):
        config = dataclasses.replace(RobustnessConfig(), topology_leaves=(2, 1))
        with pytest.raises(ValueError, match="anchor"):
            shift_grid(config)
        config = dataclasses.replace(RobustnessConfig(), red_drop_probs=(0.2,))
        with pytest.raises(ValueError, match="anchor"):
            shift_grid(config)

    def test_structural_points_keep_the_anchor_scenario(self):
        # The shift lives in the evaluation harness (fabric / RED switch),
        # not in scenario arithmetic — the base scenario rides along.
        config = dataclasses.replace(
            RobustnessConfig(), topology_leaves=(1, 3), red_drop_probs=(0.0, 0.5)
        )
        base = config.scenario
        for point in shift_grid(config):
            if point.axis in ("topology", "aqm"):
                assert point.scenario == base
                assert not point.degrades_telemetry

    def test_labels(self):
        base = RobustnessConfig().scenario
        assert ShiftPoint("topology", 2.0, base).label == "topology leaves=2"
        assert ShiftPoint("aqm", 0.0, base).label == "aqm dt"
        assert ShiftPoint("aqm", 0.25, base).label == "aqm red p=0.25"

    def test_bad_values_rejected(self):
        config = dataclasses.replace(RobustnessConfig(), topology_leaves=(1, 0))
        with pytest.raises(ValueError, match="topology_leaves"):
            shift_grid(config)
        config = dataclasses.replace(RobustnessConfig(), red_drop_probs=(0.0, 1.5))
        with pytest.raises(ValueError, match="red_drop_probs"):
            shift_grid(config)

    def test_empty_defaults_are_digest_neutral(self):
        # The new fields elide from the canonical encoding at their empty
        # defaults, so every digest pinned before they existed still holds;
        # opting in moves the digest like any other field change.
        from repro.config import config_digest

        default = config_digest(RobustnessConfig())
        opted_in = config_digest(
            dataclasses.replace(RobustnessConfig(), topology_leaves=(1, 2))
        )
        assert default != opted_in
