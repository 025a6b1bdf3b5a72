"""The typed distribution-shift grid.

A :class:`ShiftPoint` names one evaluation condition: an axis (*what*
kind of shift), the swept knob's value, and either a shifted
:class:`~repro.eval.scenarios.ScenarioConfig` (the workload itself
moves: load, burst, buffer) or a telemetry-degradation setting applied
to the anchor scenario's windows (the workload is in-distribution but
the *measurements* are not: LANZ thresholding, SNMP poll loss — see
:mod:`repro.robustness.degrade`).

The grid is data, not behaviour: :func:`shift_grid` only does
``dataclasses.replace`` arithmetic, so tests can assert its exact shape
without simulating anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.config.errors import ConfigError
from repro.eval.scenarios import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.config import RobustnessConfig

#: Axis name -> stable sub-stream id for the degradation injectors.
#: Appending an axis must not reshuffle the randomness existing axes see.
AXIS_STREAMS = {
    "load": 1,
    "burst": 2,
    "buffer": 3,
    "lanz": 4,
    "snmp": 5,
    "topology": 6,
    "aqm": 7,
}

#: Axes whose shift changes the simulated workload (vs the telemetry).
SCENARIO_AXES = ("load", "burst", "buffer")
TELEMETRY_AXES = ("lanz", "snmp")
#: Axes that change the *system* around the workload: the fabric the
#: switch sits in (``topology``, leaf count) or its admission policy
#: (``aqm``, RED max drop probability).  Evaluated by dedicated
#: simulation paths in :mod:`repro.robustness.suite`.
STRUCTURAL_AXES = ("topology", "aqm")


@dataclass(frozen=True)
class ShiftPoint:
    """One evaluation condition of the grid."""

    axis: str  # "load" | "burst" | "buffer" | "lanz" | "snmp"
    value: float  # the swept knob's value at this point
    scenario: ScenarioConfig  # the evaluation workload (anchor or shifted)
    lanz_threshold: float = 0.0
    snmp_loss: float = 0.0

    @property
    def label(self) -> str:
        if self.axis == "lanz":
            return f"lanz thr={self.value:g}"
        if self.axis == "snmp":
            return f"snmp loss={self.value:.0%}"
        if self.axis == "topology":
            return f"topology leaves={int(self.value)}"
        if self.axis == "aqm":
            return "aqm dt" if self.value == 0 else f"aqm red p={self.value:g}"
        return f"{self.axis} x{self.value:g}"

    @property
    def degrades_telemetry(self) -> bool:
        return self.lanz_threshold > 0 or self.snmp_loss > 0

    def degrade_seed(self, base_seed: int) -> list[int]:
        """The injector seed sequence for this point (stable per axis)."""
        return [int(base_seed), AXIS_STREAMS[self.axis], int(round(self.value * 1000))]


#: (config field, axis, in-distribution anchor), in grid order.
_AXIS_FIELDS = (
    ("load_scales", "load", 1.0),
    ("burst_scales", "burst", 1.0),
    ("buffer_scales", "buffer", 1.0),
    ("lanz_thresholds", "lanz", 0.0),
    ("snmp_losses", "snmp", 0.0),
    ("topology_leaves", "topology", 1),
    ("red_drop_probs", "aqm", 0.0),
)


def _scaled_int(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(value * scale)))


def shift_grid(config: "RobustnessConfig") -> list[ShiftPoint]:
    """Materialise the typed grid of a :class:`RobustnessConfig`.

    Per axis, the first configured value is the in-distribution anchor;
    validation of that convention lives here so a mis-ordered config
    fails loudly before any training happens.  The workload and telemetry
    axes must be non-empty (an empty one would make the "degrades no
    faster on every axis" claim vacuous); the structural axes are opt-in.
    """
    base = config.scenario
    points: list[ShiftPoint] = []
    for field, axis, anchor in _AXIS_FIELDS:
        values = getattr(config, field)
        if not values:
            if axis in STRUCTURAL_AXES:
                continue
            raise ConfigError(
                f"axis {axis!r} needs at least its in-distribution anchor "
                f"{anchor!r}; an empty axis drops out of the shift claim",
                path=field,
            )
        if values[0] != anchor:
            raise ConfigError(
                f"axis {axis!r} must start at its in-distribution anchor "
                f"{anchor!r} (got {values[0]!r}); degradation curves "
                "are normalised to the first point",
                path=field,
            )
    for scale in config.load_scales:
        points.append(
            ShiftPoint(
                axis="load",
                value=float(scale),
                scenario=replace(base, websearch_load=base.websearch_load * scale),
            )
        )
    for scale in config.burst_scales:
        points.append(
            ShiftPoint(
                axis="burst",
                value=float(scale),
                scenario=replace(
                    base,
                    incast_fan_in=_scaled_int(base.incast_fan_in, scale),
                    incast_burst=_scaled_int(base.incast_burst, scale),
                ),
            )
        )
    for scale in config.buffer_scales:
        points.append(
            ShiftPoint(
                axis="buffer",
                value=float(scale),
                scenario=replace(
                    base, buffer_capacity=_scaled_int(base.buffer_capacity, scale, floor=2)
                ),
            )
        )
    for threshold in config.lanz_thresholds:
        points.append(
            ShiftPoint(
                axis="lanz", value=float(threshold), scenario=base,
                lanz_threshold=float(threshold),
            )
        )
    for loss in config.snmp_losses:
        points.append(
            ShiftPoint(
                axis="snmp", value=float(loss), scenario=base, snmp_loss=float(loss)
            )
        )
    for leaves in config.topology_leaves:
        if leaves < 1:
            raise ValueError(f"topology_leaves must be >= 1, got {leaves}")
        points.append(
            ShiftPoint(axis="topology", value=float(leaves), scenario=base)
        )
    for max_p in config.red_drop_probs:
        if not 0.0 <= max_p <= 1.0:
            raise ValueError(f"red_drop_probs must be in [0, 1], got {max_p}")
        points.append(ShiftPoint(axis="aqm", value=float(max_p), scenario=base))
    return points
