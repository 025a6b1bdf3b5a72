"""Tests for the Dynamic-Threshold mode of the FM switch model.

The DT constraints are a *sound relaxation* of the simulator's sequential
per-packet admission: every real DT trace must be SAT, and scenarios that
violate the threshold logic (queues above their DT cap, drops without a
reached threshold) must be UNSAT.
"""

import numpy as np
import pytest

from repro.fm import FMImputer, scenario_from_trace
from repro.switchsim import Simulation, SwitchConfig
from repro.traffic import ScriptedTraffic


def dt_trace(script, bins, alphas=(1.0, 1.0), buffer=6):
    """A 1-port/2-queue trace with real DT admission at step granularity."""
    config = SwitchConfig(
        num_ports=1, queues_per_port=2, buffer_capacity=buffer, alphas=alphas
    )
    return Simulation(config, ScriptedTraffic(script), steps_per_bin=1).run(bins)


ALPHA_ONE = ((1, 1), (1, 1))


class TestDtValidation:
    def test_rejects_alpha_count_mismatch(self):
        trace = dt_trace({}, bins=4)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=1, fan_in=1,
            alpha=((1, 1),),
        )
        with pytest.raises(ValueError, match="per class"):
            FMImputer().build(scenario)

    def test_rejects_non_positive_alpha(self):
        trace = dt_trace({}, bins=4)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=1, fan_in=1,
            alpha=((0, 1), (1, 1)),
        )
        with pytest.raises(ValueError, match="positive"):
            FMImputer().build(scenario)


class TestDtSoundness:
    """Real DT traces are always satisfiable under the relaxation."""

    def test_sat_on_light_trace(self):
        script = {0: [(0, 0)], 2: [(0, 1)], 5: [(0, 0)]}
        trace = dt_trace(script, bins=8)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=2, fan_in=1,
            alpha=ALPHA_ONE,
        )
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.is_sat
        np.testing.assert_array_equal(
            result.qlen.reshape(2, 2, 4).max(axis=2), scenario.m_max
        )

    def test_sat_on_trace_with_threshold_drops(self):
        # Fan-in of 3 saturates the DT threshold: with alpha=1 and B=4 a
        # single queue self-limits around 2, and the excess is dropped by
        # the threshold while the buffer is never full.
        script = {t: [(0, 0)] * 3 for t in range(8)}
        trace = dt_trace(script, bins=8, buffer=4)
        assert trace.dropped.sum() > 0
        assert trace.buffer_occupancy.max() < 4  # drops without a full buffer
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=2, fan_in=3,
            alpha=ALPHA_ONE,
        )
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.is_sat

    def test_alpha_infinity_mode_cannot_explain_dt_drops(self):
        """The α→∞ model requires a full buffer for any drop, so a trace
        whose drops came from the threshold is infeasible under it —
        demonstrating why the DT mode exists."""
        script = {t: [(0, 0)] * 3 for t in range(8)}
        trace = dt_trace(script, bins=8, buffer=4)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=2, fan_in=3, alpha=None
        )
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.status == "unsat"


class TestDtCompleteness:
    """Scenarios violating the threshold logic are rejected."""

    def test_rejects_queue_above_dt_cap(self):
        """With one arrival per step, alpha=1 and B=4, a queue can never
        grow to 4: admitting at len 3 would need 3 < (4 - occ) <= 1."""
        script = {0: [(0, 0)]}
        trace = dt_trace(script, bins=4, buffer=4)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=1, fan_in=1,
            alpha=ALPHA_ONE,
        )
        scenario.m_max[0, 0] = 4
        scenario.m_sample[0, 0] = 4
        scenario.m_received[0, 0] = 6
        scenario.m_sent[0, 0] = 2
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.status == "unsat"

    def test_rejects_drops_below_threshold(self):
        """Claiming drops while queues stayed far below every threshold is
        inconsistent with the DT rule."""
        script = {0: [(0, 0)], 1: [(0, 0)]}
        trace = dt_trace(script, bins=4, buffer=6)
        scenario = scenario_from_trace(
            trace, steps_per_interval=4, num_intervals=1, fan_in=1,
            alpha=ALPHA_ONE,
        )
        # Fabricate: same tiny maxima, but claim a drop happened.
        scenario.m_dropped[0, 0] = 1
        scenario.m_received[0, 0] += 1
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.status == "unsat"
