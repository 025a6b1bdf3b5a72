"""Tests for the full FM switch model (§2.3)."""

import numpy as np
import pytest

from repro.fm import FMImputer, FMScenario, scenario_from_trace
from repro.switchsim import Simulation, SwitchConfig
from repro.traffic import ScriptedTraffic


def tiny_trace(script, bins, num_ports=1, queues_per_port=2, buffer=6):
    cfg = SwitchConfig(
        num_ports=num_ports,
        queues_per_port=queues_per_port,
        buffer_capacity=buffer,
        alphas=tuple([1e6] * queues_per_port),  # drop-at-full-buffer
    )
    return Simulation(cfg, ScriptedTraffic(script), steps_per_bin=1).run(bins)


class TestScenarioFromTrace:
    def test_requires_step_granularity(self, small_trace):
        with pytest.raises(ValueError):
            scenario_from_trace(small_trace, 4, 2, fan_in=2)

    def test_measurements_match_trace(self):
        trace = tiny_trace({0: [(0, 0), (0, 0)], 2: [(0, 1)]}, bins=8)
        scenario = scenario_from_trace(trace, steps_per_interval=4, num_intervals=2, fan_in=2)
        np.testing.assert_array_equal(
            scenario.m_sent[0], trace.sent[0].reshape(2, 4).sum(axis=1)
        )
        np.testing.assert_array_equal(scenario.m_sample[:, 0], trace.qlen[:, 3])

    def test_rejects_short_trace(self):
        trace = tiny_trace({}, bins=4)
        with pytest.raises(ValueError):
            scenario_from_trace(trace, steps_per_interval=4, num_intervals=2, fan_in=1)


class TestFMImputer:
    def test_reconstructs_consistent_series(self):
        script = {0: [(0, 0), (0, 0)], 1: [(0, 0), (0, 1)], 4: [(0, 1), (0, 1)]}
        trace = tiny_trace(script, bins=8)
        scenario = scenario_from_trace(trace, steps_per_interval=4, num_intervals=2, fan_in=3)
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.is_sat
        qlen = result.qlen
        # Measurement constraints hold on the reconstruction.
        assert qlen.shape == trace.qlen.shape
        np.testing.assert_array_equal(
            qlen.reshape(2, 2, 4).max(axis=2), scenario.m_max
        )
        np.testing.assert_array_equal(qlen[:, [3, 7]], scenario.m_sample)
        assert (qlen >= 0).all()

    def test_unsat_on_inconsistent_measurements(self):
        trace = tiny_trace({0: [(0, 0)]}, bins=4)
        scenario = scenario_from_trace(trace, steps_per_interval=4, num_intervals=1, fan_in=1)
        # Claim more packets were sent than could possibly arrive.
        scenario.m_sent[:] = 4
        scenario.m_received[:] = 1
        result = FMImputer(node_limit=20_000).impute(scenario)
        assert result.status == "unsat"

    def test_idle_switch_reconstructs_zeros(self):
        trace = tiny_trace({}, bins=4)
        scenario = scenario_from_trace(trace, steps_per_interval=4, num_intervals=1, fan_in=1)
        result = FMImputer().impute(scenario)
        assert result.is_sat
        np.testing.assert_array_equal(result.qlen, 0)

    def test_search_effort_grows_with_horizon(self):
        """The §2.3 scalability observation: more time steps, more nodes."""
        efforts = []
        for bins in (4, 8):
            script = {t: [(0, t % 2), (0, 0)] for t in range(0, bins, 2)}
            trace = tiny_trace(script, bins=bins)
            scenario = scenario_from_trace(
                trace, steps_per_interval=4, num_intervals=bins // 4, fan_in=3
            )
            result = FMImputer(node_limit=50_000).impute(scenario)
            assert result.is_sat
            efforts.append(result.nodes_explored)
        assert efforts[1] >= efforts[0]

    def test_respects_buffer_bound(self):
        script = {0: [(0, 0)] * 3, 1: [(0, 0)] * 3, 2: [(0, 0)] * 3}
        trace = tiny_trace(script, bins=4, buffer=4)
        scenario = scenario_from_trace(trace, steps_per_interval=4, num_intervals=1, fan_in=3)
        result = FMImputer().impute(scenario)
        assert result.is_sat
        assert result.qlen.sum(axis=0).max() <= 4
