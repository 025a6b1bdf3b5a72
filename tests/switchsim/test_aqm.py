"""The AQM strategy seam: DT verbatim, RED and ECN inside its envelope."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.switchsim import (
    AQM_ADMIT,
    AQM_ADMIT_MARK,
    AQM_DROP,
    AqmConfig,
    DtPolicy,
    EcnPolicy,
    RedPolicy,
    Simulation,
    SwitchConfig,
)
from repro.switchsim.engine import ArraySwitchEngine
from repro.traffic.generators import PoissonFlowTraffic


def _config(**overrides) -> SwitchConfig:
    base = dict(
        num_ports=2, queues_per_port=2, buffer_capacity=40, alphas=(1.0, 0.5)
    )
    base.update(overrides)
    return SwitchConfig(**base)


TRACE_FIELDS = (
    "qlen", "qlen_max", "received", "sent", "dropped", "delay_sum",
    "buffer_occupancy",
)

#: Policies the array engine must reproduce against the reference engine.
#: RED's thresholds keep max_th above the DT bound (alpha*B/(1+alpha) = 20
#: packets for alpha = 1, B = 40), so every early drop is a ramp draw.
POLICIES = {
    "red_ramp": lambda: RedPolicy(min_th=4, max_th=30, max_p=0.9, seed=2),
    "red_config": AqmConfig(
        policy="red", red_min_frac=0.05, red_max_frac=0.2, red_max_p=0.9
    ).factory(40),
    "ecn": lambda: EcnPolicy(mark_threshold=6),
    "dt": DtPolicy,
}


def _simulate(factory, engine: str, bins=(200,)):
    """Run one simulation in ``bins`` installments; returns it and the trace."""
    simulation = Simulation(
        _config(aqm_factory=factory),
        PoissonFlowTraffic(num_sources=8, num_ports=2, flows_per_step=0.08, seed=4),
        steps_per_bin=8,
        engine=engine,
    )
    parts = [simulation.run(n) for n in bins]
    joined = {
        field: np.concatenate([getattr(p, field) for p in parts], axis=-1)
        for field in TRACE_FIELDS
    }
    return simulation, joined


class TestDtPolicy:
    @pytest.mark.parametrize(
        ("qlen", "alpha", "occ", "capacity"),
        [(0, 1.0, 0, 40), (5, 0.5, 10, 40), (39, 1.0, 39, 40), (0, 1.0, 40, 40)],
    )
    def test_matches_the_inline_dt_expression(self, qlen, alpha, occ, capacity):
        inline = occ < capacity and qlen < alpha * (capacity - occ)
        decision = DtPolicy().admit(qlen, alpha, occ, capacity)
        assert decision == (AQM_ADMIT if inline else AQM_DROP)

    def test_never_counts_drops_as_early(self):
        policy = DtPolicy()
        policy.admit(0, 1.0, 40, 40)
        assert policy.early_drops == 0
        assert policy.packets_marked == 0


class TestRedPolicy:
    def test_below_min_threshold_always_admits(self):
        policy = RedPolicy(min_th=6, max_th=20, max_p=1.0)
        assert all(
            policy.admit(q, 1.0, q, 40) == AQM_ADMIT for q in range(6)
        )
        assert policy.early_drops == 0

    def test_at_max_threshold_always_drops_early(self):
        # alpha=2 keeps DT permissive so the refusal is RED's own.
        policy = RedPolicy(min_th=6, max_th=20, max_p=0.1)
        assert policy.admit(20, 2.0, 20, 40) == AQM_DROP
        assert policy.early_drops == 1

    def test_stays_inside_the_dt_envelope(self):
        # DT refusal dominates and is never attributed to RED.
        policy = RedPolicy(min_th=6, max_th=20, max_p=1.0)
        assert policy.admit(0, 1.0, 40, 40) == AQM_DROP
        assert policy.early_drops == 0

    def test_ramp_drops_are_seeded_and_reset_restores_the_stream(self):
        def stream(policy):
            return [policy.admit(10, 1.0, 10, 40) for _ in range(64)]

        a = RedPolicy(min_th=6, max_th=20, max_p=0.9, seed=3)
        first = stream(a)
        assert AQM_DROP in first and AQM_ADMIT in first
        a.reset()
        assert a.early_drops == 0
        assert stream(a) == first
        assert stream(RedPolicy(min_th=6, max_th=20, max_p=0.9, seed=4)) != first

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="min_th"):
            RedPolicy(min_th=20, max_th=20, max_p=0.1)
        with pytest.raises(ValueError, match="max_p"):
            RedPolicy(min_th=1, max_th=2, max_p=1.5)


class TestEcnPolicy:
    def test_marks_at_threshold_but_admits(self):
        policy = EcnPolicy(mark_threshold=10)
        assert policy.admit(9, 1.0, 9, 40) == AQM_ADMIT
        assert policy.admit(10, 1.0, 10, 40) == AQM_ADMIT_MARK
        assert policy.packets_marked == 1
        assert policy.early_drops == 0

    def test_stays_inside_the_dt_envelope(self):
        policy = EcnPolicy(mark_threshold=0)
        assert policy.admit(0, 1.0, 40, 40) == AQM_DROP
        assert policy.packets_marked == 0


class TestAqmConfig:
    def test_dt_factory_is_none(self):
        assert AqmConfig().factory(40) is None

    def test_red_factory_scales_thresholds_by_capacity(self):
        config = AqmConfig(
            policy="red", red_min_frac=0.25, red_max_frac=0.5, red_max_p=0.2
        )
        policy = config.factory(40)()
        assert isinstance(policy, RedPolicy)
        assert policy.min_th == 10.0
        assert policy.max_th == 20.0
        assert policy.max_p == 0.2

    def test_ecn_factory_scales_mark_point(self):
        policy = AqmConfig(policy="ecn", ecn_mark_frac=0.3).factory(40)()
        assert isinstance(policy, EcnPolicy)
        assert policy.mark_threshold == 12.0

    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AqmConfig(policy="codel")
        with pytest.raises(ValueError, match="red_min_frac"):
            AqmConfig(red_min_frac=0.6, red_max_frac=0.5)


class TestSwitchIntegration:
    """An aqm_factory reroutes admission; both engines run it."""

    def _run(self, aqm: AqmConfig, seed: int = 0, engine: str = "auto"):
        config = _config(aqm_factory=aqm.factory(40))
        simulation = Simulation(
            config,
            PoissonFlowTraffic(
                num_sources=8, num_ports=2, flows_per_step=0.08, seed=seed
            ),
            steps_per_bin=8,
            engine=engine,
            selfcheck=True,
        )
        trace = simulation.run(200)
        return simulation, trace

    def test_array_engine_supports_aqm_configs(self):
        for aqm in (AqmConfig(policy="red"), AqmConfig(policy="ecn")):
            assert ArraySwitchEngine.supports(_config(aqm_factory=aqm.factory(40)))
        assert ArraySwitchEngine.supports(_config(aqm_factory=DtPolicy))
        assert ArraySwitchEngine.supports(_config())

    def test_auto_engine_picks_array(self):
        simulation, _ = self._run(AqmConfig(policy="red"))
        assert simulation.engine == "array"

    def test_red_attributes_early_drops(self):
        simulation, trace = self._run(
            AqmConfig(policy="red", red_min_frac=0.05, red_max_frac=0.2,
                      red_max_p=0.9)
        )
        policy = simulation.switch.aqm
        assert policy.early_drops > 0
        assert int(trace.dropped.sum()) >= policy.early_drops

    def test_ecn_marks_without_dropping_more_than_dt(self):
        # Per-queue mark counts live on the reference engine's queue objects.
        simulation, _ = self._run(
            AqmConfig(policy="ecn", ecn_mark_frac=0.05), engine="reference"
        )
        assert simulation.switch.aqm.packets_marked > 0
        marked = sum(q.total_marked for q in simulation.switch.queues)
        assert marked == simulation.switch.aqm.packets_marked

    def test_dt_policy_object_reproduces_the_legacy_path(self):
        # The strategy seam itself is bit-transparent: DtPolicy-as-object
        # produces the exact trace the inline admission produces.
        config_inline = _config()
        config_policy = _config(aqm_factory=DtPolicy)
        traces = []
        for config in (config_inline, config_policy):
            simulation = Simulation(
                config,
                PoissonFlowTraffic(
                    num_sources=8, num_ports=2, flows_per_step=0.08, seed=5
                ),
                steps_per_bin=8,
                engine="reference",
            )
            traces.append(simulation.run(200))
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(
                getattr(traces[0], field), getattr(traces[1], field)
            )

    def test_reset_clears_policy_counters(self):
        simulation, _ = self._run(
            AqmConfig(policy="red", red_min_frac=0.05, red_max_frac=0.2,
                      red_max_p=0.9)
        )
        assert simulation.switch.aqm.early_drops > 0
        simulation.switch.reset()
        assert simulation.switch.aqm.early_drops == 0


class TestArrayEngineAqm:
    """The array engine admits through ``AqmPolicy.admit``, bit-exactly."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_trace_and_counters_match_reference(self, name):
        reference, ref_trace = _simulate(POLICIES[name], "reference")
        array, arr_trace = _simulate(POLICIES[name], "array")
        assert array.engine == "array"
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(ref_trace[field], arr_trace[field], field)
        assert array.switch.aqm.early_drops == reference.switch.aqm.early_drops
        assert array.switch.aqm.packets_marked == reference.switch.aqm.packets_marked

    def test_red_ramp_is_exercised(self):
        simulation, trace = _simulate(POLICIES["red_ramp"], "array")
        # Early drops with every queue below max_th come from the RNG ramp.
        assert simulation.switch.aqm.early_drops > 0
        assert int(trace["qlen_max"].max()) < 30

    def test_ecn_marks_are_counted(self):
        simulation, _ = _simulate(POLICIES["ecn"], "array")
        assert simulation.switch.aqm.packets_marked > 0
        assert simulation.switch.aqm.early_drops == 0

    @pytest.mark.parametrize("name", ["red_ramp", "ecn"])
    def test_two_runs_equal_one(self, name):
        whole, whole_trace = _simulate(POLICIES[name], "reference")
        split, split_trace = _simulate(POLICIES[name], "array", bins=(75, 125))
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(whole_trace[field], split_trace[field], field)
        assert split.switch.aqm.early_drops == whole.switch.aqm.early_drops
        assert split.switch.aqm.packets_marked == whole.switch.aqm.packets_marked

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_switch_reset_resets_the_policy_the_engine_uses(self, engine):
        simulation, _ = _simulate(POLICIES["red_ramp"], engine)
        policy = simulation.switch.aqm
        assert policy.early_drops > 0
        simulation.switch.reset()
        assert policy.early_drops == 0
        assert policy.packets_marked == 0
        # The RED stream restarts: the next decisions are a fresh policy's.
        fresh = POLICIES["red_ramp"]()
        assert [policy.admit(10, 1.0, 10, 40) for _ in range(32)] == [
            fresh.admit(10, 1.0, 10, 40) for _ in range(32)
        ]

    def test_standalone_engine_builds_its_own_policy(self):
        config = _config(aqm_factory=POLICIES["ecn"])
        engine = ArraySwitchEngine(config)
        assert isinstance(engine.aqm, EcnPolicy)
        assert ArraySwitchEngine(_config()).aqm is None


def test_scenario_config_unchanged_by_aqm_wiring():
    # trace_cache_params hashes ScenarioConfig via asdict; the AQM seam
    # must not have added fields there (cache keys would all move).
    from repro.eval.scenarios import ScenarioConfig

    assert "aqm" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
