"""The pluggable-scenario registry entries: fabric, AQM, and flow-level.

Three new end-to-end scenarios compose the pluggable pieces — the
leaf-spine :class:`~repro.switchsim.fabric.Fabric`, the
:class:`~repro.switchsim.aqm.AqmPolicy` strategies, and the flow-level
:class:`~repro.traffic.flows.FlowTrafficGenerator` — into runnable
experiments (``repro run <name>``):

* ``leaf_spine_small`` — websearch traffic across a small leaf-spine
  fabric; per-(switch, queue) datasets with optional cross-switch
  correlation features.
* ``red_websearch`` — the paper's single-switch websearch+incast
  scenario under RED early-drop admission instead of plain DT.
* ``flow_incast`` — flow-level background traffic (sizes *and* RTTs
  sampled, packets paced per flow) plus the incast bursts.

Every run function honours ``--selfcheck``: the per-switch trace runs
the PR-2 invariant oracles (C1–C3 backbone: conservation, occupancy,
DT bound, work conservation) and every produced dataset goes through
:func:`~repro.testing.oracles.check_dataset_consistency`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.eval.scenarios import ScenarioConfig, quick_scenario
from repro.switchsim.aqm import AqmConfig
from repro.switchsim.fabric import TopologyConfig
from repro.traffic.flows import FlowTrafficConfig
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_positive

__all__ = [
    "FlowIncastConfig",
    "LeafSpineConfig",
    "RedWebsearchConfig",
    "build_flow_incast_traffic",
    "build_leaf_traffic",
    "run_flow_incast_experiment",
    "run_leaf_spine_experiment",
    "run_red_websearch_experiment",
]


# ----------------------------------------------------------------------
# Configs (schema-facing, TOML-expressible)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeafSpineConfig:
    """Websearch traffic across a leaf-spine fabric.

    Each leaf injects its own websearch flow pool addressed to *global*
    hosts (uniform), so a ``websearch_load`` fraction of every leaf's
    host capacity crosses the fabric; roughly half of it transits a
    spine.  Windowing parameters mirror :class:`~repro.eval.scenarios.
    ScenarioConfig`; ``cross_switch_features`` appends one peer-summary
    channel per other switch to every sample (see
    :mod:`repro.telemetry.fabric`).
    """

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    aqm: AqmConfig = field(default_factory=AqmConfig)
    websearch_load: float = 0.35
    websearch_sources: int = 8
    steps_per_bin: int = 8
    duration_bins: int = 1200
    interval: int = 25
    window_intervals: int = 4
    stride_intervals: int = 2
    cross_switch_features: bool = True
    seed: int = 0

    def __post_init__(self):
        check_positive("duration_bins", self.duration_bins)
        check_positive("steps_per_bin", self.steps_per_bin)
        check_positive("interval", self.interval)
        check_positive("window_intervals", self.window_intervals)
        check_positive("stride_intervals", self.stride_intervals)
        check_positive("websearch_sources", self.websearch_sources)
        if not 0 < self.websearch_load:
            raise ValueError(
                f"websearch_load must be > 0, got {self.websearch_load}"
            )


@dataclass(frozen=True)
class RedWebsearchConfig:
    """The paper scenario under RED early-drop admission.

    ``scenario`` is the unchanged single-switch workload description;
    ``aqm`` must not be plain ``"dt"`` (that is just ``simulate``).
    The array engine runs the policy through the same
    ``AqmPolicy.admit`` the reference engine calls.
    """

    scenario: ScenarioConfig = field(default_factory=quick_scenario)
    aqm: AqmConfig = field(
        default_factory=lambda: AqmConfig(policy="red")
    )
    seed: int = 0

    def __post_init__(self):
        if self.aqm.policy == "dt":
            raise ValueError(
                'red_websearch needs a non-"dt" aqm policy; '
                "use the simulate experiment for plain DT"
            )


@dataclass(frozen=True)
class FlowIncastConfig:
    """Flow-level background traffic plus the scenario's incast bursts.

    ``flow_traffic`` replaces the line-rate websearch source pool with
    the paced flow-level mode (:class:`~repro.traffic.flows.
    FlowTrafficGenerator`); the incast component and the switch/window
    geometry still come from ``scenario``.
    """

    scenario: ScenarioConfig = field(default_factory=quick_scenario)
    flow_traffic: FlowTrafficConfig = field(
        # ~0.56 offered load on the quick scenario's two ports
        # (0.005 flows/step x ~224 pkts mean websearch flow / 2 ports).
        default_factory=lambda: FlowTrafficConfig(flows_per_step=0.005)
    )
    seed: int = 0

    def __post_init__(self):
        if self.flow_traffic.num_ports != self.scenario.num_ports:
            raise ValueError(
                f"flow_traffic.num_ports ({self.flow_traffic.num_ports}) must "
                f"match scenario.num_ports ({self.scenario.num_ports})"
            )
        if len(self.flow_traffic.class_weights) != self.scenario.queues_per_port:
            raise ValueError(
                "flow_traffic.class_weights must have one weight per queue "
                f"class: got {len(self.flow_traffic.class_weights)} for "
                f"{self.scenario.queues_per_port} queues"
            )


# ----------------------------------------------------------------------
# Traffic builders
# ----------------------------------------------------------------------
def build_leaf_traffic(config: LeafSpineConfig, seed: RngLike = 0) -> list:
    """One websearch generator per leaf, addressing global hosts.

    Offered load per leaf = ``websearch_load`` × ``hosts_per_leaf``
    packets/step (each leaf drains one packet per host port per step);
    destinations are uniform over all fabric hosts, so cross-leaf flows
    transit a spine.  Child RNGs are spawned per leaf — deterministic
    and independent, and each generator can batch for the fabric feed.
    """
    from repro.traffic.distributions import WebsearchSizes
    from repro.traffic.generators import PoissonFlowTraffic

    topology = config.topology
    child_rngs = spawn_generators(seed, topology.leaves)
    sizes = WebsearchSizes()
    flows_per_step = (
        config.websearch_load * topology.hosts_per_leaf / sizes.mean()
    )
    return [
        PoissonFlowTraffic(
            num_sources=config.websearch_sources,
            num_ports=topology.total_hosts,
            flows_per_step=flows_per_step,
            sizes=sizes,
            seed=child_rngs[leaf],
        )
        for leaf in range(topology.leaves)
    ]


def build_flow_incast_traffic(config: FlowIncastConfig, seed: RngLike = 0):
    """Flow-level background + the scenario's incast bursts.

    The composite mirrors :func:`~repro.eval.scenarios.build_traffic`'s
    RNG discipline: one spawned child stream per component, incast
    victims phase-shifted exactly as in the packet-level scenario.
    """
    from repro.traffic.flows import FlowTrafficGenerator
    from repro.traffic.generators import CompositeTraffic, IncastTraffic

    scenario = config.scenario
    child_rngs = spawn_generators(seed, 1 + len(scenario.incast_dsts))
    background = FlowTrafficGenerator(config.flow_traffic, seed=child_rngs[0])
    period_steps = scenario.incast_period * scenario.steps_per_bin
    incasts = []
    for i, dst in enumerate(scenario.incast_dsts):
        incasts.append(
            IncastTraffic(
                fan_in=scenario.incast_fan_in,
                burst_size=scenario.incast_burst,
                period=period_steps,
                dst_port=dst % scenario.num_ports,
                qclass=min(1, scenario.queues_per_port - 1),
                jitter=scenario.incast_jitter * scenario.steps_per_bin,
                seed=child_rngs[1 + i],
                start_step=(i * period_steps)
                // max(len(scenario.incast_dsts), 1),
            )
        )
    return CompositeTraffic([background, *incasts])


# ----------------------------------------------------------------------
# Run functions (config in, exit code out, report on stdout)
# ----------------------------------------------------------------------
def _report_aqm(policy) -> str:
    if policy is None:
        return ""
    return (
        f", early_drops {policy.early_drops}, marked {policy.packets_marked}"
    )


def run_leaf_spine_experiment(
    config: LeafSpineConfig, selfcheck: bool = False
) -> int:
    """Run the fabric scenario and window every switch into datasets."""
    from repro.switchsim.fabric import Fabric
    from repro.telemetry.fabric import build_fabric_datasets

    fabric = Fabric(
        config.topology,
        build_leaf_traffic(config, seed=config.seed),
        steps_per_bin=config.steps_per_bin,
        aqm=config.aqm,
        selfcheck=selfcheck,
    )
    fabric_trace = fabric.run(config.duration_bins)
    datasets = build_fabric_datasets(
        fabric_trace,
        interval=config.interval,
        window_intervals=config.window_intervals,
        stride_intervals=config.stride_intervals,
        cross_switch_features=config.cross_switch_features,
    )
    print(
        f"leaf_spine: {config.topology.leaves} leaves x "
        f"{config.topology.spines} spines, {config.duration_bins} bins, "
        f"aqm={config.aqm.policy}"
    )
    checked = 0
    for name, trace in fabric_trace.switches.items():
        dataset = datasets[name]
        sample = dataset.samples[0] if dataset.samples else None
        channels = sample.features.shape[1] if sample is not None else 0
        print(
            f"  {name}: sent {int(trace.sent.sum())}, "
            f"dropped {int(trace.dropped.sum())}, "
            f"{len(dataset.samples)} windows x {channels} channels"
        )
        if selfcheck:
            from repro.testing.oracles import check_dataset_consistency

            checked += check_dataset_consistency(dataset)
    if selfcheck:
        print(f"  selfcheck: trace oracles clean, {checked} windows C1-C3 clean")
    return 0


def run_red_websearch_experiment(
    config: RedWebsearchConfig, selfcheck: bool = False
) -> int:
    """Paper workload under RED/ECN admission on the array engine."""
    from repro.eval.scenarios import build_traffic
    from repro.switchsim.simulation import Simulation
    from repro.telemetry.dataset import build_dataset

    scenario = config.scenario
    switch_config = dataclasses.replace(
        scenario.switch_config(),
        aqm_factory=config.aqm.factory(scenario.buffer_capacity),
    )
    simulation = Simulation(
        switch_config,
        build_traffic(scenario, seed=config.seed),
        steps_per_bin=scenario.steps_per_bin,
        engine="auto",
        selfcheck=selfcheck,
    )
    trace = simulation.run(scenario.duration_bins)
    dataset = build_dataset(
        trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=scenario.stride_intervals,
    )
    print(
        f"red_websearch: aqm={config.aqm.policy}, engine={simulation.engine}, "
        f"{scenario.duration_bins} bins"
    )
    print(
        f"  sent {int(trace.sent.sum())}, dropped {int(trace.dropped.sum())}"
        f"{_report_aqm(simulation.switch.aqm)}, "
        f"{len(dataset.samples)} windows"
    )
    if selfcheck:
        from repro.testing.oracles import check_dataset_consistency

        checked = check_dataset_consistency(dataset)
        print(f"  selfcheck: trace oracles clean, {checked} windows C1-C3 clean")
    return 0


def run_flow_incast_experiment(
    config: FlowIncastConfig, selfcheck: bool = False
) -> int:
    """Flow-level background + incast through the single-switch scenario."""
    from repro.switchsim.simulation import Simulation
    from repro.telemetry.dataset import build_dataset

    scenario = config.scenario
    simulation = Simulation(
        scenario.switch_config(),
        build_flow_incast_traffic(config, seed=config.seed),
        steps_per_bin=scenario.steps_per_bin,
        engine="auto",  # flow generators batch, so the array engine applies
        selfcheck=selfcheck,
    )
    trace = simulation.run(scenario.duration_bins)
    dataset = build_dataset(
        trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=scenario.stride_intervals,
    )
    print(
        f"flow_incast: {config.flow_traffic.flows_per_step} flows/step "
        f"({config.flow_traffic.size_dist} sizes, rtt "
        f"{config.flow_traffic.min_rtt_steps}-{config.flow_traffic.max_rtt_steps} "
        f"steps), engine={simulation.engine}, {scenario.duration_bins} bins"
    )
    print(
        f"  sent {int(trace.sent.sum())}, dropped {int(trace.dropped.sum())}, "
        f"{len(dataset.samples)} windows"
    )
    if selfcheck:
        from repro.testing.oracles import check_dataset_consistency

        checked = check_dataset_consistency(dataset)
        print(f"  selfcheck: trace oracles clean, {checked} windows C1-C3 clean")
    return 0
