"""Measures the fabric and flow-level traffic against the single switch.

The scenario-core claim: the leaf-spine :class:`Fabric` costs roughly
one reference-engine switch per member switch (no super-linear
orchestration overhead — switch-steps/sec stays within a small factor
of the standalone reference simulator), and the flow-level generator's
``arrivals_batch`` path keeps the array engine's trace generation within
the same order of magnitude as the closed-form Poisson generator.

Writes ``BENCH_topology.json`` at the repo root (switch-steps/sec for
the single switch and the fabric, steps/sec for flow-mode trace
generation) in the shared :mod:`benchmarks.bench_schema` shape,
alongside the human-readable ``benchmarks/results/topology.txt``.
"""

from __future__ import annotations

import dataclasses
import time

from benchmarks.bench_schema import write_bench_json
from benchmarks.conftest import save_result
from repro.eval.fabric_scenarios import LeafSpineConfig, build_leaf_traffic
from repro.eval.scenarios import build_traffic, quick_scenario
from repro.switchsim import Fabric, Simulation
from repro.traffic import FlowTrafficConfig, FlowTrafficGenerator


def _time_single_switch(scenario, num_bins):
    sim = Simulation(
        scenario.switch_config(),
        build_traffic(scenario, seed=0),
        steps_per_bin=scenario.steps_per_bin,
        engine="reference",
    )
    start = time.perf_counter()
    sim.run(num_bins)
    return time.perf_counter() - start


def _time_fabric(config):
    fabric = Fabric(
        config.topology,
        build_leaf_traffic(config, seed=0),
        steps_per_bin=config.steps_per_bin,
    )
    start = time.perf_counter()
    trace = fabric.run(config.duration_bins)
    return time.perf_counter() - start, trace


def _time_flow_engine(num_bins, engine):
    scenario = quick_scenario()
    sim = Simulation(
        scenario.switch_config(),
        FlowTrafficGenerator(
            FlowTrafficConfig(flows_per_step=0.01), seed=0
        ),
        steps_per_bin=scenario.steps_per_bin,
        engine=engine,
    )
    start = time.perf_counter()
    sim.run(num_bins)
    return time.perf_counter() - start


def test_topology(bench_profile, results_dir):
    if bench_profile == "paper":
        num_bins, fabric_bins, flow_bins, max_overhead = 2000, 2000, 2000, 3.0
    else:
        # CI smoke: smaller run, looser ceiling (shared runners are noisy).
        num_bins, fabric_bins, flow_bins, max_overhead = 400, 400, 400, 6.0

    scenario = dataclasses.replace(quick_scenario(), duration_bins=num_bins)
    config = dataclasses.replace(LeafSpineConfig(), duration_bins=fabric_bins)
    num_switches = config.topology.num_switches

    single_seconds = _time_single_switch(scenario, num_bins)
    fabric_seconds, fabric_trace = _time_fabric(config)
    flow_ref_seconds = _time_flow_engine(flow_bins, "reference")
    flow_arr_seconds = _time_flow_engine(flow_bins, "array")

    single_steps = num_bins * scenario.steps_per_bin
    fabric_switch_steps = (
        num_switches * fabric_bins * config.steps_per_bin
    )
    flow_steps = flow_bins * quick_scenario().steps_per_bin

    single_rate = single_steps / single_seconds
    fabric_rate = fabric_switch_steps / fabric_seconds
    # Per-switch-step cost of the fabric relative to the standalone
    # reference loop; 1.0 means zero orchestration overhead.
    overhead = single_rate / fabric_rate

    assert set(fabric_trace.switches) == {"leaf0", "leaf1", "spine0"}
    assert num_switches == 3

    assert overhead <= max_overhead, (
        f"fabric costs {overhead:.1f}x per switch-step "
        f"(ceiling {max_overhead}x)"
    )

    write_bench_json(
        "topology",
        config=config,
        timings={
            "single_switch_seconds": single_seconds,
            "fabric_seconds": fabric_seconds,
            "flow_reference_seconds": flow_ref_seconds,
            "flow_array_seconds": flow_arr_seconds,
        },
        metrics={
            "profile": bench_profile,
            "num_switches": num_switches,
            "single_switch_steps_per_sec": single_rate,
            "fabric_switch_steps_per_sec": fabric_rate,
            "fabric_overhead_vs_reference": overhead,
            "flow_reference_steps_per_sec": flow_steps / flow_ref_seconds,
            "flow_array_steps_per_sec": flow_steps / flow_arr_seconds,
        },
    )

    lines = [
        f"profile: {bench_profile}",
        f"single switch (reference): {single_rate:>12,.0f} switch-steps/s"
        f"  ({single_seconds:.2f} s)",
        f"fabric ({num_switches} switches):     {fabric_rate:>12,.0f} switch-steps/s"
        f"  ({fabric_seconds:.2f} s)",
        f"fabric overhead:           {overhead:.2f}x per switch-step",
        f"flow mode, reference:      {flow_steps / flow_ref_seconds:>12,.0f} steps/s",
        f"flow mode, array:          {flow_steps / flow_arr_seconds:>12,.0f} steps/s",
    ]
    save_result(results_dir, "topology.txt", "\n".join(lines))
