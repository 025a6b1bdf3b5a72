"""Scalability study: FM-only imputation vs the CEM (§2.3 and §4).

The paper's qualitative result: Z3 on the full per-time-step model solves
toy scenarios in minutes but cannot handle realistic horizons (24 h+),
while the CEM corrects a 50 ms window in ~1.47 s.  This module reproduces
the *shape*: FM solve time (and explored nodes) grows explosively with the
horizon while CEM time stays flat in window count — the crossover is the
paper's argument for ML+FM over FM alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.fm.cem_milp import MilpCem
from repro.fm.model import FMImputer, scenario_from_trace
from repro.imputation.cem import ConstraintEnforcer
from repro.switchsim.simulation import Simulation
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import TelemetryDataset
from repro.traffic.generators import PoissonFlowTraffic
from repro.traffic.distributions import FixedSizes
from repro.utils.rng import RngLike, as_generator


@dataclass(frozen=True)
class ScalabilityConfig:
    """Declarative form of the FM-alone scaling study (``fm_scaling``).

    The registered ``scalability`` experiment runs exactly this
    (``repro run scalability --set "horizons=[4, 8]"``).  ``deadline`` is
    the per-solve wall-clock budget in seconds (``None`` = unbounded;
    TOML files express "unbounded" by omitting the key).
    """

    horizons: tuple[int, ...] = (8, 16, 32)
    steps_per_interval: int = 4
    node_limit: int = 2_000
    seed: int = 0
    deadline: float | None = None


def run_scaling(config: ScalabilityConfig) -> "list[FmScalingPoint]":
    """:func:`fm_scaling` driven by a :class:`ScalabilityConfig`."""
    return fm_scaling(
        list(config.horizons),
        steps_per_interval=config.steps_per_interval,
        node_limit=config.node_limit,
        seed=config.seed,
        deadline=config.deadline,
    )


@dataclass
class FmScalingPoint:
    """One (horizon → solve effort) measurement."""

    horizon: int
    status: str
    solve_seconds: float
    nodes_explored: int
    hit_node_limit: bool
    timed_out: bool = False


def _fm_trace(horizon: int, seed: RngLike):
    """A small 1-port/2-queue trace at packet-time-step granularity.

    Uses drop-at-full-buffer (huge DT alphas) to match the FM model's
    buffer semantics, so the scenario is guaranteed satisfiable.
    """
    config = SwitchConfig(
        num_ports=1,
        queues_per_port=2,
        buffer_capacity=8,
        alphas=(1e6, 1e6),
    )
    traffic = PoissonFlowTraffic(
        num_sources=3,
        num_ports=1,
        flows_per_step=0.3,
        sizes=FixedSizes(2),
        class_weights=(0.5, 0.5),
        seed=seed,
    )
    simulation = Simulation(config, traffic, steps_per_bin=1)
    return simulation.run(horizon)


def fm_scaling(
    horizons: list[int],
    steps_per_interval: int = 4,
    node_limit: int = 2_000,
    seed: RngLike = 0,
    deadline: float | None = None,
) -> list[FmScalingPoint]:
    """Solve the full FM model at growing horizons; returns one point each.

    Horizons must be multiples of ``steps_per_interval``.  Each horizon
    gets an independent traffic seed derived from ``seed`` so the curve is
    reproducible point by point.  ``node_limit`` bounds the search budget:
    hitting it is a *result* (the paper's "did not terminate"), not an
    error.  The search is the from-scratch branch and bound; its LP
    relaxations are solved with HiGHS.
    """
    base = as_generator(seed)
    seeds = [int(base.integers(0, 2**63)) for _ in horizons]
    points: list[FmScalingPoint] = []
    with obs.span("scalability.fm_scaling", horizons=list(map(int, horizons))):
        for horizon, horizon_seed in zip(horizons, seeds):
            if horizon % steps_per_interval:
                raise ValueError(
                    f"horizon {horizon} not a multiple of interval {steps_per_interval}"
                )
            with obs.span("scalability.horizon", horizon=int(horizon)) as span:
                trace = _fm_trace(horizon, horizon_seed)
                scenario = scenario_from_trace(
                    trace,
                    steps_per_interval=steps_per_interval,
                    num_intervals=horizon // steps_per_interval,
                    fan_in=3,
                )
                imputer = FMImputer(node_limit=node_limit, deadline=deadline)
                result = imputer.impute(scenario)
                span.annotate(status=result.status, nodes=result.nodes_explored)
                obs.series("scalability.nodes_explored").append(result.nodes_explored)
            points.append(
                FmScalingPoint(
                    horizon=horizon,
                    status=result.status,
                    solve_seconds=result.solve_time,
                    nodes_explored=result.nodes_explored,
                    hit_node_limit=result.hit_node_limit,
                    timed_out=result.timed_out,
                )
            )
    return points


@dataclass
class CemTiming:
    """Average per-window CEM correction time (fast and solver-based)."""

    greedy_seconds: float
    milp_seconds: float
    milp_solved: int
    num_windows: int


def cem_timing(
    dataset: TelemetryDataset,
    imputed_windows: list[np.ndarray],
    max_milp_windows: int = 3,
    milp_intervals: int = 1,
) -> CemTiming:
    """Time both CEM implementations on already-imputed windows.

    The MILP CEM (the paper's Z3-style formulation) is timed on at most
    ``max_milp_windows`` windows, each cropped to ``milp_intervals``
    coarse intervals — one 50 ms interval matches the paper's "correct a
    50 ms transformer output" measurement (1.47 s with Z3), and keeps the
    branch-and-bound tractable on this repo's much weaker solver.
    """
    if len(imputed_windows) != len(dataset):
        raise ValueError("need one imputed window per dataset sample")
    enforcer = ConstraintEnforcer(dataset.switch_config)
    start = time.perf_counter()
    for sample, window in zip(dataset.samples, imputed_windows):
        enforcer.enforce(window, sample)
    greedy_seconds = (time.perf_counter() - start) / max(len(dataset), 1)

    from repro.telemetry.dataset import crop_sample

    milp = MilpCem(dataset.switch_config)
    milp_total = 0.0
    solved = 0
    for sample, window in list(zip(dataset.samples, imputed_windows))[:max_milp_windows]:
        cropped = crop_sample(sample, milp_intervals)
        result = milp.enforce(window[:, : cropped.num_bins], cropped)
        milp_total += result.solve_time
        if result.status == "sat":
            solved += 1
    milp_count = min(max_milp_windows, len(dataset))
    return CemTiming(
        greedy_seconds=greedy_seconds,
        milp_seconds=milp_total / max(milp_count, 1),
        milp_solved=solved,
        num_windows=len(dataset),
    )
