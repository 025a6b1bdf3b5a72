"""The distribution-shift suite: train once, evaluate across the grid.

Trains the paper's models on the base websearch+incast mix, then walks
every :class:`~repro.robustness.shift.ShiftPoint` of the typed grid and
measures how each method's imputation error degrades relative to its own
in-distribution anchor.  The paper's central claim — constraint
integration (KAL/CEM) *helps most off-distribution* — becomes the
machine-checked statement that ``Transformer+KAL+CEM``'s worst absolute
MAE increase over its anchor is, on every axis, no larger than plain
``Transformer``'s (within ``claim_tolerance``), pinned by
``BENCH_robustness.json``.  The claim deliberately compares *absolute*
increases in packets, not ratios: a method whose anchor error is tiny
(CEM's is) would fail a ratio test on noise alone, while what operators
care about is how many packets of error a shift adds.  Relative curves
are still emitted for plotting.

Evaluation discipline:

* shifted-scenario traces are held out (fresh seed, never trained on)
  and windowed **with the training scaler** — the model sees exactly
  what it would see in deployment, normalisation drift included;
* telemetry-degradation points reuse the anchor's held-out trace and
  corrupt only the measurements (:mod:`repro.robustness.degrade`), under
  a per-point deterministic seed;
* the error metric is MAE in packets against the clean fine-grained
  ground truth — degraded measurements never touch the scoring;
* CEM-infeasible windows (possible under heavy measurement corruption)
  are excluded from that method's mean and counted per point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.obs as obs
from repro.eval.report import format_table
from repro.robustness.config import RobustnessConfig
from repro.robustness.degrade import degrade_sample
from repro.robustness.shift import (
    SCENARIO_AXES,
    STRUCTURAL_AXES,
    ShiftPoint,
    shift_grid,
)

#: Method columns, in the paper's Table-1 order.
METHODS = ("IterImputer", "Transformer", "Transformer+KAL", "Transformer+KAL+CEM")

#: The two columns the pinned claim compares.
ML_METHOD = "Transformer"
FULL_METHOD = "Transformer+KAL+CEM"


@dataclass(frozen=True)
class MethodResult:
    """One method's performance at one grid point."""

    mae: float  # packets, vs clean ground truth (NaN if nothing evaluable)
    satisfied: int  # windows whose output meets C1-C3 exactly
    infeasible: int  # windows CEM declared infeasible (excluded from mae)
    windows: int  # windows evaluated


@dataclass(frozen=True)
class PointResult:
    """All methods evaluated at one grid point."""

    axis: str
    value: float
    label: str
    methods: dict[str, MethodResult]


@dataclass
class AxisClaim:
    """The per-axis verdict on the paper's off-distribution claim."""

    axis: str
    ml_worst_degradation: float  # max over points of (mae - anchor_mae), packets
    full_worst_degradation: float
    holds: bool


@dataclass
class RobustnessResult:
    """Everything one suite run measured."""

    config: RobustnessConfig
    points: list[PointResult]
    claims: list[AxisClaim]
    train_seconds: dict[str, float]
    eval_seconds: float = 0.0

    @property
    def axes(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.axis not in seen:
                seen.append(point.axis)
        return seen

    @property
    def claim_holds(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def axis_points(self, axis: str) -> list[PointResult]:
        return [p for p in self.points if p.axis == axis]

    def curves(self) -> dict[str, dict[str, list[dict[str, float]]]]:
        """Per-axis, per-method degradation curves (absolute + relative).

        ``curves()[axis][method]`` is a list of ``{"value", "mae",
        "relative"}`` points, where ``relative`` is the MAE divided by
        the method's MAE at the axis anchor (the first point).
        """
        out: dict[str, dict[str, list[dict[str, float]]]] = {}
        for axis in self.axes:
            points = self.axis_points(axis)
            out[axis] = {}
            for method in METHODS:
                anchor = points[0].methods[method].mae
                out[axis][method] = [
                    {
                        "value": p.value,
                        "mae": p.methods[method].mae,
                        "relative": (
                            p.methods[method].mae / anchor
                            if anchor > 0 and np.isfinite(p.methods[method].mae)
                            else float("nan")
                        ),
                    }
                    for p in points
                ]
        return out

    def render(self) -> str:
        headers = ["shift", *[f"{m} MAE" for m in METHODS], "CEM infeasible"]
        rows = []
        for point in self.points:
            rows.append(
                [
                    point.label,
                    *[f"{point.methods[m].mae:.3f}" for m in METHODS],
                    str(point.methods[FULL_METHOD].infeasible),
                ]
            )
        lines = [format_table(headers, rows), ""]
        lines.append("worst-case MAE increase vs in-distribution anchor (packets):")
        for claim in self.claims:
            verdict = "ok" if claim.holds else "VIOLATED"
            lines.append(
                f"  {claim.axis:>6}: ML +{claim.ml_worst_degradation:.3f} vs "
                f"KAL+CEM +{claim.full_worst_degradation:.3f} -> {verdict}"
            )
        status = "holds" if self.claim_holds else "VIOLATED"
        lines.append(
            f"claim (KAL+CEM degrades no faster than ML on every axis): {status}"
        )
        return "\n".join(lines)


def table1_config_from(config: RobustnessConfig):
    """The :class:`Table1Config` the suite's models are trained under."""
    from repro.eval.table1 import Table1Config

    return Table1Config(
        scenario=config.scenario,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        d_model=config.d_model,
        num_layers=config.num_layers,
        d_ff=config.d_ff,
        num_heads=config.num_heads,
        mu=config.mu,
        seed=config.seed,
        dtype=config.dtype,
        fused_kernels=config.fused_kernels,
    )


def _evaluate_point(
    samples: list, switch_config, iterative, plain, kal, enforcer
) -> dict[str, MethodResult]:
    """Evaluate every method on one point's (possibly degraded) windows.

    The two transformer columns impute the point in one batch each; the
    CEM column projects the KAL column's arrays (``enforce`` copies its
    input), so the KAL forward runs once per point.  CEM infeasibility
    is still counted per window.
    """
    from repro.constraints.spec import check_constraints
    from repro.imputation.cem import CEMInfeasibleError

    plain_batch = plain.impute_batch(samples)
    kal_batch = kal.impute_batch(samples)
    window_fns: dict[str, Callable[[int, Any], np.ndarray]] = {
        "IterImputer": lambda index, sample: iterative.impute(sample),
        "Transformer": lambda index, sample: plain_batch[index],
        "Transformer+KAL": lambda index, sample: kal_batch[index],
        "Transformer+KAL+CEM": lambda index, sample: enforcer.enforce(
            kal_batch[index], sample
        ),
    }

    results: dict[str, MethodResult] = {}
    for method in METHODS:
        impute = window_fns[method]
        errors: list[float] = []
        satisfied = 0
        infeasible = 0
        for index, sample in enumerate(samples):
            try:
                imputed = impute(index, sample)
            except CEMInfeasibleError:
                infeasible += 1
                continue
            report = check_constraints(imputed, sample, switch_config)
            satisfied += report.satisfied
            errors.append(float(np.abs(imputed - sample.target_raw).mean()))
        results[method] = MethodResult(
            mae=float(np.mean(errors)) if errors else float("nan"),
            satisfied=satisfied,
            infeasible=infeasible,
            windows=len(samples),
        )
    return results


def _topology_eval_samples(
    point: ShiftPoint, config: RobustnessConfig, scaler, selfcheck: bool
):
    """Held-out windows of one topology-axis point: a k-leaf fabric.

    Leaf geometry is chosen so every leaf has exactly the training
    switch's port/queue count (``hosts_per_leaf + spines ==
    scenario.num_ports``) — the trained models' feature shapes carry
    over unchanged; only the *context* (uplink traffic mixing, spine
    back-pressure) shifts.  The anchor ``leaves=1`` is a spine-less
    fabric, bit-identical to a single switch under the same traffic.
    Returns ``(samples, leaf_switch_config)`` pooled over all leaves.
    """
    from repro.switchsim.fabric import Fabric, TopologyConfig
    from repro.telemetry.fabric import build_fabric_datasets
    from repro.traffic.distributions import WebsearchSizes
    from repro.traffic.generators import PoissonFlowTraffic
    from repro.utils.rng import spawn_generators

    scenario = config.scenario
    leaves = int(point.value)
    spines = 1 if leaves > 1 else 0
    if scenario.num_ports <= spines:
        raise ValueError(
            "topology axis needs scenario.num_ports >= 2 so a leaf can "
            "dedicate one port to the spine uplink"
        )
    topology = TopologyConfig(
        leaves=leaves,
        spines=spines,
        hosts_per_leaf=scenario.num_ports - spines,
        link_delay=2,
        queues_per_port=scenario.queues_per_port,
        buffer_capacity=scenario.buffer_capacity,
        alphas=scenario.alphas,
    )
    sizes = WebsearchSizes()
    flows_per_step = (
        scenario.websearch_load * topology.hosts_per_leaf / sizes.mean()
    )
    rngs = spawn_generators(
        config.seed + config.eval_seed + 7919 * leaves, leaves
    )
    traffic = [
        PoissonFlowTraffic(
            num_sources=scenario.websearch_sources,
            num_ports=topology.total_hosts,
            flows_per_step=flows_per_step,
            sizes=sizes,
            seed=rngs[leaf],
        )
        for leaf in range(leaves)
    ]
    fabric = Fabric(
        topology,
        traffic,
        steps_per_bin=scenario.steps_per_bin,
        selfcheck=selfcheck,
    )
    fabric_trace = fabric.run(scenario.duration_bins)
    datasets = build_fabric_datasets(
        fabric_trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=None,  # each interval imputed once, as grid-wide
        scaler=scaler,
    )
    samples = []
    for leaf in range(leaves):
        samples.extend(datasets[f"leaf{leaf}"].samples)
    return samples, datasets["leaf0"].switch_config


def _aqm_eval_samples(
    point: ShiftPoint, config: RobustnessConfig, scaler, selfcheck: bool
):
    """Held-out windows of one aqm-axis point: RED admission at max_p.

    The workload is the anchor scenario's (same traffic, same held-out
    seed); only the admission policy changes, so any degradation is
    attributable to the policy shifting the queue dynamics.  Runs on
    the array engine, which admits through the same ``RedPolicy.admit``
    as the reference engine (bit-identical traces).
    """
    import dataclasses as _dc

    from repro.eval.scenarios import build_traffic
    from repro.switchsim.aqm import AqmConfig
    from repro.switchsim.simulation import Simulation
    from repro.telemetry.dataset import build_dataset

    scenario = config.scenario
    aqm = AqmConfig(
        policy="red", red_max_p=float(point.value), seed=config.degrade_seed
    )
    switch_config = _dc.replace(
        scenario.switch_config(),
        aqm_factory=aqm.factory(scenario.buffer_capacity),
    )
    simulation = Simulation(
        switch_config,
        build_traffic(scenario, seed=config.seed + config.eval_seed),
        steps_per_bin=scenario.steps_per_bin,
        selfcheck=selfcheck,
    )
    trace = simulation.run(scenario.duration_bins)
    dataset = build_dataset(
        trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=None,
        scaler=scaler,
    )
    return list(dataset.samples), dataset.switch_config


def _claims(points: list[PointResult], tolerance: float) -> list[AxisClaim]:
    claims: list[AxisClaim] = []
    axes: list[str] = []
    for point in points:
        if point.axis not in axes:
            axes.append(point.axis)
    for axis in axes:
        axis_points = [p for p in points if p.axis == axis]

        def worst(method: str) -> float:
            # Worst absolute MAE increase over the axis anchor, floored at
            # zero (a shift that *improves* a method counts as no
            # degradation rather than as negative credit).
            anchor = axis_points[0].methods[method].mae
            if not np.isfinite(anchor):
                return float("nan")
            increases = [
                max(0.0, p.methods[method].mae - anchor)
                for p in axis_points
                if np.isfinite(p.methods[method].mae)
            ]
            return max(increases) if increases else float("nan")

        ml_worst = worst(ML_METHOD)
        full_worst = worst(FULL_METHOD)
        holds = bool(
            np.isfinite(ml_worst)
            and np.isfinite(full_worst)
            and full_worst <= ml_worst * tolerance + 1e-9
        )
        claims.append(
            AxisClaim(
                axis=axis,
                ml_worst_degradation=float(ml_worst),
                full_worst_degradation=float(full_worst),
                holds=holds,
            )
        )
    return claims


def run_robustness(
    config: RobustnessConfig | None = None, *, selfcheck: bool = False
) -> RobustnessResult:
    """Train on the base mix, evaluate every method across the shift grid."""
    from repro.autodiff.runtime import kernel_scope
    from repro.eval.scenarios import generate_dataset, generate_trace
    from repro.eval.table1 import train_transformer
    from repro.imputation.cem import ConstraintEnforcer
    from repro.imputation.iterative import IterativeImputer
    from repro.telemetry.dataset import build_dataset

    config = config if config is not None else RobustnessConfig()
    grid = shift_grid(config)

    with obs.span("robustness.run", seed=config.seed, points=len(grid)):
        with kernel_scope(config.fused_kernels):
            with obs.span("robustness.dataset"):
                train, val, _ = generate_dataset(
                    config.scenario, seed=config.seed, selfcheck=selfcheck
                )
            t1_config = table1_config_from(config)
            train_seconds: dict[str, float] = {}
            with obs.span("robustness.train"):
                plain, seconds = train_transformer(train, val, t1_config, use_kal=False)
                train_seconds["Transformer"] = seconds
                kal, seconds = train_transformer(train, val, t1_config, use_kal=True)
                train_seconds["Transformer+KAL"] = seconds
            iterative = IterativeImputer()
            scaler = train.scaler  # deployment normalisation, grid-wide

            # Held-out eval datasets, cached per (frozen) scenario so the
            # three scenario axes share one anchor simulation.
            eval_datasets: dict[Any, Any] = {}

            def eval_dataset(point: ShiftPoint):
                scenario = point.scenario
                if scenario not in eval_datasets:
                    with obs.span(
                        "robustness.trace", axis=point.axis, value=point.value
                    ):
                        trace = generate_trace(
                            scenario,
                            seed=config.seed + config.eval_seed,
                            selfcheck=selfcheck,
                        )
                    eval_datasets[scenario] = build_dataset(
                        trace,
                        interval=scenario.interval,
                        window_intervals=scenario.window_intervals,
                        stride_intervals=None,  # each interval imputed once
                        scaler=scaler,
                    )
                return eval_datasets[scenario]

            points: list[PointResult] = []
            eval_start = time.perf_counter()
            for point in grid:
                if point.axis == "topology":
                    samples, point_switch_config = _topology_eval_samples(
                        point, config, scaler, selfcheck
                    )
                elif point.axis == "aqm" and point.value > 0:
                    samples, point_switch_config = _aqm_eval_samples(
                        point, config, scaler, selfcheck
                    )
                else:
                    # The aqm anchor (max_p = 0) is plain DT on the base
                    # scenario — it shares the cached anchor simulation.
                    dataset = eval_dataset(point)
                    samples = list(dataset.samples)
                    point_switch_config = dataset.switch_config
                if config.eval_windows > 0:
                    samples = samples[: config.eval_windows]
                if point.degrades_telemetry:
                    rng = np.random.default_rng(
                        point.degrade_seed(config.degrade_seed)
                    )
                    samples = [
                        degrade_sample(
                            sample,
                            scaler,
                            lanz_threshold=point.lanz_threshold,
                            snmp_loss=point.snmp_loss,
                            rng=rng,
                        )
                        for sample in samples
                    ]
                enforcer = ConstraintEnforcer(
                    point_switch_config, vectorized=True
                )
                with obs.span(
                    "robustness.point", axis=point.axis, value=point.value
                ):
                    results = _evaluate_point(
                        samples, point_switch_config, iterative, plain, kal,
                        enforcer,
                    )
                points.append(
                    PointResult(
                        axis=point.axis,
                        value=point.value,
                        label=point.label,
                        methods=results,
                    )
                )
                obs.counter("robustness.points").inc()

            return RobustnessResult(
                config=config,
                points=points,
                claims=_claims(points, config.claim_tolerance),
                train_seconds=train_seconds,
                eval_seconds=time.perf_counter() - eval_start,
            )


def bench_payload(result: RobustnessResult) -> tuple[dict, dict]:
    """The ``(timings, metrics)`` halves of ``BENCH_robustness.json``.

    Single source of truth for the artifact's content: the pytest bench
    (via :func:`benchmarks.bench_schema.write_bench_json`) and the
    ``repro run robustness --bench-out`` path both serialize exactly
    this.  The CI validator asserts ``metrics["claim"]["holds"]`` and the
    per-axis curve coverage.
    """
    timings = {
        "train_seconds": result.train_seconds,
        "eval_seconds": round(result.eval_seconds, 3),
    }
    metrics = {
        "methods": list(METHODS),
        "axes": result.axes,
        "curves": result.curves(),
        "points": [
            {
                "axis": p.axis,
                "value": p.value,
                "label": p.label,
                "methods": {
                    m: {
                        "mae": r.mae,
                        "satisfied": r.satisfied,
                        "infeasible": r.infeasible,
                        "windows": r.windows,
                    }
                    for m, r in p.methods.items()
                },
            }
            for p in result.points
        ],
        "claim": {
            "statement": (
                f"{FULL_METHOD} degrades no faster than {ML_METHOD} "
                "on every shift axis"
            ),
            "tolerance": result.config.claim_tolerance,
            "holds": result.claim_holds,
            "per_axis": {
                c.axis: {
                    "ml_worst_degradation": c.ml_worst_degradation,
                    "full_worst_degradation": c.full_worst_degradation,
                    "holds": c.holds,
                }
                for c in result.claims
            },
        },
    }
    return timings, metrics


#: re-exported for callers that want the scenario-vs-telemetry split.
__all__ = [
    "METHODS",
    "ML_METHOD",
    "FULL_METHOD",
    "MethodResult",
    "PointResult",
    "AxisClaim",
    "RobustnessResult",
    "run_robustness",
    "bench_payload",
    "table1_config_from",
    "SCENARIO_AXES",
    "STRUCTURAL_AXES",
]
