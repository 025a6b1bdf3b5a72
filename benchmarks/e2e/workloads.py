"""The four workloads of the end-to-end benchmark, and their metrics.

Two users, two kinds of workload:

* an operator streams 50 ms coarse telemetry for a fleet of switches
  through :class:`~repro.serve.service.StreamService` and needs the
  fine-grained windows back quickly (``fleet_burst``, ``fleet_trickle``);
* a researcher regenerates Table 1 and the distribution-shift grid
  offline (``table1_paper``, ``robustness_grid``).

Each workload function runs in the calling process and fills an
:class:`Outcome`: set-up times, the wall time of each unpaced unit of
work, per-request latencies, how late the load generator ran, and the
attempted/failed counts of the correctness gates.  :func:`end_to_end` and
:func:`per_layer` turn an outcome (and, for a traced run, its spans) into
the metrics named in ``BENCHMARK.json``.

The fleet workloads are **open loop**: every record is due at a fixed
time on the 50 ms interval grid, the generator sleeps until then and never
skips, and a window's latency runs from the due time of its last record to
the moment ``submit``/``drain`` returns it — so a stall that delays later
records is counted.  After the open-loop phase the same records are
replayed unpaced (closed loop), each time through a fresh service; the
median wall time of these replays is the fleet's ``wall_s``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from benchmarks.e2e.tracing import Tracer, layer_table, span_cost_s
from repro.autodiff import fused, runtime
from repro.eval import scenarios, table1
from repro.robustness import config as robustness_config
from repro.robustness import suite
from repro.serve import runner
from repro.serve.config import ServeConfig
from repro.serve.records import records_from_telemetry
from repro.serve.service import StreamService
from repro.telemetry import sampling
from repro.testing import stream

#: One coarse interval: 50 ms of switch time, the paper's telemetry period.
INTERVAL_S = 0.05
#: The first record is due this long after the schedule is built.
LEAD_S = 0.02
#: Stream/offline parity tolerance (the float32 pin of ``bench_serve.py``).
PARITY_TOL = 1e-5
#: Unpaced replays of each fleet round; ``wall_s`` is their median.  One
#: replay takes about 1.4 s on a shared 2-core VM, where a single one is
#: too short to average out the machine's own noise.
CLOSED_REPLAYS = 2


@dataclass(frozen=True)
class FleetSpec:
    """A replayed fleet: ``switches`` streams of ``intervals`` records each.

    The service's model is Transformer+KAL trained for one epoch.  Switch ``i`` starts ``i mod phases`` intervals late, so ``phases=1``
    completes every switch's window in the same interval.  A run makes
    ``rounds`` full set-ups (dataset, training, fleet traces, schedule,
    service), each with its own fleet, and pools their windows.
    """

    switches: int
    intervals: int
    phases: int
    rounds: int
    scenario: str = "paper"


@dataclass(frozen=True)
class Table1Spec:
    """``run_table1`` at ``epochs``; ``overrides`` are extra Table1Config fields."""

    scenario: str = "paper"
    epochs: int = 6
    overrides: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class RobustnessSpec:
    """``run_robustness`` on the default grid plus the RED and topology axes;
    ``overrides`` are extra RobustnessConfig fields."""

    overrides: tuple[tuple[str, Any], ...] = ()


#: The benchmark's workloads.  Why each exists is in README.md; the sizes
#: keep >= 1,000 windows per fleet run, so >= 10 lie beyond the p99.
WORKLOADS: dict[str, Any] = {
    "fleet_burst": FleetSpec(switches=24, intervals=84, phases=1, rounds=3),
    "fleet_trickle": FleetSpec(switches=21, intervals=96, phases=6, rounds=3),
    "table1_paper": Table1Spec(),
    "robustness_grid": RobustnessSpec(),
}

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.  Times in seconds are
#: kept for layers every workload reaches; a layer only some workloads
#: reach is reported as a count or as its share of the traced wall time.
PER_LAYER = {
    "imputation.impute.windows": "count",
    "imputation.impute.busy_s": "s",
    "imputation.impute.ms_per_window": "ms",
    "nn.attention.busy_s": "s",
    "nn.encoder_layer.busy_s": "s",
    "imputation.cem.calls": "count",
    "imputation.cem.busy_s": "s",
    "imputation.cem.ms_per_window": "ms",
    "imputation.cem.corrected_frac": "fraction",
    "imputation.cem.infeasible": "count",
    "serve.dispatches": "count",
    "serve.windows_per_dispatch": "windows",
    "serve.batch_wait_frac": "fraction",
    "serve.backpressure": "count",
    "serve.queue_high_water": "count",
    "serve.submit.self_frac": "fraction",
    "serve.windows.pushes": "count",
    "serve.windows.self_frac": "fraction",
    "autodiff.backward.calls": "count",
    "autodiff.backward.busy_s": "s",
    "autodiff.optim.busy_s": "s",
    "imputation.trainer.busy_s": "s",
    "imputation.trainer.windows_per_s": "1/s",
    "switchsim.run.calls": "count",
    "switchsim.run.busy_s": "s",
    "switchsim.steps_per_s": "1/s",
    "switchsim.fabric.self_frac": "fraction",
    "traffic.build.busy_s": "s",
    "traffic.size_mean.busy_s": "s",
    "telemetry.sample.busy_s": "s",
    "telemetry.build_dataset.busy_s": "s",
    "imputation.iterative.self_frac": "fraction",
    "constraints.check.self_frac": "fraction",
    "downstream.evaluate.self_frac": "fraction",
    "robustness.degrade.self_frac": "fraction",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.lag_max_ms": "ms",
    "unattributed_s": "s",
    "unattributed_frac": "fraction",
    "trace_overhead_frac": "fraction",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)  # one per set-up
    unit_s: list[float] = field(default_factory=list)  # one per unpaced unit
    latency_ms: list[float] = field(default_factory=list)  # one per request
    lag_ms: list[float] = field(default_factory=list)  # generator lateness
    batch_wait_ms: list[float] = field(default_factory=list)  # traced fleet only
    backpressure: int = 0  # fleet open loop, summed over rounds
    queue_high_water: int = 0  # fleet open loop, highest of the rounds
    claim_holds: list[bool] = field(default_factory=list)  # robustness only


def _scenario(name: str) -> scenarios.ScenarioConfig:
    return scenarios.paper_scenario() if name == "paper" else scenarios.quick_scenario()


@contextlib.contextmanager
def _kernels() -> Iterator[None]:
    """The kernel selection ``repro run serve`` trains and serves under."""
    with fused.fused_kernels(True), runtime.large_alloc_reuse():
        yield


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
def fleet_seed(seed: int, round_index: int, switch: int) -> int:
    """Trace seed of one fleet switch; never the training seed ``seed``."""
    return 1 + seed * 100_003 + round_index * 1_009 + switch


def fleet_schedule(traces: dict, interval: int, phases: int) -> list[tuple[float, Any]]:
    """``(due seconds, record)`` for every record, in due order.

    Ties keep sorted switch order, so ``phases=1`` is exactly the
    interval-major order of :func:`repro.testing.stream.fleet_record_schedule`.
    """
    entries = []
    for index, switch_id in enumerate(sorted(traces)):
        offset = index % phases
        telemetry = sampling.sample_trace(traces[switch_id], interval)
        for record in records_from_telemetry(switch_id, telemetry):
            entries.append(((offset + record.interval_index) * INTERVAL_S, index, record))
    entries.sort(key=lambda entry: entry[:2])
    return [(due, record) for due, _, record in entries]


def parity_failures(emitted: dict, offline: dict) -> int:
    """Windows due but not emitted, plus emitted windows off their offline twin."""
    failures = len(set(offline) - set(emitted))
    for key, window in emitted.items():
        try:
            stream.assert_stream_matches_offline(
                {key: window}, offline, exact=False, rtol=PARITY_TOL, atol=PARITY_TOL
            )
        except AssertionError:
            failures += 1
    return failures


def _open_loop(
    service: StreamService,
    schedule: list[tuple[float, Any]],
    window_intervals: int,
    tracer: Tracer | None,
    outcome: Outcome,
) -> dict:
    """Submit every record at its due time; latency from due to emission."""
    first_due = {}
    for due, record in schedule:
        first_due.setdefault(record.switch_id, due)
    mark = len(tracer.spans) if tracer is not None else 0
    emitted: dict = {}
    emitted_at: dict = {}

    def collect(windows) -> None:
        stamp = time.perf_counter()
        for window in windows:
            emitted[window.key] = window
            emitted_at[window.key] = stamp

    origin = time.perf_counter() + LEAD_S
    for due, record in schedule:
        target = origin + due
        now = time.perf_counter()
        if now < target:
            time.sleep(target - now)
            woke = time.perf_counter()
            if tracer is not None:
                tracer.record("loadgen.idle", now, woke)
            now = woke
        outcome.lag_ms.append((now - target) * 1e3)
        collect(service.submit(record))
    collect(service.drain())

    due_at = {}
    for key, window in emitted.items():
        last = window.start_interval + window_intervals - 1
        due_at[key] = origin + first_due[window.switch_id] + last * INTERVAL_S
        outcome.latency_ms.append((emitted_at[key] - due_at[key]) * 1e3)
    if tracer is not None:
        # Emission latency minus the dispatch's duration: the time from
        # due to the start of the dispatch that served the window.
        for span in tracer.spans_since(mark, "serve.dispatch"):
            for switch_id, window_index in (span[4] or {}).get("keys", ()):
                outcome.batch_wait_ms.append((span[1] - due_at[(switch_id, window_index)]) * 1e3)
    report = service.report()
    outcome.backpressure += report.backpressure_events
    outcome.queue_high_water = max(outcome.queue_high_water, report.queue_high_water)
    return emitted


def _fleet_round(
    spec: FleetSpec, seed: int, round_index: int, tracer: Tracer | None, outcome: Outcome
) -> float:
    """One set-up, the open loop, then closed-loop replays; returns timed seconds."""
    scenario = _scenario(spec.scenario)
    serve_config = ServeConfig(
        scenario=scenario,
        num_switches=spec.switches,
        max_intervals=None,
        epochs=1,
        seed=seed,
    )
    with _kernels():
        start = time.perf_counter()
        train, val, _ = scenarios.generate_dataset(scenario, seed=seed)
        model, _ = table1.train_transformer(
            train, val, runner.table1_config_from(serve_config), use_kal=True
        )
        # The fleet's traces simulate exactly the replayed intervals.
        fleet_scenario = dataclasses.replace(
            scenario, duration_bins=spec.intervals * scenario.interval
        )
        traces = {
            runner.fleet_switch_id(i): scenarios.generate_trace(
                fleet_scenario, seed=fleet_seed(seed, round_index, i)
            )
            for i in range(spec.switches)
        }
        schedule = fleet_schedule(traces, scenario.interval, spec.phases)
        service = StreamService.from_config(model, model.scaler, serve_config)
        outcome.setup_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        emitted = [_open_loop(service, schedule, scenario.window_intervals, tracer, outcome)]
        timed = time.perf_counter() - start

        records = [record for _, record in schedule]
        for _ in range(CLOSED_REPLAYS):
            start = time.perf_counter()
            windows, _ = stream.replay(
                StreamService.from_config(model, model.scaler, serve_config), records
            )
            outcome.unit_s.append(time.perf_counter() - start)
            timed += outcome.unit_s[-1]
            emitted.append(windows)

        with tracer.suspended() if tracer is not None else contextlib.nullcontext():
            offline = stream.offline_windows(
                model, traces, scenario.interval, scenario.window_intervals, model.scaler
            )
            for windows in emitted:
                outcome.attempted += len(offline)
                outcome.failed += parity_failures(windows, offline)
    return timed


def run_fleet(
    spec: FleetSpec, seed: int, seconds: float, tracer: Tracer | None = None
) -> Outcome:
    outcome = Outcome()
    timed = 0.0
    round_index = 0
    while round_index < spec.rounds or timed < seconds:
        timed += _fleet_round(spec, seed, round_index, tracer, outcome)
        round_index += 1
    return outcome


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def _repeat(seconds: float, outcome: Outcome, make_config, run_once) -> None:
    """Closed loop: each unit is due as soon as the previous one ended.

    Repeats until the timed units add up to ``seconds`` (at least once);
    a unit's set-up is building its config, and its time-to-result is
    also its latency.
    """
    while not outcome.unit_s or sum(outcome.unit_s) < seconds:
        start = time.perf_counter()
        config = make_config()
        due = time.perf_counter()
        outcome.setup_s.append(due - start)
        begin = time.perf_counter()
        outcome.lag_ms.append((begin - due) * 1e3)
        run_once(config)
        outcome.unit_s.append(time.perf_counter() - begin)
        outcome.latency_ms.append(outcome.unit_s[-1] * 1e3)


def run_table1(
    spec: Table1Spec, seed: int, seconds: float, tracer: Tracer | None = None
) -> Outcome:
    outcome = Outcome()

    def make_config():
        return table1.Table1Config(
            scenario=_scenario(spec.scenario),
            epochs=spec.epochs,
            seed=seed,
            **dict(spec.overrides),
        )

    def run_once(config) -> None:
        result = table1.run_table1(config)
        # CEM makes rows a-c (C1-C3 errors) exactly zero; a mean of
        # non-negative errors is zero only if every test window is exact,
        # and otherwise the failing windows cannot be told apart.
        rows = [result.values[key]["Transformer+KAL+CEM"] for key in ("max", "periodic", "sent")]
        outcome.attempted += result.num_test_windows
        if any(row != 0.0 for row in rows):
            outcome.failed += result.num_test_windows

    _repeat(seconds, outcome, make_config, run_once)
    return outcome


def run_robustness(
    spec: RobustnessSpec, seed: int, seconds: float, tracer: Tracer | None = None
) -> Outcome:
    outcome = Outcome()

    def make_config():
        return robustness_config.RobustnessConfig(
            seed=seed,
            red_drop_probs=(0.0, 0.1, 0.3),
            topology_leaves=(1, 2),
            **dict(spec.overrides),
        )

    def run_once(config) -> None:
        result = suite.run_robustness(config)
        # A grid point fails if any method's MAE is not finite, or if the
        # full method is not C1-C3-exact on every window CEM could solve.
        for point in result.points:
            full = point.methods[suite.FULL_METHOD]
            finite = all(math.isfinite(m.mae) for m in point.methods.values())
            exact = full.satisfied + full.infeasible == full.windows
            outcome.attempted += 1
            outcome.failed += int(not (finite and exact))
        # The shift claim is pinned at seed 0 only (BENCH_robustness.json):
        # at this training budget it holds for a few seeds in ten, so it is
        # recorded here, not gated.
        outcome.claim_holds.append(result.claim_holds)

    _repeat(seconds, outcome, make_config, run_once)
    return outcome


RUNNERS = {
    FleetSpec: run_fleet,
    Table1Spec: run_table1,
    RobustnessSpec: run_robustness,
}


def execute(
    name: str, seed: int, seconds: float, tracer: Tracer | None = None, spec: Any = None
) -> Outcome:
    """Run workload ``name`` (at ``spec``, default its benchmark size)."""
    spec = WORKLOADS[name] if spec is None else spec
    return RUNNERS[type(spec)](spec, seed, seconds, tracer)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome, import_s: list[float], peak_rss_mb: float) -> dict[str, float]:
    """The untraced run's metrics.

    Imports happen once per process, so their time is the median over
    fresh interpreters; the rest of set-up is the median over the run's
    set-ups.
    """
    latency = np.asarray(outcome.latency_ms, dtype=float)
    return {
        "setup_s": float(np.median(import_s) + np.median(outcome.setup_s)),
        "latency_p50_ms": float(np.percentile(latency, 50)),
        "latency_p99_ms": float(np.percentile(latency, 99)),
        "wall_s": float(np.median(outcome.unit_s)),
        "peak_rss_mb": float(peak_rss_mb),
    }


def per_layer(outcome: Outcome, tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The traced run's per-layer metrics over ``wall_s`` traced seconds."""
    table = layer_table(tracer.spans)

    def stat(name: str, attr: str) -> float:
        return getattr(table[name], attr) if name in table else 0

    def count(name: str, key: str) -> float:
        stats = table.get(name)
        return (stats.attrs or {}).get(key, 0) if stats is not None else 0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    impute_windows = count("imputation.impute", "windows")
    cem_calls = stat("imputation.cem", "calls")
    dispatches = stat("serve.dispatch", "calls")
    attributed = sum(stats.self_s for stats in table.values())
    lag = np.asarray(outcome.lag_ms, dtype=float)
    # What the wrappers themselves cost: spans times the measured cost of
    # one wrapped call, against the wall time the run would have had
    # without them.
    overhead_s = tracer.wrapped_spans() * span_cost_s()
    metrics = {
        "imputation.impute.windows": impute_windows,
        "imputation.impute.busy_s": stat("imputation.impute", "busy_s"),
        "imputation.impute.ms_per_window": 1e3
        * ratio(stat("imputation.impute", "busy_s"), impute_windows),
        "nn.attention.busy_s": stat("nn.attention", "busy_s"),
        "nn.encoder_layer.busy_s": stat("nn.encoder_layer", "busy_s"),
        "imputation.cem.calls": cem_calls,
        "imputation.cem.busy_s": stat("imputation.cem", "busy_s"),
        "imputation.cem.ms_per_window": 1e3 * ratio(stat("imputation.cem", "busy_s"), cem_calls),
        "imputation.cem.corrected_frac": ratio(count("imputation.cem", "corrected"), cem_calls),
        "imputation.cem.infeasible": count("imputation.cem", "infeasible"),
        "serve.dispatches": dispatches,
        "serve.windows_per_dispatch": ratio(count("serve.dispatch", "windows"), dispatches),
        "serve.batch_wait_frac": ratio(
            float(np.sum(outcome.batch_wait_ms)), float(np.sum(outcome.latency_ms))
        )
        if outcome.batch_wait_ms
        else 0.0,
        "serve.backpressure": outcome.backpressure,
        "serve.queue_high_water": outcome.queue_high_water,
        "serve.submit.self_frac": ratio(stat("serve.submit", "self_s"), wall_s),
        "serve.windows.pushes": stat("serve.windows.push", "calls"),
        "serve.windows.self_frac": ratio(stat("serve.windows.push", "self_s"), wall_s),
        "autodiff.backward.calls": stat("autodiff.backward", "calls"),
        "autodiff.backward.busy_s": stat("autodiff.backward", "busy_s"),
        "autodiff.optim.busy_s": stat("autodiff.optim", "busy_s"),
        "imputation.trainer.busy_s": stat("imputation.trainer", "busy_s"),
        "imputation.trainer.windows_per_s": ratio(
            count("imputation.trainer", "windows"), stat("imputation.trainer", "busy_s")
        ),
        "switchsim.run.calls": stat("switchsim.run", "calls"),
        "switchsim.run.busy_s": stat("switchsim.run", "busy_s"),
        "switchsim.steps_per_s": ratio(
            count("switchsim.run", "steps"), stat("switchsim.run", "busy_s")
        ),
        "switchsim.fabric.self_frac": ratio(stat("switchsim.fabric", "self_s"), wall_s),
        "traffic.build.busy_s": stat("traffic.build", "busy_s"),
        "traffic.size_mean.busy_s": stat("traffic.size_mean", "busy_s"),
        "telemetry.sample.busy_s": stat("telemetry.sample", "busy_s"),
        "telemetry.build_dataset.busy_s": stat("telemetry.build_dataset", "busy_s"),
        "imputation.iterative.self_frac": ratio(stat("imputation.iterative", "self_s"), wall_s),
        "constraints.check.self_frac": ratio(stat("constraints.check", "self_s"), wall_s),
        "downstream.evaluate.self_frac": ratio(stat("downstream.evaluate", "self_s"), wall_s),
        "robustness.degrade.self_frac": ratio(stat("robustness.degrade", "self_s"), wall_s),
        "loadgen.lag_p99_ms": float(np.percentile(lag, 99)),
        "loadgen.lag_max_ms": float(lag.max()),
        "unattributed_s": wall_s - attributed,
        "unattributed_frac": ratio(wall_s - attributed, wall_s),
        "trace_overhead_frac": ratio(overhead_s, wall_s - overhead_s),
    }
    return {name: float(value) for name, value in metrics.items()}
