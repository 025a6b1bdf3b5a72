#!/usr/bin/env python3
"""Real-time telemetry imputation (the paper's §5 future direction).

Replays a recorded coarse-telemetry stream through a single-switch
:class:`~repro.serve.StreamService` one 50 ms interval at a time — the way
a monitoring pipeline would deliver it.  With a stride of one interval
and no batching, every record completes a window that is imputed and
constraint-enforced at once; the example reports the per-update latency
against a 50 ms real-time budget (each update must finish before the next
interval's data arrives).

Run:  python examples/realtime_imputation.py
"""

import numpy as np

from repro.eval import generate_trace, quick_scenario
from repro.imputation import (
    ImputationPipeline,
    ModelOverrides,
    PipelineConfig,
    TrainerConfig,
)
from repro.serve import StreamService, records_from_telemetry
from repro.telemetry import build_dataset, sample_trace


def main() -> None:
    scenario = quick_scenario()
    print("simulating and training (once, offline)...")
    trace = generate_trace(scenario, seed=3)
    dataset = build_dataset(
        trace,
        interval=scenario.interval,
        window_intervals=scenario.window_intervals,
        stride_intervals=scenario.stride_intervals,
    )
    train, val, _ = dataset.split(0.7, 0.15, seed=0)
    pipeline = ImputationPipeline(
        train,
        PipelineConfig(
            use_kal=True,
            use_cem=False,  # the service applies CEM itself
            model=ModelOverrides(d_model=32, num_layers=2, d_ff=64),
            trainer=TrainerConfig(epochs=8, batch_size=8, seed=0),
        ),
        val=val,
        seed=0,
    ).fit()

    print("\nreplaying a fresh trace as a live 50 ms telemetry stream...")
    live_trace = generate_trace(scenario, seed=99)
    telemetry = sample_trace(live_trace, scenario.interval)
    service = StreamService(
        pipeline.model,
        live_trace.config,
        dataset.scaler,
        scenario.interval,
        scenario.window_intervals,
        stride_intervals=1,
        batch_windows=1,
    )

    budget = scenario.interval / 1000.0  # one interval of wall-clock, in s
    latencies = []
    errors = []
    for record in records_from_telemetry("live", telemetry):
        for window in service.submit(record):
            latencies.append(window.latency_seconds)
            start = record.interval_index * scenario.interval
            truth = live_trace.qlen[:, start : start + scenario.interval]
            latest = window.values[:, -scenario.interval :]
            errors.append(np.abs(latest - truth).mean())

    latencies = np.array(latencies)
    print(f"updates: {len(latencies)}")
    print(
        f"latency per update: mean {latencies.mean() * 1e3:.1f} ms, "
        f"p99 {np.percentile(latencies, 99) * 1e3:.1f} ms "
        f"(budget: {budget * 1e3:.0f} ms per interval)"
    )
    print(f"within real-time budget: {(latencies < budget).mean() * 100:.0f}% of updates")
    print(f"mean absolute error on the newest interval: {np.mean(errors):.3f} packets")
    print("\n=> imputation + constraint enforcement fits comfortably inside the")
    print("   50 ms interval the paper's real-time tasks would require.")


if __name__ == "__main__":
    main()
