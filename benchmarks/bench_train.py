"""Measures training and CEM against their reference implementations.

The tentpole claim of the trainer-speed PR: float32 fused-kernel training
plus the vectorized constraint projection make the learning side of the
pipeline as cheap as the simulator side, without changing any float64
number.  The references raced here are the test oracles: float64
training inside :func:`repro.autodiff.fused.fused_kernels` ``(False)``
(the composite ops) and :func:`repro.testing.cem_interval_loop` (the
per-interval CEM loop).

Two measurements, written to ``BENCH_train.json``:

* ``epochs/sec`` — one KAL training epoch on the profile's dataset,
  reference (float64, composite kernels) vs production (float32, fused
  kernels).  Both runs get the optimized gradient accumulation and the
  allocator tuning, which no setting turns off;
* ``CEM projections/sec`` — per-window constraint projection over noisy
  imputations, per-interval loop vs vectorized passes (outputs asserted
  bit-identical).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from benchmarks.bench_schema import write_bench_json
from benchmarks.conftest import save_result
from repro.autodiff.fused import fused_kernels
from repro.eval.table1 import train_transformer
from repro.imputation.cem import ConstraintEnforcer
from repro.testing import cem_interval_loop


def _epoch_seconds(datasets, config, dtype: str, fused: bool) -> float:
    """Wall-clock of one full KAL training run, per epoch."""
    train, val, _ = datasets
    cfg = dataclasses.replace(config, dtype=dtype)
    start = time.perf_counter()
    with fused_kernels(fused):
        train_transformer(train, val, cfg, use_kal=True)
    return (time.perf_counter() - start) / cfg.epochs


def _cem_seconds(project, test, noisy) -> tuple[float, list]:
    start = time.perf_counter()
    outputs = [project(imputed, sample) for imputed, sample in zip(noisy, test.samples)]
    return time.perf_counter() - start, outputs


def test_train_speed(bench_profile, results_dir, datasets, table1_config):
    timing_config = dataclasses.replace(table1_config, epochs=2)
    train, val, test = datasets

    # --- training epochs/sec -----------------------------------------
    ref_epoch = _epoch_seconds(datasets, timing_config, "float64", fused=False)
    opt_epoch = _epoch_seconds(datasets, timing_config, "float32", fused=True)
    train_speedup = ref_epoch / opt_epoch

    # --- CEM projections/sec -----------------------------------------
    # Repeat the window set so the vectorized timing is not all startup.
    rng = np.random.default_rng(table1_config.seed)
    repeats = max(1, 200 // max(len(test.samples), 1))
    cem_test = dataclasses.replace(test, samples=list(test.samples) * repeats)
    noisy = [
        np.clip(s.target_raw + rng.normal(0.0, 3.0, s.target_raw.shape), 0.0, None)
        for s in cem_test.samples
    ]
    config = cem_test.switch_config
    ref_cem_seconds, ref_outputs = _cem_seconds(
        lambda imputed, sample: cem_interval_loop(config, imputed, sample),
        cem_test,
        noisy,
    )
    opt_cem_seconds, opt_outputs = _cem_seconds(
        ConstraintEnforcer(config).enforce, cem_test, noisy
    )
    for expected, actual in zip(ref_outputs, opt_outputs):
        assert (expected == actual).all(), "vectorized CEM diverged from reference"
    cem_windows = len(cem_test.samples)
    cem_speedup = ref_cem_seconds / opt_cem_seconds

    write_bench_json(
        "train",
        config=table1_config,
        timings={
            "reference_epoch_seconds": ref_epoch,
            "optimized_epoch_seconds": opt_epoch,
            "reference_cem_seconds": ref_cem_seconds,
            "optimized_cem_seconds": opt_cem_seconds,
        },
        metrics={
            "profile": bench_profile,
            "train_windows": len(train),
            "cem_windows": cem_windows,
            "reference_epochs_per_sec": 1.0 / ref_epoch,
            "optimized_epochs_per_sec": 1.0 / opt_epoch,
            "train_speedup": train_speedup,
            "reference_cem_projections_per_sec": cem_windows / ref_cem_seconds,
            "optimized_cem_projections_per_sec": cem_windows / opt_cem_seconds,
            "cem_speedup": cem_speedup,
        },
    )

    lines = [
        f"profile: {bench_profile}  ({len(train)} train windows, "
        f"{cem_windows} CEM windows)",
        f"training (KAL):  reference {ref_epoch:6.2f} s/epoch   "
        f"optimized {opt_epoch:6.2f} s/epoch   ({train_speedup:.1f}x)",
        f"CEM projection:  reference {cem_windows / ref_cem_seconds:8,.0f} win/s   "
        f"optimized {cem_windows / opt_cem_seconds:8,.0f} win/s   "
        f"({cem_speedup:.1f}x, outputs bit-identical)",
    ]
    save_result(results_dir, "train_speed.txt", "\n".join(lines))

    # Shared runners are noisy: require only that production is not
    # slower than the references it replaced.
    for name, speedup in (("training", train_speedup), ("CEM", cem_speedup)):
        assert speedup >= 1.0, f"{name} only {speedup:.2f}x the reference"
