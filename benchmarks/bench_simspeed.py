"""Measures the array engine against the reference simulator.

The tentpole claim: the vectorized :class:`ArraySwitchEngine` simulates
the paper scenario at least 10x faster than the reference object-based
loop while producing a bit-identical trace, and the on-disk trace cache
turns a repeated run into a single ``.npz`` load.

Writes ``BENCH_simspeed.json`` at the repo root (steps/sec per engine,
speedup, cache timings) in the shared :mod:`benchmarks.bench_schema`
shape, alongside the human-readable ``benchmarks/results/simspeed.txt``.
"""

from __future__ import annotations

import time

from benchmarks.bench_schema import write_bench_json
from benchmarks.conftest import save_result
from repro.eval.scenarios import (
    build_traffic,
    generate_trace,
    paper_scenario,
    quick_scenario,
)
from repro.switchsim import Simulation, TraceCache

TRACE_FIELDS = (
    "qlen",
    "qlen_max",
    "received",
    "sent",
    "dropped",
    "delay_sum",
    "buffer_occupancy",
)


def _time_engine(scenario, num_bins, engine, repeats=1):
    """Best-of-``repeats`` wall time for one full simulation; returns
    (seconds, trace)."""
    best, trace = float("inf"), None
    for _ in range(repeats):
        sim = Simulation(
            scenario.switch_config(),
            build_traffic(scenario, seed=0),
            steps_per_bin=scenario.steps_per_bin,
            engine=engine,
        )
        start = time.perf_counter()
        trace = sim.run(num_bins)
        best = min(best, time.perf_counter() - start)
    return best, trace


def test_simspeed(bench_profile, results_dir, tmp_path):
    if bench_profile == "paper":
        scenario, num_bins, repeats, required_speedup = paper_scenario(), 2000, 3, 10.0
    else:
        # CI smoke: smaller run, looser floor (shared runners are noisy).
        scenario, num_bins, repeats, required_speedup = quick_scenario(), 600, 3, 2.0
    num_steps = num_bins * scenario.steps_per_bin

    ref_seconds, ref_trace = _time_engine(scenario, num_bins, "reference")
    arr_seconds, arr_trace = _time_engine(scenario, num_bins, "array", repeats)
    for field in TRACE_FIELDS:
        assert (getattr(ref_trace, field) == getattr(arr_trace, field)).all(), field
    speedup = ref_seconds / arr_seconds

    # Cache: cold miss (simulate + store) vs warm hit (load only).
    cache = TraceCache(tmp_path / "traces")
    cache_scenario = scenario.__class__(
        **{**scenario.__dict__, "duration_bins": num_bins}
    )
    start = time.perf_counter()
    generate_trace(cache_scenario, seed=0, cache=cache)
    miss_seconds = time.perf_counter() - start
    start = time.perf_counter()
    generate_trace(cache_scenario, seed=0, cache=cache)
    hit_seconds = time.perf_counter() - start
    assert cache.hits == 1 and cache.misses == 1

    assert speedup >= required_speedup, (
        f"array engine only {speedup:.1f}x faster (need >= {required_speedup}x)"
    )
    assert hit_seconds < miss_seconds

    write_bench_json(
        "simspeed",
        config=cache_scenario,
        timings={
            "reference_seconds": ref_seconds,
            "array_seconds": arr_seconds,
            "cache_miss_seconds": miss_seconds,
            "cache_hit_seconds": hit_seconds,
        },
        metrics={
            "profile": bench_profile,
            "num_bins": num_bins,
            "steps_per_bin": scenario.steps_per_bin,
            "num_steps": num_steps,
            "reference_steps_per_sec": num_steps / ref_seconds,
            "array_steps_per_sec": num_steps / arr_seconds,
            "speedup": speedup,
            "cache_hit_speedup": miss_seconds / hit_seconds,
        },
    )

    lines = [
        f"profile: {bench_profile}  ({num_bins} bins x {scenario.steps_per_bin} steps)",
        f"reference engine: {num_steps / ref_seconds:>12,.0f} steps/s  ({ref_seconds:.2f} s)",
        f"array engine:     {num_steps / arr_seconds:>12,.0f} steps/s  ({arr_seconds:.2f} s)",
        f"speedup:          {speedup:.1f}x  (traces bit-identical)",
        f"cache miss: {miss_seconds * 1e3:.1f} ms   hit: {hit_seconds * 1e3:.1f} ms   "
        f"({miss_seconds / hit_seconds:.0f}x)",
    ]
    save_result(results_dir, "simspeed.txt", "\n".join(lines))
