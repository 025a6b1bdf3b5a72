"""Ablation: fast combinatorial CEM vs the solver-based (MILP) CEM.

DESIGN.md claims the greedy projection computes the same L1-minimal
correction the paper's Z3 query finds.  This benchmark verifies the claim
(equal objective values on real model outputs, at tiny-window scale where
the MILP is tractable) and quantifies the speed gap.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro.eval.report import format_table
from repro.fm import MilpCem
from repro.imputation import ConstraintEnforcer
from repro.switchsim import Simulation, SwitchConfig
from repro.telemetry import build_dataset
from repro.traffic import PoissonFlowTraffic
from repro.traffic.distributions import FixedSizes


@pytest.fixture(scope="module")
def tiny_windows():
    cfg = SwitchConfig(num_ports=1, queues_per_port=2, buffer_capacity=30, alphas=(1.0, 0.5))
    traffic = PoissonFlowTraffic(
        num_sources=3, num_ports=1, flows_per_step=0.15, sizes=FixedSizes(4), seed=3
    )
    trace = Simulation(cfg, traffic, steps_per_bin=4).run(60)
    dataset = build_dataset(trace, interval=5, window_intervals=2, stride_intervals=2)
    rng = np.random.default_rng(0)
    noisy = [
        np.clip(s.target_raw + rng.normal(0, 2, s.target_raw.shape), 0, None)
        for s in dataset.samples
    ]
    return cfg, dataset, noisy


def test_greedy_vs_milp(benchmark, tiny_windows, results_dir):
    cfg, dataset, noisy = tiny_windows
    enforcer = ConstraintEnforcer(cfg)
    milp = MilpCem(cfg)

    benchmark(enforcer.enforce, noisy[0], dataset[0])

    rows = []
    greedy_total = milp_total = 0.0
    for i, (sample, window) in enumerate(zip(dataset.samples, noisy)):
        start = time.perf_counter()
        greedy = enforcer.enforce(window, sample)
        greedy_seconds = time.perf_counter() - start
        greedy_cost = enforcer.correction_cost(window, greedy, sample)

        reference = milp.enforce(window, sample)
        assert reference.status == "sat"
        rows.append(
            [
                str(i),
                f"{greedy_cost:.3f}",
                f"{reference.objective:.3f}",
                f"{greedy_seconds * 1e3:.2f}",
                f"{reference.solve_time * 1e3:.0f}",
            ]
        )
        greedy_total += greedy_seconds
        milp_total += reference.solve_time
        assert greedy_cost == pytest.approx(reference.objective, abs=1e-6)

    table = format_table(
        ["window", "greedy L1 cost", "MILP L1 cost", "greedy ms", "MILP ms"], rows
    )
    speedup = milp_total / max(greedy_total, 1e-9)
    save_result(
        results_dir,
        "ablation_cem.txt",
        table + f"\n\ngreedy == MILP optimum on all windows; speedup ~{speedup:.0f}x",
    )
