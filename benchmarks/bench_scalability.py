"""Regenerates the scalability results of §2.3 and §4.

* FM alone: solve time / branch-and-bound nodes versus horizon — the
  paper's "Z3 solved simple scenarios in minutes but could not handle
  realistic scenarios in 24 hours".
* CEM: per-window correction time — the paper's "average 1.47 s to correct
  a 50 ms window", with both the solver-based formulation (the paper's)
  and this repo's fast combinatorial projection.
"""

import pytest

from benchmarks.bench_schema import write_bench_json
from benchmarks.conftest import save_result
from repro.eval.report import format_table
from repro.eval.scalability import cem_timing, fm_scaling
from repro.fm.model import FMImputer, scenario_from_trace
from repro.eval.scalability import _fm_trace


HORIZONS = [8, 16, 32, 48]
STEPS_PER_INTERVAL = 8


@pytest.fixture(scope="module")
def fm_points(bench_profile):
    horizons = HORIZONS if bench_profile == "paper" else HORIZONS[:3]
    return fm_scaling(
        horizons, steps_per_interval=STEPS_PER_INTERVAL, node_limit=2_000, seed=0
    )


def test_fm_scaling_curve(benchmark, fm_points, results_dir):
    # The heavy work (the scaling sweep) happens once in the module fixture;
    # the measured operation here is re-solving the smallest horizon, which
    # anchors the curve's left end.
    trace = _fm_trace(HORIZONS[0], seed=0)
    scenario = scenario_from_trace(
        trace,
        steps_per_interval=STEPS_PER_INTERVAL,
        num_intervals=HORIZONS[0] // STEPS_PER_INTERVAL,
        fan_in=3,
    )
    benchmark.pedantic(
        FMImputer(node_limit=2_000).impute,
        args=(scenario,),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            str(p.horizon),
            p.status,
            f"{p.solve_seconds:.2f}",
            str(p.nodes_explored),
            "yes" if p.hit_node_limit else "no",
        ]
        for p in fm_points
    ]
    table = format_table(
        ["horizon (steps)", "status", "seconds", "B&B nodes", "node-limit hit"], rows
    )
    save_result(results_dir, "scalability_fm.txt", table)
    write_bench_json(
        "scalability_fm",
        config={
            "horizons": [p.horizon for p in fm_points],
            "steps_per_interval": STEPS_PER_INTERVAL,
            "node_limit": 2_000,
        },
        timings={
            f"horizon_{p.horizon}_seconds": p.solve_seconds for p in fm_points
        },
        metrics={
            "points": [
                {
                    "horizon": p.horizon,
                    "status": p.status,
                    "nodes_explored": p.nodes_explored,
                    "hit_node_limit": p.hit_node_limit,
                    "timed_out": p.timed_out,
                }
                for p in fm_points
            ]
        },
    )

    # Shape: search effort grows super-linearly with the horizon (or the
    # solver gives up entirely — the paper's ">24 h" regime).
    nodes = [p.nodes_explored for p in fm_points]
    assert nodes[-1] >= nodes[0]
    last = fm_points[-1]
    times = [p.solve_seconds for p in fm_points]
    horizon_ratio = last.horizon / fm_points[0].horizon
    assert last.hit_node_limit or (
        times[0] > 0 and times[-1] / times[0] > horizon_ratio
    )


def test_cem_timing(benchmark, datasets, trained_models, results_dir):
    _, _, test = datasets
    kal = trained_models["kal"]
    imputed = [kal.impute(s) for s in test.samples]

    from repro.imputation import ConstraintEnforcer

    enforcer = ConstraintEnforcer(test.switch_config)
    sample = test[0]
    benchmark(enforcer.enforce, imputed[0], sample)

    timing = cem_timing(test, imputed, max_milp_windows=2, milp_intervals=1)
    lines = [
        f"fast combinatorial CEM: {timing.greedy_seconds * 1e3:.2f} ms per "
        f"300 ms window",
        f"solver-based CEM (paper's Z3-style formulation): "
        f"{timing.milp_seconds:.2f} s per 50 ms interval "
        f"(on {min(2, timing.num_windows)} windows)",
        f"windows: {timing.num_windows}",
        "",
        "paper reference: 1.47 s for the Z3 CEM to correct a 50 ms output;",
        "FM alone did not terminate on realistic horizons (scalability_fm.txt).",
    ]
    save_result(results_dir, "scalability_cem.txt", "\n".join(lines))

    # CEM stays far below the FM-alone wall; the solver-based CEM lands in
    # the ~seconds range the paper reports.
    assert timing.greedy_seconds < 0.5
    assert timing.milp_solved >= 1
