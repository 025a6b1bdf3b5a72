"""Smoke tests of the end-to-end benchmark, each workload at toy size.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

The workloads run in-process (no child), on the quick scenario with two
switches and 18 intervals, so the whole file takes about a minute.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import cli, workloads
from benchmarks.e2e.workloads import FleetSpec, RobustnessSpec, Table1Spec
from repro.serve.service import StreamService

TOY = {
    "fleet_burst": FleetSpec(switches=2, intervals=18, phases=1, rounds=1, scenario="quick"),
    "fleet_trickle": FleetSpec(switches=2, intervals=18, phases=2, rounds=1, scenario="quick"),
    "table1_paper": Table1Spec(
        scenario="quick",
        epochs=1,
        overrides=(("d_model", 16), ("num_layers", 1), ("d_ff", 32), ("batch_size", 4)),
    ),
    "robustness_grid": RobustnessSpec(overrides=(("epochs", 1), ("eval_windows", 2))),
}

BENCHMARK = json.loads((cli.ROOT / "BENCHMARK.json").read_text())


def test_workloads_and_metrics_match_benchmark_json():
    names = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(cli.WORKLOAD_NAMES) == set(TOY)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, _ = cli.measure(name, seed=0, seconds=0.0, trace=trace, spec=TOY[name])
    assert result["correct"] and result["attempted"] > 0, result
    printed = {tuple(line.split()[:2]) for line in cli.render(result)}
    for metric in BENCHMARK["per_layer" if trace else "end_to_end"]:
        assert (metric["name"], metric["unit"]) in printed, metric["name"]


def test_corrupted_window_trips_the_parity_gate(monkeypatch):
    corrupted = []

    def corrupting(method):
        def emit(self, *args):
            windows = method(self, *args)
            if windows and not corrupted:
                windows[0].values[0, 0] += 1.0
                corrupted.append(windows[0].key)
            return windows

        return emit

    # At toy size every window is emitted by the final drain.
    monkeypatch.setattr(StreamService, "submit", corrupting(StreamService.submit))
    monkeypatch.setattr(StreamService, "drain", corrupting(StreamService.drain))
    result, _ = cli.measure("fleet_burst", seed=0, seconds=0.0, trace=False, spec=TOY["fleet_burst"])
    assert corrupted
    assert result["failed"] == 1 and not result["correct"]
