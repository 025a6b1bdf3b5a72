"""The shift grid scored in two processes: the split path is the serial path.

``run_robustness`` hands the odd-indexed grid points to a forked child
through :func:`repro.utils.cpu.fork_join` and scores the even ones itself.
Each test picks the path through the helper's CPU and BLAS probes, so the
same assertions hold on any machine.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

import repro.eval.table1 as table1
import repro.obs as obs
import repro.robustness.suite as suite
from repro.obs.metrics import load_snapshot
from repro.obs.trace import read_events
from repro.robustness.config import RobustnessConfig
from repro.robustness.shift import shift_grid
from repro.robustness.suite import METHODS, MethodResult, bench_payload, run_robustness
from repro.utils import cpu
from repro.utils.cpu import ForkedChildError


def _use_path(patcher, split: bool) -> None:
    patcher.setattr(cpu, "usable_cpus", lambda: 2 if split else 1)
    patcher.setattr(cpu, "blas_threads", lambda: 1)


@pytest.fixture(scope="module")
def grid_config(micro_scenario):
    """14 points; the even ones stay in the caller, the odd ones fork.

    Caller: the load anchor, buffer 0.5 (a shifted scenario), lanz 20 and
    snmp 0.2 (degraded telemetry), one leaf and the RED anchor.  Child:
    load 2.0 (a shifted scenario), the buffer anchor (the shared anchor
    trace), snmp 0.4 (degraded telemetry), two leaves and RED at 0.1.
    """
    return dataclasses.replace(
        RobustnessConfig(),
        scenario=micro_scenario,
        load_scales=(1.0, 2.0),
        burst_scales=(1.0,),
        buffer_scales=(1.0, 0.5),
        lanz_thresholds=(0.0, 20.0),
        snmp_losses=(0.0, 0.2, 0.4),
        topology_leaves=(1, 2),
        red_drop_probs=(0.0, 0.1),
        eval_windows=2,
        epochs=1,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory, grid_config):
    """The serial run, and the split run with tracing and metrics on."""
    root = tmp_path_factory.mktemp("grid_obs")
    with pytest.MonkeyPatch.context() as patcher:
        _use_path(patcher, split=False)
        serial = run_robustness(grid_config)
    with pytest.MonkeyPatch.context() as patcher:
        _use_path(patcher, split=True)
        obs.configure(trace=root / "trace.jsonl", metrics=root / "metrics.json")
        try:
            split = run_robustness(grid_config)
        finally:
            obs.finish()
    return serial, split, root


def _no_training(train, val, config):
    return None, None, {}


def _points(in_child, in_caller):
    """An ``_evaluate_point`` stand-in: ``in_child`` runs in the forked
    child, ``in_caller`` in the process that called ``run_robustness``."""
    caller = os.getpid()

    def fake(*args, **kwargs):
        return (in_caller if os.getpid() == caller else in_child)()

    return fake


def _scored():
    return {m: MethodResult(mae=0.0, satisfied=0, infeasible=0, windows=0) for m in METHODS}


class TestParity:
    def test_grid_covers_both_sides_of_the_fork(self, grid_config):
        grid = shift_grid(grid_config)
        caller, child = grid[0::2], grid[1::2]
        for side in (caller, child):
            axes = {point.axis for point in side}
            assert {"load", "buffer", "snmp", "topology", "aqm"} <= axes
            assert any(point.degrades_telemetry for point in side)
        assert [p.value for p in caller if p.axis in ("topology", "aqm")] == [1.0, 0.0]
        assert [p.value for p in child if p.axis in ("topology", "aqm")] == [2.0, 0.1]

    def test_bench_payload_metrics_are_identical(self, runs):
        serial, split, _ = runs
        assert json.dumps(bench_payload(split)[1], sort_keys=True) == json.dumps(
            bench_payload(serial)[1], sort_keys=True
        )

    def test_render_is_identical(self, runs):
        serial, split, _ = runs
        assert split.render() == serial.render()

    def test_points_come_back_in_grid_order(self, runs, grid_config):
        _, split, _ = runs
        assert [p.label for p in split.points] == [
            p.label for p in shift_grid(grid_config)
        ]


class TestObservability:
    def test_points_counter_counts_the_whole_grid(self, runs, grid_config):
        metrics = load_snapshot(runs[2] / "metrics.json")["metrics"]
        assert metrics["robustness.points"]["value"] == len(shift_grid(grid_config))

    def test_child_point_spans_are_traced_under_its_pid(self, runs, grid_config):
        grid = shift_grid(grid_config)
        pids: dict[int, list[tuple[str, float]]] = {}
        for event in read_events(runs[2] / "trace.jsonl"):
            if event.get("name") == "robustness.point":
                args = event["args"]
                pids.setdefault(event["pid"], []).append((args["axis"], args["value"]))
        assert sorted(pids.pop(os.getpid())) == sorted(
            (p.axis, p.value) for p in grid[0::2]
        )
        (child_points,) = pids.values()
        assert sorted(child_points) == sorted((p.axis, p.value) for p in grid[1::2])


class TestFailures:
    @pytest.fixture
    def split(self, monkeypatch):
        _use_path(monkeypatch, split=True)
        monkeypatch.setattr(table1, "train_pair", _no_training)

    def test_child_exception_carries_type_and_traceback(
        self, grid_config, split, monkeypatch
    ):
        def in_child():
            raise ValueError("scoring exploded")

        monkeypatch.setattr(suite, "_evaluate_point", _points(in_child, _scored))
        with pytest.raises(ForkedChildError) as caught:
            run_robustness(grid_config)
        error = caught.value
        assert error.exc_type == "ValueError"
        assert "ValueError: scoring exploded" in error.child_traceback
        assert "in in_child" in error.child_traceback
        assert error.child_traceback in str(error)
        assert multiprocessing.active_children() == []

    def test_hard_child_death_names_the_exit_code(
        self, grid_config, split, monkeypatch
    ):
        monkeypatch.setattr(
            suite, "_evaluate_point", _points(lambda: os._exit(7), _scored)
        )
        start = time.monotonic()
        with pytest.raises(ForkedChildError, match="code 7") as caught:
            run_robustness(grid_config)
        assert caught.value.exitcode == 7
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [RuntimeError("caller failed"), KeyboardInterrupt()])
    def test_caller_failure_terminates_and_reaps_the_child(
        self, grid_config, split, monkeypatch, error
    ):
        def in_caller():
            raise error

        monkeypatch.setattr(
            suite, "_evaluate_point", _points(lambda: time.sleep(120), in_caller)
        )
        start = time.monotonic()
        with pytest.raises(type(error)):
            run_robustness(grid_config)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
