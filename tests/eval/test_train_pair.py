"""``train_pair``: the plain/KAL trainings side by side, and how they fail.

The concurrent path forks a child that trains the plain model while the
caller trains the KAL model; the serial path trains both in-process.
Each test picks its path through the CPU and BLAS probes, so the same
assertions hold on any machine.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import time

import numpy as np
import pytest

import repro.eval.table1 as table1
import repro.obs as obs
from repro.eval.scenarios import generate_dataset, quick_scenario
from repro.eval.table1 import Table1Config, train_pair
from repro.obs.metrics import load_snapshot
from repro.obs.trace import read_events
from repro.utils import cpu
from repro.utils.cpu import ForkedChildError


def _use_path(patcher, concurrent: bool) -> None:
    patcher.setattr(cpu, "usable_cpus", lambda: 2 if concurrent else 1)
    patcher.setattr(cpu, "blas_threads", lambda: 1)


@pytest.fixture
def concurrent(monkeypatch):
    _use_path(monkeypatch, concurrent=True)


@pytest.fixture(scope="module")
def config():
    return Table1Config(scenario=quick_scenario(), epochs=1, seed=0)


@pytest.fixture(scope="module")
def datasets(config):
    return generate_dataset(config.scenario, seed=config.seed)


@pytest.fixture(scope="module")
def runs(config, datasets):
    """``run_table1`` per path (concurrent or not): the result and both
    trained models."""
    out = {}
    captured = {}

    def capture(*args, **kwargs):
        plain, kal, seconds = train_pair(*args, **kwargs)
        captured["models"] = plain, kal
        return plain, kal, seconds

    for concurrent in (False, True):
        with pytest.MonkeyPatch.context() as patcher:
            _use_path(patcher, concurrent)
            patcher.setattr(table1, "train_pair", capture)
            result = table1.run_table1(config, datasets=datasets)
        out[concurrent] = (result, *captured["models"])
    return out


def _assert_same_parameters(a, b) -> None:
    state_a, state_b = a.state_dict(), b.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        assert state_a[name].dtype == state_b[name].dtype, name
        assert np.array_equal(state_a[name], state_b[name]), name


def _fake_training(child, parent):
    """A ``train_transformer`` stand-in: ``child`` runs for the plain model
    (in the forked child), ``parent`` for the KAL model (in the caller)."""

    def fake(train, val, config, use_kal, **kwargs):
        return (parent if use_kal else child)()

    return fake


# ----------------------------------------------------------------------
# Parity: the concurrent path is the serial path, bit for bit
# ----------------------------------------------------------------------
class TestParity:
    def test_table1_render_is_byte_identical(self, runs):
        assert runs[True][0].render() == runs[False][0].render()
        assert runs[True][0].values == runs[False][0].values

    def test_both_models_have_equal_parameters(self, runs):
        _, serial_plain, serial_kal = runs[False]
        _, plain, kal = runs[True]
        _assert_same_parameters(plain, serial_plain)
        _assert_same_parameters(kal, serial_kal)

    def test_seconds_are_reported_per_model(self, runs):
        seconds = runs[True][0].train_seconds
        assert set(seconds) == {"Transformer", "Transformer+KAL"}
        assert all(value > 0 for value in seconds.values())


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailures:
    def test_child_exception_carries_type_message_and_traceback(
        self, config, datasets, concurrent, monkeypatch
    ):
        def child():
            raise ValueError("plain training exploded")

        monkeypatch.setattr(
            table1, "train_transformer", _fake_training(child, lambda: (None, 0.0))
        )
        with pytest.raises(ForkedChildError) as caught:
            train_pair(datasets[0], datasets[1], config)
        error = caught.value
        assert error.exc_type == "ValueError"
        assert "plain training exploded" in str(error)
        assert "ValueError: plain training exploded" in error.child_traceback
        assert "in child" in error.child_traceback
        assert error.child_traceback in str(error)
        assert multiprocessing.active_children() == []

    def test_hard_child_death_names_the_exit_code(
        self, config, datasets, concurrent, monkeypatch
    ):
        monkeypatch.setattr(
            table1,
            "train_transformer",
            _fake_training(lambda: os._exit(7), lambda: (None, 0.0)),
        )
        start = time.monotonic()
        with pytest.raises(ForkedChildError, match="code 7") as caught:
            train_pair(datasets[0], datasets[1], config)
        assert caught.value.exitcode == 7
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_death_mid_message_names_the_exit_code(
        self, config, datasets, concurrent, monkeypatch
    ):
        # A length header promising more bytes than follow: ``recv`` in
        # the parent hits end of file inside the message (an OSError).
        def child(conn, *args):
            os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"partial")
            os._exit(5)

        monkeypatch.setattr(cpu, "_child_main", child)
        monkeypatch.setattr(
            table1, "train_transformer", _fake_training(None, lambda: (None, 0.0))
        )
        with pytest.raises(ForkedChildError, match="code 5") as caught:
            train_pair(datasets[0], datasets[1], config)
        assert caught.value.exitcode == 5
        assert multiprocessing.active_children() == []

    def test_hard_death_is_seen_while_a_grandchild_holds_the_pipe(
        self, config, datasets, concurrent, monkeypatch
    ):
        # A process the child forks inherits its end of the pipe, so
        # the parent must watch the child itself, not only EOF.
        context = multiprocessing.get_context("fork")
        release = context.Event()

        def child():
            context.Process(target=release.wait, args=(60,), daemon=True).start()
            os._exit(9)

        monkeypatch.setattr(
            table1, "train_transformer", _fake_training(child, lambda: (None, 0.0))
        )
        start = time.monotonic()
        try:
            with pytest.raises(ForkedChildError, match="code 9"):
                train_pair(datasets[0], datasets[1], config)
            assert time.monotonic() - start < 30
        finally:
            release.set()

    @pytest.mark.parametrize("error", [RuntimeError("kal failed"), KeyboardInterrupt()])
    def test_parent_failure_terminates_and_reaps_the_child(
        self, config, datasets, concurrent, monkeypatch, error
    ):
        def parent():
            raise error

        monkeypatch.setattr(
            table1,
            "train_transformer",
            _fake_training(lambda: time.sleep(120), parent),
        )
        start = time.monotonic()
        with pytest.raises(type(error)):
            train_pair(datasets[0], datasets[1], config)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Observability crosses the fork
# ----------------------------------------------------------------------
class TestObservability:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory, config, datasets):
        """One concurrent ``train_pair`` with tracing, metrics and profiling on."""
        root = tmp_path_factory.mktemp("obs")
        with pytest.MonkeyPatch.context() as patcher:
            _use_path(patcher, concurrent=True)
            obs.configure(
                trace=root / "trace.jsonl",
                metrics=root / "metrics.json",
                profile=root / "prof",
            )
            try:
                train_pair(datasets[0], datasets[1], config)
            finally:
                obs.finish()
        return root

    def test_plain_epoch_series_reach_the_metrics_snapshot(self, artifacts, config):
        metrics = load_snapshot(artifacts / "metrics.json")["metrics"]
        assert len(metrics["trainer.base.loss"]["values"]) == config.epochs
        assert len(metrics["trainer.kal.loss"]["values"]) == config.epochs

    def test_plain_training_profile_is_written(self, artifacts):
        written = sorted(p.name for p in (artifacts / "prof").glob("*.pstats"))
        assert "table1.train.kal.pstats" in written
        assert any(name.startswith("table1.train.plain.pid") for name in written)

    def test_plain_training_span_is_traced_under_the_child_pid(self, artifacts):
        trainings = {
            event["args"]["method"]: event["pid"]
            for event in read_events(artifacts / "trace.jsonl")
            if event.get("name") == "table1.train"
        }
        assert trainings["kal"] == os.getpid()
        assert trainings["plain"] != os.getpid()
