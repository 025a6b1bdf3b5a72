"""``impute_batch`` on two lanes: the split path is the serial path.

With a second CPU to spare, the caller forwards the first half of the
windows while a helper thread forwards the second half
(:func:`repro.utils.cpu.split_halves`).  Each test picks its path through
the helper's CPU and BLAS probes, so the same assertions hold on any
machine.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading

import numpy as np
import pytest

from repro.imputation import TransformerImputer
from repro.imputation.transformer_imputer import TransformerConfig
from repro.utils import cpu

TIMEOUT_S = 60


def _use_path(patcher, split: bool) -> None:
    patcher.setattr(cpu, "usable_cpus", lambda: 2 if split else 1)
    patcher.setattr(cpu, "blas_threads", lambda: 1)


@pytest.fixture
def split(monkeypatch):
    _use_path(monkeypatch, split=True)


def _thread_spy(names: list[str]) -> type:
    """A ``threading.Thread`` that records each started thread's name."""

    class Spy(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    return Spy


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started in this process from here on."""
    names: list[str] = []
    monkeypatch.setattr(threading, "Thread", _thread_spy(names))
    return names


def _model(dataset, dtype: str) -> TransformerImputer:
    model = TransformerImputer(
        TransformerConfig(
            num_features=dataset.num_features,
            num_queues=dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=2,
            d_ff=32,
        ),
        dataset.scaler,
        seed=5,
    )
    model.to_dtype(dtype)
    return model


@pytest.fixture(scope="module")
def models(small_dataset):
    return {dtype: _model(small_dataset, dtype) for dtype in ("float32", "float64")}


@pytest.fixture(scope="module")
def samples(small_dataset):
    assert len(small_dataset.samples) >= 8
    return small_dataset.samples[:8]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("windows", [1, 2, 3, 8])
def test_split_equals_serial(models, samples, started, dtype, windows):
    model, chunk = models[dtype], samples[:windows]
    with pytest.MonkeyPatch.context() as patcher:
        _use_path(patcher, split=False)
        serial = model.impute_batch(chunk)
    assert started == []
    with pytest.MonkeyPatch.context() as patcher:
        _use_path(patcher, split=True)
        split = model.impute_batch(chunk)
    assert len(started) == (windows > 1)
    assert len(split) == len(serial) == windows
    for sample, one, other in zip(chunk, serial, split):
        assert one.dtype == other.dtype
        np.testing.assert_array_equal(other, one)
        np.testing.assert_array_equal(other, model.impute(sample))


def test_helper_error_is_raised_in_the_caller(models, samples, split, monkeypatch):
    model = models["float32"]
    predict = TransformerImputer._predict
    callers = []

    def failing_on_the_helper(self, chunk):
        callers.append(threading.current_thread() is threading.main_thread())
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper forward failed")
        return predict(self, chunk)

    monkeypatch.setattr(TransformerImputer, "_predict", failing_on_the_helper)
    before = threading.active_count()
    with pytest.raises(ValueError, match="helper forward failed"):
        model.impute_batch(samples)
    assert sorted(callers) == [False, True]
    assert threading.active_count() == before


def test_no_thread_outlives_a_call(models, samples, split, started):
    before = threading.active_count()
    for windows in (2, 3, 8):
        models["float64"].impute_batch(samples[:windows])
        assert threading.active_count() == before
    assert len(started) == 3


def test_no_helper_on_either_side_of_fork_join(models, samples, split, started):
    model = models["float32"]
    expected = [model.impute(sample) for sample in samples]

    def side():
        return model.impute_batch(samples), list(started)

    (child, child_started), (caller, caller_started) = cpu.fork_join(
        side, side, task="imputing in a fork_join child"
    )
    assert child_started == caller_started == []
    assert started == []
    for result in (child, caller):
        for got, want in zip(result, expected):
            np.testing.assert_array_equal(got, want)
    model.impute_batch(samples)  # and the split is back on once joined
    assert len(started) == 1


def _daemonic_impute(model, samples, conn) -> None:
    names: list[str] = []
    threading.Thread = _thread_spy(names)
    result = model.impute_batch(samples)
    conn.send((result, names))
    conn.close()


def test_no_helper_in_a_daemonic_process(models, samples, split):
    model = models["float32"]
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_daemonic_impute, args=(model, samples, sender), daemon=True
    )
    process.start()
    sender.close()
    try:
        assert receiver.poll(TIMEOUT_S), "the daemonic child did not answer"
        result, names = receiver.recv()
    finally:
        process.join(TIMEOUT_S)
        receiver.close()
    assert process.exitcode == 0
    assert names == []
    for sample, got in zip(samples, result):
        np.testing.assert_array_equal(got, model.impute(sample))


def test_fork_join_child_imputes_after_the_caller_split(models, samples, split, started):
    """A helper left behind (a persistent pool) would leave the forked
    child a pool with no thread behind it; this run must still finish."""
    model = models["float32"]
    first = model.impute_batch(samples)
    assert len(started) == 1

    def expire(signum, frame):
        raise TimeoutError(f"fork_join did not finish within {TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIMEOUT_S)
    try:
        child, _ = cpu.fork_join(
            lambda: model.impute_batch(samples), lambda: None, task="imputing"
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for got, want in zip(child, first):
        np.testing.assert_array_equal(got, want)
