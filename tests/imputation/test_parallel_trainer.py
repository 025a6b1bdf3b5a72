"""Data-parallel training: determinism, fault tolerance, dtype policy.

The contract under test is the strong one from the trainer docstring:
a sharded run's numbers depend only on ``grad_shards``, never on how
many worker processes computed them — so ``workers=2`` must match
``workers=1`` bit-for-bit in float64, including across a
checkpoint/resume boundary.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.imputation import Trainer, TrainerConfig, TransformerImputer
from repro.imputation.parallel import GradientWorkerPool, WorkerCrashError
from repro.imputation.transformer_imputer import TransformerConfig


def _model(dataset, dropout=0.0):
    return TransformerImputer(
        TransformerConfig(
            num_features=dataset.num_features,
            num_queues=dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
            dropout=dropout,
        ),
        dataset.scaler,
        seed=0,
    )


def _train(dataset, checkpoint=None, resume=False, **overrides):
    defaults = dict(
        epochs=2, batch_size=4, use_kal=True, mu=0.5, seed=0, dtype="float64"
    )
    defaults.update(overrides)
    train, _, _ = dataset.split(0.7, 0.15, seed=0)
    trainer = Trainer(_model(dataset), train, TrainerConfig(**defaults))
    trainer.train(checkpoint_path=checkpoint, resume=resume)
    return trainer


def _assert_state_equal(a, b):
    sa, sb = a.model.state_dict(), b.model.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        np.testing.assert_array_equal(sa[key], sb[key], err_msg=key)
    np.testing.assert_array_equal(a.lambda_max, b.lambda_max)
    np.testing.assert_array_equal(a.lambda_periodic, b.lambda_periodic)
    np.testing.assert_array_equal(a.lambda_sent, b.lambda_sent)
    assert a.history.loss == b.history.loss


class TestShardedDeterminism:
    def test_two_workers_match_one_worker_bitwise(self, small_dataset):
        serial = _train(small_dataset, workers=1, grad_shards=2)
        pooled = _train(small_dataset, workers=2, grad_shards=2)
        _assert_state_equal(serial, pooled)

    def test_bit_identity_across_checkpoint_resume(self, small_dataset, tmp_path):
        uninterrupted = _train(
            small_dataset, epochs=4, workers=1, grad_shards=2
        )
        # Same schedule, interrupted after 2 epochs, resumed on 2 workers.
        path = tmp_path / "ckpt.npz"
        _train(small_dataset, epochs=2, workers=1, grad_shards=2, checkpoint=path)
        resumed = _train(
            small_dataset,
            epochs=4,
            workers=2,
            grad_shards=2,
            checkpoint=path,
            resume=True,
        )
        _assert_state_equal(uninterrupted, resumed)

    def test_shard_count_changes_rounding_only(self, small_dataset):
        one = _train(small_dataset, grad_shards=1)
        two = _train(small_dataset, grad_shards=2)
        # Different reduction order: close but not (necessarily) identical.
        for key, value in one.model.state_dict().items():
            np.testing.assert_allclose(
                two.model.state_dict()[key], value, atol=1e-8, err_msg=key
            )


class TestWorkerFaults:
    def test_crashed_worker_respawns_and_run_completes(self, small_dataset):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        config = TrainerConfig(
            epochs=1, batch_size=4, seed=0, dtype="float64", workers=2, grad_shards=2
        )
        trainer = Trainer(_model(small_dataset), train, config)
        baseline = _train(small_dataset, epochs=1, use_kal=False, workers=1,
                          grad_shards=2)

        # Poison the first dispatched command: the worker hard-exits and
        # must be respawned with the command retried.
        pool_holder = {}
        import repro.imputation.parallel as parallel_mod

        class PoisonedPool(parallel_mod.GradientWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._fault_budget = 1
                pool_holder["pool"] = self

        original_pool = parallel_mod.GradientWorkerPool
        parallel_mod.GradientWorkerPool = PoisonedPool
        try:
            trainer.train()
        finally:
            parallel_mod.GradientWorkerPool = original_pool

        assert pool_holder["pool"].respawns == 1
        for key, value in baseline.model.state_dict().items():
            np.testing.assert_array_equal(
                trainer.model.state_dict()[key], value, err_msg=key
            )

    def test_respawn_budget_exhaustion_raises(self, small_dataset):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        trainer = Trainer(
            _model(small_dataset),
            train,
            TrainerConfig(epochs=1, batch_size=4, seed=0, workers=2, grad_shards=2),
        )
        pool = GradientWorkerPool(trainer._pool_compute, workers=2, max_respawns=1)
        pool._fault_budget = 10  # every command crashes
        commands = [
            (np.array([0, 1]), [p.data for p in trainer.model.parameters()],
             trainer._lambda_slices(np.array([0, 1])))
        ]
        try:
            with pytest.raises(WorkerCrashError):
                pool.run_shards(commands)
        finally:
            pool.close()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestWorkerLifetime:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_exit_when_the_trainer_dies(self):
        # A trainer killed before close() (a terminated training child)
        # must not leave its workers blocked on recv forever.
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)

        def trainer():
            pool = GradientWorkerPool(lambda *args: None, workers=2)
            sender.send([worker["process"].pid for worker in pool._workers])
            time.sleep(60)

        process = context.Process(target=trainer)
        process.start()
        pids = receiver.recv()
        process.kill()
        process.join()
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(map(_running, pids)):
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


class TestConfigValidation:
    def test_dropout_with_shards_rejected(self, small_dataset):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        with pytest.raises(ValueError, match="dropout"):
            Trainer(
                _model(small_dataset, dropout=0.1),
                train,
                TrainerConfig(workers=2),
            )

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(dtype="float16")
        with pytest.raises(ValueError):
            TrainerConfig(workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(grad_shards=-1)


class TestDtypePolicy:
    def test_float32_training_converges(self, small_dataset):
        trainer = _train(small_dataset, epochs=4, use_kal=False, dtype="float32")
        assert trainer.model.dtype == np.float32
        assert trainer.history.loss[-1] < trainer.history.loss[0]

    def test_float32_tracks_float64(self, small_dataset):
        fast = _train(small_dataset, epochs=1, use_kal=False, dtype="float32")
        exact = _train(small_dataset, epochs=1, use_kal=False, dtype="float64")
        assert abs(fast.history.loss[0] - exact.history.loss[0]) < 1e-4

    def test_dtype_survives_checkpoint_roundtrip(self, small_dataset, tmp_path):
        path = tmp_path / "ckpt.npz"
        _train(small_dataset, epochs=1, dtype="float32", checkpoint=path)
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        restored = Trainer(
            _model(small_dataset),
            train,
            TrainerConfig(
                epochs=1, batch_size=4, use_kal=True, mu=0.5, seed=0, dtype="float32"
            ),
        )
        restored.load_checkpoint(path)
        assert restored.model.dtype == np.float32
        for m, v in zip(restored.optimizer._m, restored.optimizer._v):
            assert m.dtype == np.float32
            assert v.dtype == np.float32
