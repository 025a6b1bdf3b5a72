"""Tests for the transformer imputer and the (KAL) trainer."""

import hashlib

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.imputation import Trainer, TrainerConfig, TransformerImputer
from repro.imputation.transformer_imputer import TransformerConfig


@pytest.fixture()
def tiny_model(small_dataset):
    return TransformerImputer(
        TransformerConfig(
            num_features=small_dataset.num_features,
            num_queues=small_dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
        ),
        small_dataset.scaler,
        seed=0,
    )


class TestTransformerImputer:
    def test_forward_shape(self, tiny_model, small_dataset):
        feats = Tensor(small_dataset.stack_features(small_dataset.samples[:2]))
        out = tiny_model(feats)
        assert out.shape == (2, small_dataset.num_queues, 100)

    def test_output_nonnegative(self, tiny_model, small_dataset):
        out = tiny_model.impute(small_dataset[0])
        assert (out >= 0).all()

    def test_impute_denormalises(self, tiny_model, small_dataset):
        out = tiny_model.impute(small_dataset[0])
        feats = Tensor(small_dataset[0].features[None])
        tiny_model.eval()
        raw = tiny_model(feats).numpy()[0]
        np.testing.assert_allclose(out, raw * small_dataset.scaler.qlen_scale, atol=1e-9)

    def test_deterministic_given_seed(self, small_dataset):
        config = TransformerConfig(
            num_features=small_dataset.num_features,
            num_queues=small_dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
        )
        a = TransformerImputer(config, small_dataset.scaler, seed=5)
        b = TransformerImputer(config, small_dataset.scaler, seed=5)
        np.testing.assert_array_equal(
            a.impute(small_dataset[0]), b.impute(small_dataset[0])
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(num_features=0, num_queues=1)


class TestTrainer:
    def _train(self, small_dataset, model, **overrides):
        defaults = dict(epochs=3, batch_size=4, learning_rate=2e-3, seed=0)
        defaults.update(overrides)
        train, val, _ = small_dataset.split(0.7, 0.15, seed=0)
        trainer = Trainer(model, train, TrainerConfig(**defaults), val=val)
        trainer.train()
        return trainer

    def test_loss_decreases(self, small_dataset, tiny_model):
        trainer = self._train(small_dataset, tiny_model, epochs=6)
        assert trainer.history.base_loss[-1] < trainer.history.base_loss[0]

    def test_val_history_recorded(self, small_dataset, tiny_model):
        trainer = self._train(small_dataset, tiny_model)
        assert len(trainer.history.val_emd) == 3

    def test_mse_loss_option(self, small_dataset, tiny_model):
        trainer = self._train(small_dataset, tiny_model, loss="mse", epochs=2)
        assert len(trainer.history.loss) == 2

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(loss="huber")

    def test_empty_dataset_rejected(self, small_dataset, tiny_model):
        empty = small_dataset.split(0.7, 0.15, seed=0)[1]
        empty.samples = []
        with pytest.raises(ValueError):
            Trainer(tiny_model, empty, TrainerConfig())


class TestKal:
    def test_multipliers_grow_on_violation(self, small_dataset, tiny_model):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        trainer = Trainer(
            tiny_model,
            train,
            TrainerConfig(epochs=2, batch_size=4, use_kal=True, mu=0.5, seed=0),
        )
        trainer.train()
        # An untrained model violates C1/C2, so equality multipliers grow.
        assert trainer.lambda_max.sum() > 0
        assert trainer.lambda_periodic.sum() > 0

    def test_kal_reduces_constraint_errors(self, small_dataset):
        """Training with KAL yields lower consistency error than without,
        at equal budget — the paper's Table-1 trend (rows a-c)."""
        train, val, test = small_dataset.split(0.6, 0.2, seed=1)

        def build():
            return TransformerImputer(
                TransformerConfig(
                    num_features=small_dataset.num_features,
                    num_queues=small_dataset.num_queues,
                    d_model=16,
                    num_heads=2,
                    num_layers=1,
                    d_ff=32,
                ),
                small_dataset.scaler,
                seed=0,
            )

        results = {}
        for use_kal in (False, True):
            model = build()
            trainer = Trainer(
                model,
                train,
                TrainerConfig(epochs=8, batch_size=4, use_kal=use_kal, mu=0.5, seed=0),
            )
            trainer.train()
            report = trainer.constraint_report(test)
            results[use_kal] = (
                report["max_error"] + report["periodic_error"] + report["sent_error"]
            )
        assert results[True] < results[False]

    def test_kal_requires_positive_mu(self):
        with pytest.raises(ValueError):
            TrainerConfig(use_kal=True, mu=0.0)

    def test_inequality_multiplier_stays_nonnegative(self, small_dataset, tiny_model):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        trainer = Trainer(
            tiny_model, train, TrainerConfig(epochs=2, use_kal=True, mu=0.5, seed=0)
        )
        trainer.train()
        assert (trainer.lambda_sent >= 0).all()


def _train(dataset, checkpoint=None, **overrides):
    """Two KAL epochs on the small dataset's training split (float64)."""
    settings = dict(
        epochs=2, batch_size=4, use_kal=True, mu=0.5, seed=0, dtype="float64"
    )
    settings.update(overrides)
    train, _, _ = dataset.split(0.7, 0.15, seed=0)
    model = TransformerImputer(
        TransformerConfig(
            num_features=dataset.num_features,
            num_queues=dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=1,
            d_ff=32,
        ),
        dataset.scaler,
        seed=0,
    )
    trainer = Trainer(model, train, TrainerConfig(**settings))
    trainer.train(checkpoint_path=checkpoint)
    return trainer


class TestDtypePolicy:
    def test_float32_training_converges(self, small_dataset):
        trainer = _train(small_dataset, epochs=4, use_kal=False, dtype="float32")
        assert trainer.model.dtype == np.float32
        assert trainer.history.loss[-1] < trainer.history.loss[0]

    def test_float32_tracks_float64(self, small_dataset):
        fast = _train(small_dataset, epochs=1, use_kal=False, dtype="float32")
        exact = _train(small_dataset, epochs=1, use_kal=False, dtype="float64")
        assert abs(fast.history.loss[0] - exact.history.loss[0]) < 1e-4

    def test_dtype_survives_checkpoint_roundtrip(
        self, small_dataset, tiny_model, tmp_path
    ):
        path = tmp_path / "ckpt.npz"
        _train(small_dataset, epochs=1, dtype="float32", checkpoint=path)
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        restored = Trainer(
            tiny_model,
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


class TestGoldenFloat64Step:
    """Two float64 epochs land on pinned bits: the parameters and the KAL
    multipliers, hashed.  The digests were recorded under OpenBLAS on
    x86-64 and do not move between one and two BLAS threads at this size;
    a BLAS built with other kernels may round differently."""

    GOLDEN = {
        True: "9fdadf526d4475b40c016dacd783ff35868be82f1ad37628941deacbbf2b8560",
        False: "2d2245784ca77315f2d69be7dee7f65539a768d9fdb20eb2378a5c9b94e38b09",
    }

    @pytest.mark.parametrize("use_kal", [True, False])
    def test_parameters_match_the_pinned_digest(self, small_dataset, use_kal):
        trainer = _train(small_dataset, use_kal=use_kal)
        digest = hashlib.sha256()
        state = trainer.model.state_dict()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(state[name]).tobytes())
        for multipliers in (
            trainer.lambda_max, trainer.lambda_periodic, trainer.lambda_sent
        ):
            digest.update(multipliers.tobytes())
        assert digest.hexdigest() == self.GOLDEN[use_kal]


class TestOracleSwitchReachesTraining:
    """``fused_kernels(False)`` around ``Trainer.train`` trains on the
    composite ops: no config field chooses kernels, so the benchmarks'
    reference training relies on the switch reaching every forward and
    backward the trainer runs."""

    KERNELS = ("softmax", "log_softmax", "gelu", "layer_norm", "attention_core", "slice_last")

    @pytest.fixture()
    def kernel_calls(self, monkeypatch):
        from repro.autodiff import fused

        calls = []
        for name in self.KERNELS:
            kernel = getattr(fused, name)

            def spy(*args, _name=name, _kernel=kernel, **kwargs):
                calls.append(_name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(fused, name, spy)
        return calls

    def test_inside_the_switch_no_kernel_runs(self, small_dataset, kernel_calls):
        from repro.autodiff import fused_kernels

        with fused_kernels(False):
            _train(small_dataset, epochs=1)
        assert kernel_calls == []

    def test_outside_the_switch_the_kernels_run(self, small_dataset, kernel_calls):
        _train(small_dataset, epochs=1)
        assert {"attention_core", "layer_norm", "slice_last"} <= set(kernel_calls)
