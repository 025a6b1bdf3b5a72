"""Tests for the end-to-end pipeline (transformer + KAL + CEM)."""

import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.constraints import check_constraints
from repro.imputation import (
    ImputationPipeline,
    ModelOverrides,
    PipelineConfig,
    TrainerConfig,
)


@pytest.fixture(scope="module")
def fitted_pipeline(small_dataset):
    train, val, _ = small_dataset.split(0.7, 0.15, seed=0)
    pipeline = ImputationPipeline(
        train,
        PipelineConfig(
            use_kal=True,
            use_cem=True,
            model=ModelOverrides(d_model=16, num_heads=2, num_layers=1, d_ff=32),
            trainer=TrainerConfig(epochs=3, batch_size=4, seed=0),
        ),
        val=val,
        seed=0,
    )
    return pipeline.fit()


class TestPipeline:
    def test_impute_before_fit_raises(self, small_dataset):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        pipeline = ImputationPipeline(train, PipelineConfig())
        with pytest.raises(RuntimeError):
            pipeline.impute(small_dataset[0])

    def test_output_satisfies_constraints(self, fitted_pipeline, small_dataset):
        _, _, test = small_dataset.split(0.7, 0.15, seed=0)
        for sample in test.samples:
            out = fitted_pipeline.impute(sample)
            report = check_constraints(out, sample, small_dataset.switch_config)
            assert report.satisfied, report

    def test_raw_output_differs_from_corrected(self, fitted_pipeline, small_dataset):
        _, _, test = small_dataset.split(0.7, 0.15, seed=0)
        sample = test[0]
        raw = fitted_pipeline.impute_raw(sample)
        corrected = fitted_pipeline.impute(sample)
        assert raw.shape == corrected.shape
        # A 3-epoch model will not be exactly feasible on its own.
        assert not np.allclose(raw, corrected)

    def test_cem_disabled_returns_raw(self, small_dataset):
        train, _, test = small_dataset.split(0.7, 0.15, seed=0)
        pipeline = ImputationPipeline(
            train,
            PipelineConfig(
                use_kal=False,
                use_cem=False,
                model=ModelOverrides(d_model=16, num_heads=2, num_layers=1, d_ff=32),
                trainer=TrainerConfig(epochs=1, batch_size=4, seed=0),
            ),
            seed=0,
        ).fit()
        sample = test[0]
        np.testing.assert_array_equal(
            pipeline.impute(sample), pipeline.impute_raw(sample)
        )

    def test_impute_dataset(self, fitted_pipeline, small_dataset):
        _, _, test = small_dataset.split(0.7, 0.15, seed=0)
        outputs = fitted_pipeline.impute_dataset(test)
        assert len(outputs) == len(test)


class TestTypedPipelineConfig:
    def test_typed_configs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PipelineConfig(model=ModelOverrides(), trainer=TrainerConfig())

    def test_model_overrides_mirror_transformer_defaults(self):
        # ModelOverrides restates TransformerConfig's architecture
        # defaults so PipelineConfig() means "the default transformer";
        # this pins the two against drifting apart.
        from repro.imputation.transformer_imputer import TransformerConfig

        transformer_defaults = {f.name: f.default for f in fields(TransformerConfig)}
        for name, value in asdict(ModelOverrides()).items():
            assert transformer_defaults[name] == value, name

    def test_pipeline_use_kal_is_authoritative(self, small_dataset):
        train, _, _ = small_dataset.split(0.7, 0.15, seed=0)
        pipeline = ImputationPipeline(
            train,
            PipelineConfig(
                use_kal=False,
                model=ModelOverrides(d_model=16, num_heads=2, num_layers=1, d_ff=32),
                trainer=TrainerConfig(epochs=1, use_kal=True),
            ),
        )
        assert pipeline.trainer.config.use_kal is False
