"""End-to-end pipeline: transformer (+KAL) at training, (+CEM) at inference.

This assembles Fig. 3 of the paper: coarse telemetry → transformer trained
with the knowledge-augmented loss → constraint enforcement on the output.
The four Table-1 method variants are produced by toggling ``use_kal`` and
``use_cem``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.imputation.base import Imputer
from repro.imputation.cem import ConstraintEnforcer
from repro.imputation.trainer import Trainer, TrainerConfig
from repro.imputation.transformer_imputer import TransformerConfig, TransformerImputer
from repro.telemetry.dataset import ImputationSample, TelemetryDataset
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class ModelOverrides:
    """The architecture knobs of :class:`TransformerConfig`.

    :class:`TransformerConfig` itself also carries ``num_features`` and
    ``num_queues``, which are properties of the *dataset* the pipeline is
    fitted on — this dataclass is the configurable remainder.  Defaults
    mirror ``TransformerConfig``'s (asserted by a test, so they cannot
    drift).
    """

    d_model: int = 48
    num_heads: int = 4
    num_layers: int = 2
    d_ff: int = 96
    dropout: float = 0.0
    max_len: int = 4096


@dataclass
class PipelineConfig:
    """Configuration for the full imputation pipeline.

    ``model`` and ``trainer`` are typed nested configs
    (:class:`ModelOverrides`, :class:`~repro.imputation.trainer.
    TrainerConfig`); ``trainer.use_kal`` is always overridden by this
    config's own ``use_kal`` flag.

    ``selfcheck`` re-verifies every CEM-corrected window against the
    exactness oracle (C1–C3 satisfied, sampled bins pinned, non-negative)
    and raises :class:`~repro.testing.selfcheck.SelfCheckError` with a
    window-level repro on violation; off by default.

    ``checkpoint`` names a file for atomic, checksummed training
    checkpoints (written every ``checkpoint_every`` epochs); with
    ``fit(resume=True)`` an interrupted training run continues from it
    bit-identically.  ``None`` (the default) trains without any
    checkpoint I/O — the seed code path.
    """

    use_kal: bool = True
    use_cem: bool = True
    selfcheck: bool = False
    checkpoint: "str | None" = None  # path for training checkpoints
    checkpoint_every: int = 1  # epochs between checkpoint writes
    model: ModelOverrides = field(default_factory=ModelOverrides)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)


class ImputationPipeline(Imputer):
    """The paper's full method (or any ablation of it).

    Usage::

        pipeline = ImputationPipeline(train_set, PipelineConfig(), seed=0)
        pipeline.fit()
        imputed = pipeline.impute(test_sample)   # constraints enforced
    """

    def __init__(
        self,
        train: TelemetryDataset,
        config: PipelineConfig | None = None,
        val: TelemetryDataset | None = None,
        seed: RngLike = 0,
    ):
        self.config = config if config is not None else PipelineConfig()
        model_config = TransformerConfig(
            num_features=train.num_features,
            num_queues=train.num_queues,
            **asdict(self.config.model),
        )
        self.model = TransformerImputer(model_config, train.scaler, seed=seed)
        # The pipeline-level use_kal flag is authoritative (it also
        # selects the ablation column in Table 1).
        trainer_config = replace(self.config.trainer, use_kal=self.config.use_kal)
        self.trainer = Trainer(self.model, train, trainer_config, val=val)
        self.enforcer = ConstraintEnforcer(train.switch_config)
        self._fitted = False

    def fit(self, resume: bool = False) -> "ImputationPipeline":
        """Train the transformer; returns self for chaining.

        With ``resume=True`` (and ``config.checkpoint`` set) training
        continues from the last saved checkpoint instead of epoch 0.
        """
        self.trainer.train(
            checkpoint_path=self.config.checkpoint,
            checkpoint_every=self.config.checkpoint_every,
            resume=resume,
        )
        self._fitted = True
        return self

    def impute(self, sample: ImputationSample) -> np.ndarray:
        """Impute one window; applies CEM when configured."""
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted before imputing")
        raw = self.model.impute(sample)
        if not self.config.use_cem:
            return raw
        corrected = self.enforcer.enforce(raw, sample)
        if self.config.selfcheck:
            from repro.testing.selfcheck import selfcheck_enforced

            selfcheck_enforced(
                corrected,
                sample,
                self.enforcer.config,
                repro={"use_kal": self.config.use_kal},
            )
        return corrected

    def impute_raw(self, sample: ImputationSample) -> np.ndarray:
        """The transformer's output before constraint enforcement."""
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted before imputing")
        return self.model.impute(sample)
