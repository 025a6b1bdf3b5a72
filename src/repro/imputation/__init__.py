"""Imputation methods compared in the paper (§4).

Four methods, in the order of Table 1:

1. :class:`~repro.imputation.iterative.IterativeImputer` — the statistical
   baseline (MICE-style iterative ridge regression, a from-scratch
   equivalent of scikit-learn's ``IterativeImputer`` configured as the
   paper describes: periodic samples retained, LANZ max placed at the
   midpoint of its interval).
2. :class:`~repro.imputation.transformer_imputer.TransformerImputer`
   trained with the plain EMD loss (pure ML).
3. The same transformer trained with the Knowledge-Augmented Loss
   (:class:`~repro.imputation.trainer.Trainer` with ``use_kal=True``).
4. KAL + the Constraint Enforcement Module
   (:class:`~repro.imputation.cem.ConstraintEnforcer`) applied at
   inference — the paper's full method, assembled by
   :class:`~repro.imputation.pipeline.ImputationPipeline`.
"""

from repro.imputation.base import Imputer
from repro.imputation.iterative import IterativeImputer
from repro.imputation.transformer_imputer import TransformerImputer
from repro.imputation.trainer import Trainer, TrainerConfig
from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer
from repro.imputation.pipeline import ImputationPipeline, ModelOverrides, PipelineConfig

__all__ = [
    "Imputer",
    "IterativeImputer",
    "TransformerImputer",
    "Trainer",
    "TrainerConfig",
    "ConstraintEnforcer",
    "CEMInfeasibleError",
    "ImputationPipeline",
    "ModelOverrides",
    "PipelineConfig",
]
