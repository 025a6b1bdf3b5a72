"""The transformer imputation model (§2.2, Fig. 3).

Architecture: a linear input projection of the per-bin telemetry feature
vector into ``d_model``, sinusoidal positional encoding, a stack of
pre-norm transformer encoder layers, and a linear decoder head that emits
one value per queue per fine bin.  A final softplus keeps outputs
non-negative — queue lengths cannot be negative, and baking that in frees
the constraint machinery to focus on C1–C3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff.module import Module
from repro.autodiff.tensor import Tensor, no_grad
from repro.imputation.base import Imputer
from repro.nn.layers import Linear
from repro.nn.transformer import PositionalEncoding, TransformerEncoder
from repro.telemetry.dataset import FeatureScaler, ImputationSample
from repro.utils.cpu import split_halves
from repro.utils.rng import RngLike, spawn_generators


@dataclass(frozen=True)
class TransformerConfig:
    """Model hyper-parameters.

    Defaults are sized for CPU training on the paper-scale problem
    (300-bin windows, 8 queues); they are deliberately small — the paper's
    contribution is the FM integration, not model scale.
    """

    num_features: int
    num_queues: int
    d_model: int = 48
    num_heads: int = 4
    num_layers: int = 2
    d_ff: int = 96
    dropout: float = 0.0
    max_len: int = 4096

    def __post_init__(self):
        if self.num_features <= 0 or self.num_queues <= 0:
            raise ValueError("num_features and num_queues must be positive")


class TransformerImputer(Module, Imputer):
    """Transformer encoder + linear decoder that imputes all queues jointly."""

    def __init__(self, config: TransformerConfig, scaler: FeatureScaler, seed: RngLike = None):
        rngs = spawn_generators(seed, 3)
        self.config = config
        self.scaler = scaler
        self.input_proj = Linear(config.num_features, config.d_model, seed=rngs[0])
        self.positional = PositionalEncoding(config.d_model, max_len=config.max_len)
        self.encoder = TransformerEncoder(
            num_layers=config.num_layers,
            d_model=config.d_model,
            num_heads=config.num_heads,
            d_ff=config.d_ff,
            dropout=config.dropout,
            seed=rngs[1],
        )
        self.head = Linear(config.d_model, config.num_queues, seed=rngs[2])

    def forward(self, features: Tensor) -> Tensor:
        """(B, T, C) normalised features → (B, Q, T) normalised queue lengths."""
        hidden = self.encoder(self.positional(self.input_proj(features)))
        out = self.head(hidden)  # (B, T, Q)
        return out.softplus().transpose(0, 2, 1)

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the model parameters (see :meth:`Module.to_dtype`)."""
        return self.head.weight.data.dtype

    # ------------------------------------------------------------------
    # Imputer interface
    # ------------------------------------------------------------------
    def impute(self, sample: ImputationSample) -> np.ndarray:
        """Impute one window; returns (Q, T) in packet units."""
        self.eval()
        return self._predict([sample])[0]

    def impute_batch(self, samples: list[ImputationSample]) -> list[np.ndarray]:
        """Impute many windows in one batched forward pass.

        The transformer treats batch items independently, so each result
        is identical to the corresponding :meth:`impute` call; batching
        just amortises the per-forward graph and GEMM dispatch overhead.
        With a second CPU to spare, the second half of the windows is
        forwarded on a helper thread beside the first
        (:func:`~repro.utils.cpu.split_halves`): numpy releases the GIL
        in the matmuls, exps and reductions that make up the forward.
        """
        self.eval()
        return split_halves(self._predict, samples)

    def _predict(self, samples: list[ImputationSample]) -> list[np.ndarray]:
        """One forward pass without a graph, in the calling thread."""
        if not samples:
            return []
        with no_grad():
            features = np.stack([s.features for s in samples])
            pred = self.forward(Tensor(features, dtype=self.dtype))
        return [self.scaler.denormalise_qlen(p) for p in pred.numpy()]
