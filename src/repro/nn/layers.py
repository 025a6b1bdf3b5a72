"""Basic neural-network layers: Linear, LayerNorm, Embedding, Dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.module import Module, Parameter
from repro.autodiff.tensor import Tensor
from repro.utils.rng import RngLike, as_generator


def _xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Xavier-uniform initialisation.

    The weight is stored as (in_features, out_features) so the forward pass
    is a plain right-multiplication on batched inputs.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: RngLike = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"features must be positive, got in={in_features}, out={out_features}"
            )
        rng = as_generator(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_xavier_uniform(rng, in_features, out_features))
        self.bias: Optional[Parameter] = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalisation over the last axis with learned scale and shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        if normalized_shape <= 0:
            raise ValueError(f"normalized_shape must be positive, got {normalized_shape}")
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Embedding(Module):
    """Lookup table mapping integer ids to learned dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, seed: RngLike = None):
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError(
                "num_embeddings and embedding_dim must be positive, got "
                f"{num_embeddings} and {embedding_dim}"
            )
        rng = as_generator(seed)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        if ids.min() < 0 or ids.max() >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}), "
                f"got min={ids.min()}, max={ids.max()}"
            )
        return self.weight[ids]


class Dropout(Module):
    """Inverted dropout; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.1, seed: RngLike = None):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_generator(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, self.training)

    def draw_mask(self, shape: tuple[int, ...], dtype) -> Optional[np.ndarray]:
        """Draw the multiplier ``forward`` would apply to an input of
        ``shape``, or return ``None`` (drawing nothing) when inactive."""
        if not self.training or self.p <= 0.0:
            return None
        return F.dropout_mask(shape, self.p, self._rng, dtype)


class Sequential(Module):
    """Run modules in order, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
