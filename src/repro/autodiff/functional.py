"""Composite differentiable functions built from ``Tensor`` primitives.

Everything here is expressed in terms of the primitive ops in
:mod:`repro.autodiff.tensor`, so gradients come for free and stay exact.
The transformer hot-path ops (softmax, log-softmax, GELU, layer-norm)
dispatch to :mod:`repro.autodiff.fused`; the composite bodies below are
the reference implementations the fused kernels are verified against,
selected only inside :func:`repro.autodiff.fused.fused_kernels` ``(False)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import fused as _fused
from repro.autodiff.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if _fused.fused_kernels_enabled():
        return _fused.softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True), dtype=x.data.dtype)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if _fused.fused_kernels_enabled():
        return _fused.log_softmax(x, axis=axis)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True), dtype=x.data.dtype)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit (tanh approximation, as in BERT/GPT)."""
    if _fused.fused_kernels_enabled():
        return _fused.gelu(x)
    inner = (x + x * x * x * 0.044715) * np.sqrt(2.0 / np.pi)
    return x * (inner.tanh() + 1.0) * 0.5


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine parameters."""
    if _fused.fused_kernels_enabled():
        return _fused.layer_norm(x, weight, bias, eps=eps)
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=-1, keepdims=True)
    normalised = centred / (variance + eps).sqrt()
    return normalised * weight + bias


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = dropout_mask(x.shape, p, rng, x.data.dtype)
    return x * Tensor(mask, dtype=mask.dtype)


def dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator, dtype
) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability ``p``, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` (weight shaped in_features × out)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    return (prediction - target).abs().mean()


def smooth_nonempty_indicator(x: Tensor, scale: float = 10.0) -> Tensor:
    """Differentiable surrogate for ``1[x > 0]`` used by constraint C3.

    The paper (§3.1) applies a Tanh to each *scaled* queue length so that
    the output is ~1 for positive lengths and ~0 for empty queues.  Queue
    lengths are non-negative, so ``tanh(scale * x)`` suffices.
    """
    return (x * scale).tanh()
