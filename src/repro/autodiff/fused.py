"""Fused forward/backward kernels for the transformer hot path.

The composite ops in :mod:`repro.autodiff.functional` build softmax,
layer-norm and GELU out of primitive ``Tensor`` ops, so one softmax
records five graph nodes and its backward allocates five gradient
buffers.  Profiling the trainer shows that this graph overhead — not the
GEMMs — dominates wall-clock.  The kernels here compute the same
mathematical function as one graph node with a closed-form backward:

* forwards are written with the *same numpy op sequence* as the
  composites, so fused and composite forwards are bit-identical in every
  dtype;
* backwards use the standard closed-form gradients (softmax:
  ``y * (g - sum(g * y))``; layer-norm: the three-term mean/variance
  formula; GELU: the tanh-approximation derivative).  They agree with
  the composite backwards to floating-point round-off (the summation
  order differs), which the test suite pins;
* :func:`attention_core` is one node for scaled-dot-product attention
  from QK^T to the context.  It owns the score matrix, the largest
  array in the model, and retains only its probabilities.  Its backward
  uses the closed-form softmax gradient too, in the op order of the
  matmul/softmax/dropout/matmul node chain it replaced, whose gradients
  it reproduces bit for bit.

Fusion is enabled by default; :func:`set_fused_kernels` /
:func:`fused_kernels` switch back to the composite reference path, which
differential tests and benchmarks use as the baseline.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.autodiff import tensor as _tensor_mod
from repro.autodiff.tensor import Tensor, _unbroadcast

_FUSED_ENABLED = True


def fused_kernels_enabled() -> bool:
    """Whether functional ops dispatch to the fused kernels."""
    return _FUSED_ENABLED


def set_fused_kernels(enabled: bool) -> None:
    """Globally enable/disable the fused kernels (reference = composite).

    The gradient-accumulation strategy switches in lockstep: disabling
    the fused kernels also restores the pre-optimization allocate-and-add
    accumulation, so the reference path measures the original execution
    end to end (see :func:`repro.autodiff.tensor.set_optimized_accumulation`).
    """
    global _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    _tensor_mod.set_optimized_accumulation(_FUSED_ENABLED)


@contextlib.contextmanager
def fused_kernels(enabled: bool):
    """Context manager scoping :func:`set_fused_kernels`."""
    previous = _FUSED_ENABLED
    set_fused_kernels(enabled)
    try:
        yield
    finally:
        set_fused_kernels(previous)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused numerically stable softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    y = shifted
    y /= y.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # One allocation instead of three: the g*y product buffer is
            # reused for (g - inner) and the final product.  ``grad`` is
            # only read (it may be another node's live gradient).
            out = grad * y
            inner = out.sum(axis=axis, keepdims=True)
            np.subtract(grad, inner, out=out)
            out *= y
            x._accumulate(out)

    return x._make(y, (x,), backward)


def attention_core(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: np.ndarray | None = None,
    dropout: np.ndarray | None = None,
) -> Tensor:
    """Fused ``softmax(q @ kᵀ * scale + mask) [* dropout] @ v`` as one node.

    ``dropout`` is the inverted-dropout multiplier over the probabilities
    (already divided by ``1 - p``), or ``None`` when dropout is inactive.
    The forward runs the composite op sequence value for value: the
    QK^T buffer is scaled in place and reused for the shift, exp and
    normalisation.  The node retains only the probabilities (plus the
    dropped copy while dropout is active), where a chain of nodes keeps
    the raw scores as well, and the score-sized gradients flowing
    between them.

    The backward applies the closed-form softmax gradient in the op
    order of the QK^T-matmul, softmax, dropout and context-matmul node
    chain, so its gradients equal that chain's bit for bit.  The row
    sums of ``dP * P`` are taken one leading-axis slice at a time: a
    contiguous row sums the same way inside a slice, and the full-size
    product buffer is never allocated.
    """
    scale = float(scale)  # weak scalar: float32 inputs stay float32
    t = q.data @ np.swapaxes(k.data, -1, -2)
    t *= scale
    if mask is not None:
        t += mask
    np.subtract(t, t.max(axis=-1, keepdims=True), out=t)
    np.exp(t, out=t)
    probs = t
    probs /= probs.sum(axis=-1, keepdims=True)
    dropped = probs if dropout is None else probs * dropout
    out = dropped @ v.data

    def backward(grad: np.ndarray) -> None:
        # ``grad`` is only read: it may be another node's live gradient.
        if v.requires_grad:
            v._accumulate(np.swapaxes(dropped, -1, -2) @ grad)
        if not (q.requires_grad or k.requires_grad):
            return
        dp = grad @ np.swapaxes(v.data, -1, -2)
        if dropout is not None:
            dp *= dropout
        inner = np.empty(dp.shape[:-1] + (1,), dtype=dp.dtype)
        for i in range(dp.shape[0]):
            inner[i] = (dp[i] * probs[i]).sum(axis=-1, keepdims=True)
        dp -= inner
        dp *= probs
        dp *= scale
        if q.requires_grad:
            q._accumulate(dp @ k.data)
        if k.requires_grad:
            k._accumulate(np.swapaxes(np.swapaxes(q.data, -1, -2) @ dp, -1, -2))

    return q._make(out, (q, k, v), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused numerically stable log-softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=axis, keepdims=True)
    out = shifted - np.log(total)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            softmax_data = exp / total
            x._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return x._make(out, (x,), backward)


_GELU_COEFF = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Fused GELU (tanh approximation), matching ``functional.gelu``."""
    data = x.data
    # float() keeps the scalar weakly typed so float32 inputs stay float32.
    scale = float(np.sqrt(2.0 / np.pi))
    inner = (data + data * data * data * _GELU_COEFF) * scale
    t = np.tanh(inner)
    out = data * (t + 1.0) * 0.5

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            sech2 = 1.0 - t * t
            dinner = scale * (1.0 + 3.0 * _GELU_COEFF * data * data)
            x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * data * sech2 * dinner))

    return x._make(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalisation over the last axis with affine params."""
    data = x.data
    count = data.shape[-1]
    # Mirror the composite op sequence exactly (sum * (1/n), then /sqrt)
    # so the fused forward is bit-identical to the reference.
    mean = data.sum(axis=-1, keepdims=True) * (1.0 / count)
    centred = data - mean
    variance = (centred * centred).sum(axis=-1, keepdims=True) * (1.0 / count)
    std = np.sqrt(variance + eps)
    normalised = centred / std
    out = normalised * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dnorm = grad * weight.data
            dnorm_mean = dnorm.mean(axis=-1, keepdims=True)
            proj = (dnorm * normalised).mean(axis=-1, keepdims=True)
            x._accumulate((dnorm - dnorm_mean - normalised * proj) / std)
        if weight.requires_grad:
            weight._accumulate(_unbroadcast(grad * normalised, weight.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return x._make(out, (x, weight, bias), backward)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice ``x[..., start:stop]`` with a dense (no ``add.at``) backward.

    Used to split a packed Q/K/V projection; the generic ``__getitem__``
    backward scatters through ``np.add.at``, which is an order of
    magnitude slower than slice assignment for contiguous spans.
    """
    out_data = x.data[..., start:stop]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[..., start:stop] = grad
            x._accumulate(full)

    return x._make(out_data, (x,), backward)
