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
  array in the model, and works through it one batch element at a
  time, so each pass runs on a slice that fits in L2.  It retains only
  the probabilities, and nothing under ``no_grad``.  Its backward uses
  the closed-form softmax gradient too, in the op order of the
  matmul/softmax/dropout/matmul node chain it replaced, whose outputs
  and gradients it reproduces bit for bit
  (:func:`repro.testing.attention_node_chain` is that oracle).

Fusion is enabled by default; :func:`set_fused_kernels` /
:func:`fused_kernels` switch back to the composite reference path, which
differential tests and benchmarks use as the baseline.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.autodiff import tensor as _tensor_mod
from repro.autodiff.tensor import Tensor, _unbroadcast, grad_enabled

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

    ``q``, ``k`` and ``v`` are at least 3-D and share their leading
    shape, ``(batch, ..., len, dim)``.  ``mask`` and ``dropout`` must
    broadcast to the score shape ``q.shape[:-1] + (k_len,)``;
    ``dropout`` is the inverted-dropout multiplier over the
    probabilities (already divided by ``1 - p``), or ``None`` when
    dropout is inactive.

    The work is tiled by the leading (batch) axis: each batch element's
    score slice runs QK^T, scale, mask, shift, exp, normalise, dropout
    and the context matmul before the next element starts, so every
    pass over the score matrix stays in cache.  numpy's matmul and its
    last-axis reductions give the same bits on a slice as on the whole
    array, so the result equals the composite op sequence value for
    value.  When the node will have a backward, each tile is written
    into the retained probabilities (and their dropped copy while
    dropout is active).  Under ``no_grad`` one tile buffer serves every
    batch element and nothing is retained.

    The backward applies the closed-form softmax gradient in the op
    order of the QK^T-matmul, softmax, dropout and context-matmul node
    chain, so its gradients equal that chain's bit for bit.  It runs
    one batch element at a time through a reused score-sized tile and
    accumulates each input once: no full-size score gradient exists.
    """
    if q.ndim < 3 or not (q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ValueError(
            "attention_core needs q, k, v of at least 3 dims sharing their "
            f"leading shape, got {q.shape}, {k.shape}, {v.shape}"
        )
    scale = float(scale)  # weak scalar: float32 inputs stay float32
    q_data, k_data, v_data = q.data, k.data, v.data
    k_t = np.swapaxes(k_data, -1, -2)
    v_t = np.swapaxes(v_data, -1, -2)
    scores_shape = q.shape[:-1] + (k.shape[-2],)
    dtype = np.result_type(q_data, k_data)
    drop_dtype = dtype if dropout is None else np.result_type(dtype, dropout)
    if mask is not None:
        mask = np.broadcast_to(mask, scores_shape)
    if dropout is not None:
        dropout = np.broadcast_to(dropout, scores_shape)
    # With a backward to come, tile ``i`` is ``probs[i]``; under no_grad
    # one tile (index 0 of a length-1 stack) is reused for every ``i``.
    retain = grad_enabled() and (q.requires_grad or k.requires_grad or v.requires_grad)
    stack = scores_shape if retain else (1,) + scores_shape[1:]
    probs = np.empty(stack, dtype)
    dropped = probs if dropout is None else np.empty(stack, drop_dtype)
    out = np.empty(q.shape[:-1] + (v.shape[-1],), np.result_type(drop_dtype, v_data))
    for i in range(q.shape[0]):
        j = i if retain else 0
        t = probs[j]
        np.matmul(q_data[i], k_t[i], out=t)
        t *= scale
        if mask is not None:
            t += mask[i]
        np.subtract(t, t.max(axis=-1, keepdims=True), out=t)
        np.exp(t, out=t)
        t /= t.sum(axis=-1, keepdims=True)
        if dropout is not None:
            np.multiply(t, dropout[i], out=dropped[j])
        np.matmul(dropped[j], v_data[i], out=out[i])

    def backward(grad: np.ndarray) -> None:
        # ``grad`` is only read: it may be another node's live gradient.
        dv = dq = dk_t = None
        if v.requires_grad:
            dv = np.empty(v.shape, np.result_type(drop_dtype, grad))
        if q.requires_grad or k.requires_grad:
            dp = np.empty(scores_shape[1:], np.result_type(grad, v_data))
            product = np.empty_like(dp)
            if q.requires_grad:
                dq = np.empty(q.shape, np.result_type(dp, k_data))
            if k.requires_grad:
                dk_t = np.empty(k_t.shape, np.result_type(q_data, dp))
        for i in range(q.shape[0]):
            if dv is not None:
                np.matmul(np.swapaxes(dropped[i], -1, -2), grad[i], out=dv[i])
            if dq is None and dk_t is None:
                continue
            np.matmul(grad[i], v_t[i], out=dp)
            if dropout is not None:
                dp *= dropout[i]
            np.multiply(dp, probs[i], out=product)
            dp -= product.sum(axis=-1, keepdims=True)
            dp *= probs[i]
            dp *= scale
            if dq is not None:
                np.matmul(dp, k_data[i], out=dq[i])
            if dk_t is not None:
                np.matmul(np.swapaxes(q_data[i], -1, -2), dp, out=dk_t[i])
        if dv is not None:
            v._accumulate(dv)
        if dq is not None:
            q._accumulate(dq)
        if dk_t is not None:
            k._accumulate(np.swapaxes(dk_t, -1, -2))

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
