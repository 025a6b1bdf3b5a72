"""A small reverse-mode automatic-differentiation engine on numpy.

The paper trains a transformer with PyTorch; this package is the
from-scratch substitute.  It provides:

* :class:`~repro.autodiff.tensor.Tensor` — an ndarray wrapper that records
  the computation graph and supports ``backward()``;
* :mod:`~repro.autodiff.functional` — composite differentiable functions
  (softmax, log-softmax, dropout masks, padding, one-hot);
* :mod:`~repro.autodiff.module` — ``Parameter``/``Module`` machinery with
  recursive parameter discovery and state dicts;
* :mod:`~repro.autodiff.optim` — SGD (with momentum) and Adam optimizers
  plus global-norm gradient clipping.

Gradients are exact (verified against central finite differences in the
test suite) and broadcasting follows numpy semantics.
"""

from repro.autodiff.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
)
from repro.autodiff import functional
from repro.autodiff.fused import fused_kernels, fused_kernels_enabled
from repro.autodiff.module import Module, Parameter
from repro.autodiff.optim import SGD, Adam, clip_grad_norm

__all__ = [
    "Tensor",
    "no_grad",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "fused_kernels",
    "fused_kernels_enabled",
    "functional",
    "Module",
    "Parameter",
    "SGD",
    "Adam",
    "clip_grad_norm",
]
