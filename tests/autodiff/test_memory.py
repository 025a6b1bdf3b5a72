"""Training-step memory: the attention score matrix is held a bounded number of times.

A forward + backward of a fused float32 encoder must peak at no more
than ``num_layers + 3`` score-matrix sizes of traced numpy memory: one
retained probability matrix per layer, plus the working set of the
layer being differentiated.  Holding the raw scores or a score-sized
interior gradient per layer until the step ends breaks the bound.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.autodiff import Tensor, fused_kernels
from repro.nn import TransformerEncoder

NUM_LAYERS = 2
BATCH, SEQ, D_MODEL, HEADS, D_FF = 2, 512, 32, 4, 64


def _traced_step_peak() -> int:
    model = TransformerEncoder(NUM_LAYERS, D_MODEL, HEADS, D_FF, seed=0)
    model.to_dtype(np.float32)
    x = Tensor(
        np.random.default_rng(0).normal(size=(BATCH, SEQ, D_MODEL)), dtype=np.float32
    )
    with fused_kernels(True):
        tracemalloc.start()
        try:
            model(x).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_training_step_peak_is_bounded_by_score_matrices():
    score_bytes = BATCH * HEADS * SEQ * SEQ * np.dtype(np.float32).itemsize
    peak = _traced_step_peak()
    assert peak <= (NUM_LAYERS + 3) * score_bytes, (
        f"peak {peak / score_bytes:.2f} score-matrix sizes "
        f"(bound {NUM_LAYERS + 3})"
    )
