"""Attention memory: the score matrix is held a bounded number of times.

Peaks are tracemalloc peaks of traced numpy memory for a fused float32
encoder, counted in score-matrix sizes (``batch * heads * T * T``):

* a training step (forward + backward) peaks at no more than
  ``num_layers + 3`` sizes: one retained probability matrix per layer,
  plus the working set of the layer being differentiated.  Holding the
  raw scores or a score-sized interior gradient per layer until the
  step ends breaks the bound;
* a ``no_grad`` forward peaks at no more than 0.75 sizes.  Attention is
  tiled by batch element and keeps nothing for a backward, so it needs
  one batch element's scores at a time, not the whole matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.autodiff import Tensor, fused_kernels, no_grad
from repro.nn import TransformerEncoder

NUM_LAYERS = 2
BATCH, SEQ, D_MODEL, HEADS, D_FF = 2, 512, 32, 4, 64
SCORE_BYTES = BATCH * HEADS * SEQ * SEQ * np.dtype(np.float32).itemsize


def _traced_peak(train: bool) -> int:
    model = TransformerEncoder(NUM_LAYERS, D_MODEL, HEADS, D_FF, seed=0)
    model.to_dtype(np.float32)
    x = Tensor(
        np.random.default_rng(0).normal(size=(BATCH, SEQ, D_MODEL)), dtype=np.float32
    )
    with fused_kernels(True):
        tracemalloc.start()
        try:
            if train:
                model(x).sum().backward()
            else:
                with no_grad():
                    model(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_training_step_peak_is_bounded_by_score_matrices():
    peak = _traced_peak(train=True)
    assert peak <= (NUM_LAYERS + 3) * SCORE_BYTES, (
        f"peak {peak / SCORE_BYTES:.2f} score-matrix sizes "
        f"(bound {NUM_LAYERS + 3})"
    )


def test_inference_forward_peak_is_below_one_score_matrix():
    peak = _traced_peak(train=False)
    assert peak <= 0.75 * SCORE_BYTES, (
        f"peak {peak / SCORE_BYTES:.2f} score-matrix sizes (bound 0.75)"
    )
