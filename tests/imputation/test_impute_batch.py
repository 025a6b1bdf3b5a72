"""Batched inference equals per-window inference, bit for bit.

Table 1, the robustness suite and the stream service impute windows
through :meth:`TransformerImputer.impute_batch`; their numbers are the
per-window model's only because each batch item's result equals the
:meth:`TransformerImputer.impute` call on that window alone.
"""

import numpy as np
import pytest

from repro.imputation import TransformerImputer
from repro.imputation.transformer_imputer import TransformerConfig

CHUNK = 16  # Table 1's evaluation chunk


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_batch_item_equals_its_single_window_call(small_dataset, dtype):
    model = TransformerImputer(
        TransformerConfig(
            num_features=small_dataset.num_features,
            num_queues=small_dataset.num_queues,
            d_model=16,
            num_heads=2,
            num_layers=2,
            d_ff=32,
        ),
        small_dataset.scaler,
        seed=3,
    )
    model.to_dtype(dtype)
    samples = small_dataset.samples
    assert len(samples) > CHUNK and len(samples) % CHUNK, "need a part-full chunk"
    for start in range(0, len(samples), CHUNK):
        chunk = samples[start : start + CHUNK]
        batched = model.impute_batch(chunk)
        assert len(batched) == len(chunk)
        for sample, imputed in zip(chunk, batched):
            np.testing.assert_array_equal(imputed, model.impute(sample))
