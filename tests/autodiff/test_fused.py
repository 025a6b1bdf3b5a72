"""Fused kernels vs their composite reference twins.

The fused forwards mirror the composite op sequences operation for
operation, so in float64 they must be *bitwise* identical; the backwards
are closed-form rewrites of the same chain rule and are pinned to
round-off tolerance plus finite differences.
"""

import numpy as np
import pytest

from repro.autodiff import (
    Tensor,
    default_dtype,
    fused_kernels,
    fused_kernels_enabled,
    get_default_dtype,
    set_default_dtype,
)
from repro.autodiff import functional as F
from repro.autodiff import fused, no_grad
from repro.testing import attention_node_chain


def _composite(op, *args, **kwargs):
    with fused_kernels(False):
        return op(*args, **kwargs)


def _fused(op, *args, **kwargs):
    with fused_kernels(True):
        return op(*args, **kwargs)


def _grad_of(op, make_args, weights):
    """Run op under the current kernel selection; return (out, input grads)."""
    tensors = make_args()
    out = (op(*tensors) * Tensor(weights)).sum()
    out.backward()
    return tensors


class TestKernelToggle:
    def test_enabled_by_default(self):
        assert fused_kernels_enabled()

    def test_context_restores(self):
        with fused_kernels(False):
            assert not fused_kernels_enabled()
            with fused_kernels(True):
                assert fused_kernels_enabled()
            assert not fused_kernels_enabled()
        assert fused_kernels_enabled()


@pytest.mark.parametrize("shape", [(5, 7), (2, 3, 8)])
class TestForwardBitIdentity:
    """float64 fused forwards are byte-for-byte the composite outputs."""

    def test_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.softmax, Tensor(x), axis=-1).numpy()
        b = _fused(F.softmax, Tensor(x), axis=-1).numpy()
        np.testing.assert_array_equal(a, b)

    def test_log_softmax(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.log_softmax, Tensor(x), axis=-1).numpy()
        b = _fused(F.log_softmax, Tensor(x), axis=-1).numpy()
        np.testing.assert_array_equal(a, b)

    def test_gelu(self, rng, shape):
        x = rng.normal(size=shape)
        a = _composite(F.gelu, Tensor(x)).numpy()
        b = _fused(F.gelu, Tensor(x)).numpy()
        np.testing.assert_array_equal(a, b)

    def test_layer_norm(self, rng, shape):
        x = rng.normal(size=shape)
        w = rng.normal(size=shape[-1])
        c = rng.normal(size=shape[-1])
        a = _composite(F.layer_norm, Tensor(x), Tensor(w), Tensor(c)).numpy()
        b = _fused(F.layer_norm, Tensor(x), Tensor(w), Tensor(c)).numpy()
        np.testing.assert_array_equal(a, b)


class TestBackwardAgreement:
    """Closed-form fused backwards agree with the composite graph grads."""

    def _compare_grads(self, op, arrays, weights, atol=1e-12):
        grads = {}
        for enabled in (False, True):
            with fused_kernels(enabled):
                tensors = [Tensor(a, requires_grad=True) for a in arrays]
                (op(*tensors) * Tensor(weights)).sum().backward()
                grads[enabled] = [t.grad.copy() for t in tensors]
        for ref, fast in zip(grads[False], grads[True]):
            np.testing.assert_allclose(fast, ref, atol=atol, rtol=1e-10)

    def test_softmax_backward(self, rng):
        x = rng.normal(size=(4, 6))
        self._compare_grads(
            lambda t: F.softmax(t, axis=-1), [x], rng.normal(size=(4, 6))
        )

    def test_log_softmax_backward(self, rng):
        x = rng.normal(size=(4, 6))
        self._compare_grads(
            lambda t: F.log_softmax(t, axis=-1), [x], rng.normal(size=(4, 6))
        )

    def test_gelu_backward(self, rng):
        x = rng.normal(size=(3, 5))
        self._compare_grads(F.gelu, [x], rng.normal(size=(3, 5)))

    def test_layer_norm_backward(self, rng):
        x = rng.normal(size=(3, 8))
        w = rng.normal(size=8)
        b = rng.normal(size=8)
        self._compare_grads(F.layer_norm, [x, w, b], rng.normal(size=(3, 8)))

    def test_softmax_gradcheck(self, gradcheck, rng):
        weights = rng.normal(size=(3, 4))
        with fused_kernels(True):
            gradcheck(
                lambda t: (F.softmax(t, axis=-1) * Tensor(weights)).sum(),
                rng.normal(size=(3, 4)),
            )

    def test_layer_norm_gradcheck(self, gradcheck, rng):
        w = Tensor(rng.normal(size=6))
        b = Tensor(rng.normal(size=6))
        weights = rng.normal(size=(4, 6))
        with fused_kernels(True):
            gradcheck(
                lambda t: (F.layer_norm(t, w, b) * Tensor(weights)).sum(),
                rng.normal(size=(4, 6)),
            )

    def test_gelu_gradcheck(self, gradcheck, rng):
        with fused_kernels(True):
            gradcheck(lambda t: F.gelu(t).sum(), rng.normal(size=(5, 3)))

    def test_slice_last_gradcheck(self, gradcheck, rng):
        gradcheck(
            lambda t: (fused.slice_last(t, 2, 5) ** 2).sum(), rng.normal(size=(4, 8))
        )


def _composite_attention(q, k, v, scale, mask=None):
    """The unfused reference graph for ``attention_core``."""
    with fused_kernels(False):
        scores = q @ k.swapaxes(-1, -2) * scale
        if mask is not None:
            scores = scores + Tensor(mask, dtype=scores.data.dtype)
        return F.softmax(scores, axis=-1) @ v


def _heads(rng, shape, dtype):
    """A (batch, heads, seq, head_dim) view in the model's head layout."""
    batch, heads, seq, dim = shape
    return rng.normal(size=(batch, seq, heads, dim)).astype(dtype).transpose(0, 2, 1, 3)


def _causal_mask(seq, dtype):
    return np.triu(np.full((seq, seq), -1e9), k=1).astype(dtype)


class TestAttentionCore:
    """The fused QK^T -> softmax -> dropout -> context attention node."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_forward_bit_identical_to_composite(self, rng, dtype, masked):
        q, k, v = (_heads(rng, (2, 3, 7, 4), dtype) for _ in range(3))
        mask = _causal_mask(7, dtype) if masked else None
        expected = _composite_attention(
            Tensor(q, dtype=dtype), Tensor(k, dtype=dtype), Tensor(v, dtype=dtype),
            0.5, mask,
        ).numpy()
        actual = fused.attention_core(
            Tensor(q, dtype=dtype), Tensor(k, dtype=dtype), Tensor(v, dtype=dtype),
            0.5, mask=mask,
        ).numpy()
        assert actual.dtype == dtype
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("masked", [False, True])
    def test_backward_agrees_with_composite(self, rng, masked):
        arrays = [_heads(rng, (2, 3, 7, 4), np.float64) for _ in range(3)]
        mask = _causal_mask(7, np.float64) if masked else None
        weights = rng.normal(size=(2, 3, 7, 4))
        grads = {}
        for name, op in (
            ("composite", lambda q, k, v: _composite_attention(q, k, v, 0.5, mask)),
            ("fused", lambda q, k, v: fused.attention_core(q, k, v, 0.5, mask=mask)),
        ):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            (op(*tensors) * Tensor(weights)).sum().backward()
            grads[name] = [t.grad for t in tensors]
        for ref, fast in zip(grads["composite"], grads["fused"]):
            np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=1e-10)

    @pytest.mark.parametrize("wrt", [0, 1, 2])
    def test_gradcheck(self, gradcheck, rng, wrt):
        arrays = [rng.normal(size=(2, 2, 4, 3)) for _ in range(3)]
        mask = _causal_mask(4, np.float64)
        weights = rng.normal(size=(2, 2, 4, 3))

        def f(t):
            args = [Tensor(a) for a in arrays]
            args[wrt] = t
            return (fused.attention_core(*args, 0.4, mask=mask) * Tensor(weights)).sum()

        gradcheck(f, arrays[wrt])

    def test_incoming_grad_not_mutated(self, rng):
        # The backward must never write through the incoming gradient —
        # with borrow-store accumulation it may be another node's .grad.
        q, k, v = (Tensor(rng.normal(size=(2, 2, 5, 3)), requires_grad=True) for _ in range(3))
        dropout = (rng.random((2, 2, 5, 5)) >= 0.2) / 0.8
        out = fused.attention_core(q, k, v, 0.5, dropout=dropout)
        seed = rng.normal(size=(2, 2, 5, 3))
        expected = seed.copy()
        out.backward(seed)
        np.testing.assert_array_equal(seed, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_exact_pin_against_unfused_node_sequence(self, dtype, masked, p):
        """Paper shape: output and q/k/v grads equal the replaced graph's bits."""
        rng = np.random.default_rng(20)
        shape = (8, 4, 300, 8)
        q, k, v, g = (_heads(rng, shape, dtype) for _ in range(4))
        scale = float(1.0 / np.sqrt(shape[-1]))
        mask = _causal_mask(shape[2], dtype) if masked else None
        dropout = (
            F.dropout_mask((8, 4, 300, 300), p, np.random.default_rng(7), dtype)
            if p
            else None
        )
        expected = attention_node_chain(q, k, v, g, scale, mask=mask, dropout=dropout)
        tensors = [Tensor(a, requires_grad=True, dtype=dtype) for a in (q, k, v)]
        out = fused.attention_core(*tensors, scale, mask=mask, dropout=dropout)
        out.backward(g)
        actual = (out.numpy(),) + tuple(t.grad for t in tensors)
        for name, a, e in zip(("out", "dq", "dk", "dv"), actual, expected):
            assert a.dtype == dtype, name
            np.testing.assert_array_equal(a, e, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_no_grad_matches_grad_mode_and_records_nothing(self, rng, dtype, p):
        q, k, v = (_heads(rng, (3, 2, 6, 5), dtype) for _ in range(3))
        mask = _causal_mask(6, dtype)
        dropout = F.dropout_mask((3, 2, 6, 6), p, rng, dtype) if p else None
        tensors = [Tensor(a, requires_grad=True, dtype=dtype) for a in (q, k, v)]
        trained = fused.attention_core(*tensors, 0.5, mask=mask, dropout=dropout)
        with no_grad():
            inferred = fused.attention_core(*tensors, 0.5, mask=mask, dropout=dropout)
        np.testing.assert_array_equal(inferred.numpy(), trained.numpy())
        assert inferred.numpy().dtype == dtype
        assert not inferred.requires_grad
        assert inferred._parents == () and inferred._backward is None

    @pytest.mark.parametrize(
        "shape, mask_shape, grad_of",
        [
            ((3, 6, 5), (6, 6), "qkv"),  # (heads, T, D): no batch axis
            ((1, 2, 6, 5), (6, 6), "qkv"),  # batch 1
            ((3, 2, 6, 5), (6, 6), "qkv"),  # (T, T) mask shared by all
            ((3, 2, 6, 5), (3, 1, 6, 6), "qkv"),  # per-batch mask over heads
            ((3, 2, 6, 5), (3, 1, 6, 6), "v"),
            ((3, 2, 6, 5), None, "q"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pin_against_node_chain(self, rng, shape, mask_shape, grad_of, dtype):
        q, k, v, g = (rng.normal(size=shape).astype(dtype) for _ in range(4))
        mask = None
        if mask_shape is not None:
            mask = np.where(rng.random(mask_shape) < 0.3, -1e9, 0.0).astype(dtype)
        dropout = F.dropout_mask(shape[:-1] + (shape[-2],), 0.1, rng, dtype)
        expected = dict(
            zip("oqkv", attention_node_chain(q, k, v, g, 0.4, mask=mask, dropout=dropout))
        )
        tensors = {
            name: Tensor(a, requires_grad=name in grad_of, dtype=dtype)
            for name, a in zip("qkv", (q, k, v))
        }
        out = fused.attention_core(*tensors.values(), 0.4, mask=mask, dropout=dropout)
        np.testing.assert_array_equal(out.numpy(), expected["o"])
        out.backward(g)
        for name, tensor in tensors.items():
            if name in grad_of:
                assert tensor.grad.dtype == dtype, name
                np.testing.assert_array_equal(tensor.grad, expected[name], err_msg=name)
            else:
                assert tensor.grad is None, name

    @pytest.mark.parametrize(
        "q_shape, kv_shape",
        [((6, 5), (6, 5)), ((2, 3, 6, 5), (1, 3, 6, 5)), ((2, 3, 6, 5), (2, 6, 5))],
    )
    def test_rejects_inputs_without_a_shared_leading_axis(self, q_shape, kv_shape):
        q = Tensor(np.zeros(q_shape))
        k = v = Tensor(np.zeros(kv_shape))
        with pytest.raises(ValueError, match="leading shape"):
            fused.attention_core(q, k, v, 0.5)

    def test_module_dropout_draws_like_composite(self, rng):
        """Attention dropout: same mask, same RNG state, same output bits."""
        from repro.nn import MultiHeadAttention

        x = rng.normal(size=(2, 6, 8))
        results = {}
        for enabled in (False, True):
            attn = MultiHeadAttention(8, 2, dropout=0.3, seed=5)
            attn.train()
            with fused_kernels(enabled):
                out = attn(Tensor(x)).numpy()
            results[enabled] = (out, attn.attn_dropout._rng.random())
        np.testing.assert_array_equal(results[True][0], results[False][0])
        assert results[True][1] == results[False][1]


class TestSliceLast:
    def test_forward_matches_numpy(self, rng):
        x = rng.normal(size=(3, 4, 10))
        out = fused.slice_last(Tensor(x), 3, 7)
        np.testing.assert_array_equal(out.numpy(), x[..., 3:7])

    def test_backward_scatters_dense(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        fused.slice_last(x, 1, 4).sum().backward()
        expected = np.zeros((2, 6))
        expected[:, 1:4] = 1.0
        np.testing.assert_array_equal(x.grad, expected)


class TestDtypePolicy:
    """float32 graphs stay float32 through every fused and composite op."""

    def test_default_dtype_context(self):
        assert get_default_dtype() == np.float64
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_rejects_ints(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_ops_preserve_float32(self, rng, enabled):
        x = Tensor(rng.normal(size=(3, 6)), dtype=np.float32, requires_grad=True)
        w = Tensor(rng.normal(size=6), dtype=np.float32)
        b = Tensor(rng.normal(size=6), dtype=np.float32)
        with fused_kernels(enabled):
            for out in (
                F.softmax(x, axis=-1),
                F.log_softmax(x, axis=-1),
                F.gelu(x),
                F.layer_norm(x, w, b),
            ):
                assert out.data.dtype == np.float32
                out.sum().backward()
                assert x.grad.dtype == np.float32
                x.zero_grad()

    def test_dropout_preserves_float32(self, rng):
        from repro.nn.layers import Dropout

        layer = Dropout(0.5, seed=0)
        layer.train()
        out = layer(Tensor(rng.normal(size=(4, 4)), dtype=np.float32))
        assert out.data.dtype == np.float32

    def test_float32_forward_close_to_float64(self, rng):
        x = rng.normal(size=(4, 8))
        exact = F.softmax(Tensor(x), axis=-1).numpy()
        approx = F.softmax(Tensor(x, dtype=np.float32), axis=-1).numpy()
        np.testing.assert_allclose(approx, exact, atol=1e-6)


class TestGradBufferReuse:
    def test_buffer_reused_across_backwards(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad
        x.zero_grad()
        (x * x).sum().backward()
        assert x.grad is first  # same buffer, refilled
        np.testing.assert_allclose(x.grad, 2 * x.numpy())

    def test_buffer_dropped_on_dtype_change(self, rng):
        from repro.nn.layers import Linear

        layer = Linear(4, 2, seed=0)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        out.sum().backward()
        layer.to_dtype(np.float32)
        assert layer.weight.grad is None
        out = layer(Tensor(rng.normal(size=(5, 4)), dtype=np.float32))
        out.sum().backward()
        assert layer.weight.grad.dtype == np.float32
