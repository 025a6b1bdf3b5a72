"""Gradient checks for every primitive op against finite differences."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad


@pytest.fixture()
def x3x4(rng):
    return rng.normal(size=(3, 4))


class TestArithmetic:
    def test_add_gradients(self, gradcheck, x3x4):
        gradcheck(lambda t: (t + 2.0).sum(), x3x4)

    def test_add_two_tensors(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_sub_and_neg(self, gradcheck, x3x4):
        gradcheck(lambda t: (5.0 - t).sum(), x3x4)
        gradcheck(lambda t: (-t * 3.0).sum(), x3x4)

    def test_mul_gradients(self, gradcheck, x3x4, rng):
        other = rng.normal(size=(3, 4))
        gradcheck(lambda t: (t * Tensor(other)).sum(), x3x4)

    def test_div_gradients(self, gradcheck, rng):
        x = rng.uniform(1.0, 2.0, size=(3, 4))
        denom = rng.uniform(1.0, 2.0, size=(3, 4))
        gradcheck(lambda t: (t / Tensor(denom)).sum(), x)
        gradcheck(lambda t: (Tensor(denom) / t).sum(), x)

    def test_pow_gradients(self, gradcheck, rng):
        x = rng.uniform(0.5, 2.0, size=(3, 3))
        gradcheck(lambda t: (t**3).sum(), x)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestBroadcasting:
    def test_row_broadcast(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (4, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0))

    def test_keepdims_broadcast(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full((4, 1), 3.0))

    def test_scalar_broadcast(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        s = Tensor(np.array(2.0), requires_grad=True)
        (a * s).sum().backward()
        np.testing.assert_allclose(s.grad, a.data.sum())


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op",
        ["exp", "tanh", "sigmoid", "relu", "softplus", "abs", "sqrt"],
    )
    def test_unary_gradients(self, gradcheck, rng, op):
        x = rng.uniform(0.2, 1.5, size=(3, 4))  # positive: safe for sqrt/log
        gradcheck(lambda t: getattr(t, op)().sum(), x)

    def test_log_gradients(self, gradcheck, rng):
        x = rng.uniform(0.5, 2.0, size=(3, 4))
        gradcheck(lambda t: t.log().sum(), x)

    def test_clip_min_gradient_masks(self, rng):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        x.clip_min(0.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])

    def test_relu_zeroes_negative(self):
        out = Tensor([-1.0, 2.0]).relu()
        np.testing.assert_allclose(out.numpy(), [0.0, 2.0])


class TestReductions:
    def test_sum_axis_gradients(self, gradcheck, x3x4):
        gradcheck(lambda t: (t.sum(axis=0) * Tensor([1.0, 2.0, 3.0, 4.0])).sum(), x3x4)

    def test_sum_keepdims(self, gradcheck, x3x4):
        gradcheck(lambda t: (t / t.sum(axis=1, keepdims=True).clip_min(0.1)).sum(), np.abs(x3x4) + 1)

    def test_mean_gradients(self, gradcheck, x3x4):
        gradcheck(lambda t: t.mean(), x3x4)
        gradcheck(lambda t: t.mean(axis=1).sum(), x3x4)

    def test_mean_axis_tuple(self, gradcheck, rng):
        x = rng.normal(size=(2, 3, 4))
        gradcheck(lambda t: t.mean(axis=(1, 2)).sum(), x)

    def test_max_gradient_no_ties(self, gradcheck, rng):
        x = rng.permutation(12).reshape(3, 4).astype(float)  # distinct values
        gradcheck(lambda t: t.max(axis=1).sum(), x)

    def test_max_splits_ties(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_cumsum_gradients(self, gradcheck, x3x4):
        gradcheck(lambda t: (t.cumsum(axis=1) * Tensor(np.arange(12).reshape(3, 4))).sum(), x3x4)


class TestShapes:
    def test_matmul_gradients(self, gradcheck, rng):
        w = rng.normal(size=(4, 2))
        x = rng.normal(size=(3, 4))
        gradcheck(lambda t: (t @ Tensor(w)).sum(), x)

    def test_batched_matmul_against_2d(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (x @ w).sum().backward()
        assert x.grad.shape == (2, 3, 4)
        assert w.grad.shape == (4, 5)
        np.testing.assert_allclose(
            w.grad, np.einsum("bij,bik->jk", x.data, np.ones((2, 3, 5))), atol=1e-12
        )

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])

    def test_transpose_gradients(self, gradcheck, x3x4):
        gradcheck(lambda t: (t.transpose() * Tensor(np.arange(12).reshape(4, 3))).sum(), x3x4)

    def test_reshape_roundtrip(self, gradcheck, x3x4):
        gradcheck(lambda t: (t.reshape(2, 6) * 2).sum(), x3x4)

    def test_getitem_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        x[1:3, ::2].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3, ::2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_accumulates(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_concatenate_gradients(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        Tensor.concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack_gradients(self, rng):
        tensors = [Tensor(rng.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        Tensor.stack(tensors, axis=0).sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.ones(3))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 2).sum()
        y.backward()
        y2 = (x * 3).sum()
        y2.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_repeated_backward_adds_only_leaf_gradients(self):
        # Each call adds dz/dx = 18x once; stale interior sums must not
        # be re-propagated by the second call.
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = ((x * 3) ** 2).sum()
        z.backward()
        z.backward()
        np.testing.assert_array_equal(x.grad, [36.0, 72.0])

    def test_backward_releases_interior_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([0.5, -1.0], requires_grad=True)
        h = x * w
        z = (h * h).sum()
        z.backward()
        assert h.grad is None
        assert z.grad is None
        np.testing.assert_array_equal(x.grad, [0.5, 4.0])
        np.testing.assert_array_equal(w.grad, [1.0, -8.0])

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # same tensor twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 5
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])
