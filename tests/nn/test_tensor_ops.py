"""Gradient correctness tests for the autograd engine.

Every differentiable op is checked against central finite differences on
random inputs.  These tests are the bedrock of the whole reproduction: if
they pass, every model built on ``repro.nn`` trains by correct gradients.
"""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn.tensor import _unbroadcast

RNG = np.random.default_rng(0)
EPS = 1e-6
TOL = 1e-4


def numeric_grad(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = fn(x)
        flat[i] = orig - EPS
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * EPS)
    return grad


def check_unary(op, shape=(3, 4), positive=False, low=-2.0, high=2.0):
    data = RNG.uniform(low, high, size=shape)
    if positive:
        data = np.abs(data) + 0.5
    t = Tensor(data.copy(), requires_grad=True)
    out = op(t)
    out.sum().backward()
    num = numeric_grad(lambda arr: float(op(Tensor(arr)).data.sum()), data.copy())
    np.testing.assert_allclose(t.grad, num, rtol=TOL, atol=TOL)


class TestElementwise:
    def test_add(self):
        check_unary(lambda t: t + 3.0)

    def test_add_tensors_broadcast(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full((4,), 3.0))

    def test_mul(self):
        check_unary(lambda t: t * t)

    def test_sub_div(self):
        check_unary(lambda t: (t - 1.5) / 2.0)

    def test_div_by_tensor(self):
        a = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        b = Tensor(np.abs(RNG.normal(size=(3,))) + 1.0, requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data, rtol=TOL)
        np.testing.assert_allclose(b.grad, -a.data / b.data ** 2, rtol=TOL)

    def test_pow(self):
        check_unary(lambda t: t ** 3)

    def test_neg(self):
        check_unary(lambda t: -t)

    def test_exp(self):
        check_unary(lambda t: t.exp())

    def test_log(self):
        check_unary(lambda t: t.log(), positive=True)

    def test_sqrt(self):
        check_unary(lambda t: t.sqrt(), positive=True)

    def test_tanh(self):
        check_unary(lambda t: t.tanh())

    def test_sigmoid(self):
        check_unary(lambda t: t.sigmoid())

    def test_relu(self):
        # Avoid kinks at zero for the finite-difference check.
        data = RNG.uniform(0.2, 2.0, size=(3, 4)) * RNG.choice([-1, 1], size=(3, 4))
        t = Tensor(data.copy(), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, (data > 0).astype(float))

    def test_abs(self):
        data = RNG.uniform(0.2, 2.0, size=(5,)) * RNG.choice([-1, 1], size=(5,))
        t = Tensor(data.copy(), requires_grad=True)
        t.abs().sum().backward()
        np.testing.assert_allclose(t.grad, np.sign(data))

    def test_clip(self):
        data = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(data, requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 0.0])


class TestMatmul:
    def test_2d(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda arr: float((arr @ b.data).sum()), a.data.copy())
        num_b = numeric_grad(lambda arr: float((a.data @ arr).sum()), b.data.copy())
        np.testing.assert_allclose(a.grad, num_a, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(b.grad, num_b, rtol=TOL, atol=TOL)

    def test_batched(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda arr: float((arr @ b.data).sum()), a.data.copy())
        np.testing.assert_allclose(a.grad, num_a, rtol=TOL, atol=TOL)

    def test_broadcast_batched(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        num_b = numeric_grad(lambda arr: float((a.data @ arr).sum()), b.data.copy())
        np.testing.assert_allclose(b.grad, num_b, rtol=TOL, atol=TOL)

    def test_vector_matrix(self):
        a = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data.sum(axis=1), rtol=TOL)

    def test_matrix_vector(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=TOL)


class TestReductions:
    def test_sum_axis(self):
        t = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (t.sum(axis=0) * Tensor(np.arange(4.0))).sum().backward()
        np.testing.assert_allclose(t.grad, np.tile(np.arange(4.0), (3, 1)))

    def test_mean(self):
        t = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((3, 4), 1 / 12))

    def test_mean_axis_keepdims(self):
        t = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        t.mean(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((3, 4), 0.25))

    def test_max(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        t = Tensor(data, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(t.grad, expected)

    def test_var(self):
        data = RNG.normal(size=(4, 3))
        t = Tensor(data.copy(), requires_grad=True)
        t.var(axis=1).sum().backward()
        num = numeric_grad(lambda arr: float(arr.var(axis=1).sum()), data.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-3, atol=1e-5)


class TestShapes:
    def test_reshape_transpose(self):
        t = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
        out = t.reshape(3, 4).transpose() * 2.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 6), 2.0))

    def test_transpose_axes(self):
        t = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        scale = Tensor(RNG.normal(size=(4, 2, 3)))
        (t.transpose(2, 0, 1) * scale).sum().backward()
        np.testing.assert_allclose(t.grad, scale.data.transpose(1, 2, 0))

    def test_concat(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 3.0))

    def test_stack(self):
        tensors = [Tensor(RNG.normal(size=(3,)), requires_grad=True) for _ in range(4)]
        out = Tensor.stack(tensors, axis=0)
        assert out.shape == (4, 3)
        out.sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.ones(3))

    def test_getitem_slice(self):
        t = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        t[1:3, ::2].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3, ::2] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_fancy_accumulates(self):
        t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, np.array([[2, 2], [0, 0], [1, 1]], float))

    def test_take_accumulates(self):
        t = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        t.take(np.array([1, 1, 1]), axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, np.array([[0, 0], [3, 3], [0, 0]], float))

    @pytest.mark.parametrize("ids", [
        np.array([3, 0, 3, 3, 5, 0, 1]),          # duplicates + padding id 0
        np.array([[0, 2, 2], [4, 0, 2]]),         # multi-dimensional ids
        np.array([], dtype=np.int64),             # empty index
    ], ids=["duplicates", "2d", "empty"])
    def test_take_grad_equals_add_at_reference(self, ids):
        table = Tensor(RNG.normal(size=(6, 3, 2)), requires_grad=True)
        out = table.take(ids, axis=0)
        grad = RNG.normal(size=out.shape)
        out.backward(grad)
        expected = np.zeros((6, 3, 2))
        np.add.at(expected, ids, grad)
        np.testing.assert_array_equal(table.grad, expected)

    def test_masked_fill(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        mask = np.array([[True, False, False], [False, True, False]])
        out = t.masked_fill(mask, -99.0)
        assert out.data[0, 0] == -99.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, (~mask).astype(float))

    def test_where(self):
        a = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        cond = np.array([True, False, True, False])
        Tensor.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, cond.astype(float))
        np.testing.assert_allclose(b.grad, (~cond).astype(float))


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * t + t).backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])

    def test_no_grad_context(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_backward_nonscalar_requires_grad_arg(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert t.grad is not None and np.isfinite(t.grad).all()

    def test_unbroadcast_shapes(self):
        grad = np.ones((2, 3, 4))
        assert _unbroadcast(grad, (3, 4)).shape == (3, 4)
        assert _unbroadcast(grad, (1, 4)).shape == (1, 4)
        assert _unbroadcast(grad, (2, 1, 1)).shape == (2, 1, 1)
