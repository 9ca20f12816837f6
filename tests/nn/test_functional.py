"""Tests for repro.nn.functional: stability, values, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dropout, MultiHeadAttention, Tensor
from repro.nn import functional as F

RNG = np.random.default_rng(1)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), rtol=1e-12)

    def test_stability_large_values(self):
        x = Tensor(np.array([[1e6, 1e6 + 1.0]]))
        out = F.softmax(x)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data.sum(), 1.0)

    def test_log_softmax_consistent(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-10)

    def test_gradient_sums_to_zero(self):
        # d softmax / dx summed over outputs is 0 for each input.
        x = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
        F.softmax(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros((2, 5)), atol=1e-10)

    def test_masked_softmax_zeroes_invalid(self):
        x = Tensor(RNG.normal(size=(2, 4)))
        mask = np.array([[True, True, False, False], [True, False, True, False]])
        out = F.masked_softmax(x, mask)
        assert (out.data[~mask] < 1e-12).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8))
    def test_softmax_invariant_to_shift(self, rows, cols):
        x = RNG.normal(size=(rows, cols))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-8)


class TestLosses:
    def test_cross_entropy_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-8)

    def test_cross_entropy_gradient(self):
        logits = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
        targets = np.array([0, 2, 5, 1])
        F.cross_entropy(logits, targets).backward()
        probs = F.softmax(Tensor(logits.data)).data
        onehot = np.eye(6)[targets]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 4, atol=1e-8)

    @pytest.mark.parametrize("ignore_index", [None, 0])
    def test_cross_entropy_matches_closed_form_bitwise(self, ignore_index):
        """The in-place loss and gradient equal the textbook formula
        (separate exp / probs / gradient arrays) bit for bit."""
        data = RNG.normal(size=(9, 7)) * 4
        targets = RNG.integers(0, 7, size=9)
        logits = Tensor(data.copy(), requires_grad=True)
        loss = F.cross_entropy(logits, targets, ignore_index=ignore_index)
        loss.backward(np.float64(0.75))

        rows = np.arange(9)
        shifted = data - data.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        sumexp = exp.sum(axis=-1, keepdims=True)
        logp_target = shifted[rows, targets] - np.log(sumexp[:, 0])
        if ignore_index is None:
            weights = np.full(9, 1.0 / 9)
        else:
            weights = (targets != ignore_index).astype(np.float64)
            weights /= max(weights.sum(), 1.0)
        grad = (exp / sumexp).copy()
        grad[rows, targets] -= 1.0
        grad *= weights[:, None]
        grad *= 0.75
        np.testing.assert_array_equal(
            loss.data, np.asarray(-(logp_target * weights).sum()))
        np.testing.assert_array_equal(logits.grad, grad)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        targets = np.array([1, 0, 2])
        full = F.cross_entropy(logits, targets)
        logits2 = Tensor(logits.data.copy(), requires_grad=True)
        masked = F.cross_entropy(logits2, np.array([1, 0, 0]), ignore_index=0)
        # Row 1's true target was 0 -> with ignore_index=0, rows 1,2 drop out
        # differently; just check the ignored rows get zero gradient.
        masked.backward()
        np.testing.assert_allclose(logits2.grad[1], np.zeros(4), atol=1e-12)
        assert not np.allclose(logits2.grad[0], 0)
        assert full.item() > 0

    def test_bce_with_logits_matches_reference(self):
        logits = RNG.normal(size=(10,))
        targets = RNG.integers(0, 2, size=10).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        p = 1 / (1 + np.exp(-logits))
        ref = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        np.testing.assert_allclose(loss.item(), ref, rtol=1e-8)

    def test_bce_stability_extreme_logits(self):
        logits = Tensor(np.array([1e4, -1e4]), requires_grad=True)
        loss = F.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_bpr_loss_orders_correctly(self):
        good = F.bpr_loss(Tensor(np.array([5.0])), Tensor(np.array([-5.0])))
        bad = F.bpr_loss(Tensor(np.array([-5.0])), Tensor(np.array([5.0])))
        assert good.item() < bad.item()

    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.5)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(RNG.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_scales_survivors(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_negative_p_raises(self, training):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            F.dropout(Tensor(np.ones(3)), -0.5, training=training)

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
    def test_layer_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            Dropout(p)

    def test_attention_rejects_certain_drop(self):
        """Attention draws its own dropout mask from ``Dropout.p``; p = 1
        would divide by zero there, so the layer refuses it up front."""
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            MultiHeadAttention(8, num_heads=2, dropout=1.0)


class TestActivations:
    def test_gelu_known_values(self):
        out = F.gelu(Tensor(np.array([0.0])))
        np.testing.assert_allclose(out.data, [0.0], atol=1e-12)
        out = F.gelu(Tensor(np.array([100.0])))
        np.testing.assert_allclose(out.data, [100.0], rtol=1e-6)

    def test_l2_regularization(self):
        params = [Tensor(np.array([3.0, 4.0]), requires_grad=True)]
        reg = F.l2_regularization(params, 0.1)
        np.testing.assert_allclose(reg.item(), 2.5)
