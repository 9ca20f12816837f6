"""Parity tests for the fused substrate kernels.

Every fused op (single-node softmax/log-softmax/cross-entropy/linear,
scaled-dot-product attention, the GRU step, LSTM/GRU sequences,
LayerNorm) must match its unfused Tensor-op composition (``repro.nn.reference``) in value and in
gradient, and must match central finite differences directly.  Also covers
the gradient-buffer-reuse regression: in-place accumulation must produce
the same gradients as the seed's fresh-allocation backward.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (GRU, LSTM, BiLSTM, GRUCell, LayerNorm, Tensor,
                      gru_sequence, lstm_sequence, reference,
                      scaled_dot_product_attention)
from repro.nn import functional as F

EPS = 1e-6


def numeric_grad(fn, x):
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = fn(x)
        flat[i] = orig - EPS
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * EPS)
    return grad


def backward_grads(make_loss, *tensors):
    for t in tensors:
        t.grad = None
    make_loss().backward()
    return [t.grad.copy() for t in tensors]


class TestFusedVsUnfused:
    """Fused kernels match the unfused composition to 1e-10."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 10_000))
    def test_softmax(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, cols))
        w = rng.normal(size=(rows, cols))
        t = Tensor(x, requires_grad=True)
        fused, = backward_grads(lambda: (F.softmax(t) * Tensor(w)).sum(), t)
        unfused, = backward_grads(
            lambda: (reference.softmax_unfused(t) * Tensor(w)).sum(), t)
        np.testing.assert_allclose(F.softmax(t).data,
                                   reference.softmax_unfused(t).data,
                                   atol=1e-12)
        np.testing.assert_allclose(fused, unfused, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 10_000))
    def test_log_softmax(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        t = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        w = rng.normal(size=(rows, cols))
        fused, = backward_grads(lambda: (F.log_softmax(t) * Tensor(w)).sum(), t)
        unfused, = backward_grads(
            lambda: (reference.log_softmax_unfused(t) * Tensor(w)).sum(), t)
        np.testing.assert_allclose(fused, unfused, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 9), st.integers(0, 10_000))
    def test_masked_softmax(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        t = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        w = rng.normal(size=(rows, cols))
        mask = rng.random((rows, cols)) > 0.4
        mask[0] = False  # exercise the fully-masked-row path
        fused, = backward_grads(
            lambda: (F.masked_softmax(t, mask) * Tensor(w)).sum(), t)
        unfused, = backward_grads(
            lambda: (reference.masked_softmax_unfused(t, mask)
                     * Tensor(w)).sum(), t)
        np.testing.assert_allclose(fused, unfused, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 10_000),
           st.booleans())
    def test_cross_entropy(self, rows, cols, seed, use_ignore):
        rng = np.random.default_rng(seed)
        t = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        targets = rng.integers(0, cols, size=rows)
        ignore = 0 if use_ignore else None
        fused_val = F.cross_entropy(t, targets, ignore_index=ignore)
        unfused_val = reference.cross_entropy_unfused(t, targets,
                                                      ignore_index=ignore)
        np.testing.assert_allclose(fused_val.item(), unfused_val.item(),
                                   rtol=1e-10)
        fused, = backward_grads(
            lambda: F.cross_entropy(t, targets, ignore_index=ignore), t)
        unfused, = backward_grads(
            lambda: reference.cross_entropy_unfused(t, targets,
                                                    ignore_index=ignore), t)
        np.testing.assert_allclose(fused, unfused, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 5), st.integers(2, 6),
           st.integers(0, 10_000))
    def test_linear(self, batch, din, dout, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(batch, 3, din)), requires_grad=True)
        w = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        b = Tensor(rng.normal(size=(dout,)), requires_grad=True)
        fused = backward_grads(
            lambda: F.linear(x, w, b).tanh().sum(), x, w, b)
        unfused = backward_grads(
            lambda: reference.linear_unfused(x, w, b).tanh().sum(), x, w, b)
        for got, want in zip(fused, unfused):
            np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 5), st.integers(2, 5),
           st.integers(0, 10_000), st.booleans())
    def test_attention(self, batch, length, dim, seed, causal):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        k = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        v = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        mask = np.tril(np.ones((length, length), dtype=bool)) if causal else None
        dmask = (rng.random((batch, length, length)) >= 0.25) / 0.75
        fused = backward_grads(
            lambda: scaled_dot_product_attention(
                q, k, v, attn_mask=mask, dropout_mask=dmask).tanh().sum(),
            q, k, v)
        unfused = backward_grads(
            lambda: reference.attention_unfused(
                q, k, v, attn_mask=mask, dropout_mask=dmask).tanh().sum(),
            q, k, v)
        for got, want, name in zip(fused, unfused, "qkv"):
            np.testing.assert_allclose(got, want, atol=1e-10,
                                       err_msg=f"grad mismatch for {name}")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_gru_step(self, batch, seed):
        rng = np.random.default_rng(seed)
        cell = GRUCell(4, 6, rng=np.random.default_rng(seed))
        x = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
        h = Tensor(rng.normal(size=(batch, 6)), requires_grad=True)
        leaves = (x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
        fused = backward_grads(lambda: cell(x, h).tanh().sum(), *leaves)
        unfused = backward_grads(
            lambda: reference.gru_step_unfused(
                x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh,
                6).tanh().sum(), *leaves)
        for got, want in zip(fused, unfused):
            np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000),
           st.booleans())
    def test_lstm_sequence(self, batch, length, seed, with_state):
        rng = np.random.default_rng(seed)
        lstm = LSTM(4, 5, rng=np.random.default_rng(seed))
        cell = lstm.cell
        x = Tensor(rng.normal(size=(batch, length, 4)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(batch, 5)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(batch, 5)), requires_grad=True)
        leaves = ((x, h0, c0, cell.w_ih, cell.w_hh, cell.bias)
                  if with_state else (x, cell.w_ih, cell.w_hh, cell.bias))

        def fused_loss():
            outs, (h, c) = lstm(x, (h0, c0) if with_state else None)
            return outs.tanh().sum() + (c * c).sum()

        def unfused_loss():
            h = h0 if with_state else Tensor(np.zeros((batch, 5)))
            c = c0 if with_state else Tensor(np.zeros((batch, 5)))
            outs = []
            for t in range(length):
                h, c = reference.lstm_step_unfused(
                    x[:, t, :], h, c, cell.w_ih, cell.w_hh, cell.bias, 5)
                outs.append(h)
            return (Tensor.stack(outs, axis=1).tanh().sum() + (c * c).sum())

        for got, want in zip(backward_grads(fused_loss, *leaves),
                             backward_grads(unfused_loss, *leaves)):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000),
           st.booleans())
    def test_gru_sequence(self, batch, length, seed, with_state):
        rng = np.random.default_rng(seed)
        gru = GRU(4, 5, rng=np.random.default_rng(seed))
        cell = gru.cell
        x = Tensor(rng.normal(size=(batch, length, 4)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(batch, 5)), requires_grad=True)
        leaves = ((x, h0, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
                  if with_state else
                  (x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh))

        def fused_loss():
            outs, h = gru(x, h0 if with_state else None)
            return outs.tanh().sum() + h.sum()

        def unfused_loss():
            h = h0 if with_state else Tensor(np.zeros((batch, 5)))
            outs = []
            for t in range(length):
                h = reference.gru_step_unfused(
                    x[:, t, :], h, cell.w_ih, cell.w_hh, cell.b_ih,
                    cell.b_hh, 5)
                outs.append(h)
            return Tensor.stack(outs, axis=1).tanh().sum() + h.sum()

        for got, want in zip(backward_grads(fused_loss, *leaves),
                             backward_grads(unfused_loss, *leaves)):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 10_000))
    def test_layer_norm(self, batch, dim, seed):
        rng = np.random.default_rng(seed)
        norm = LayerNorm(dim)
        norm.gamma.data[:] = rng.normal(size=dim)
        norm.beta.data[:] = rng.normal(size=dim)
        x = Tensor(rng.normal(size=(batch, 3, dim)), requires_grad=True)
        leaves = (x, norm.gamma, norm.beta)
        fused = backward_grads(lambda: norm(x).tanh().sum(), *leaves)
        unfused = backward_grads(
            lambda: reference.layer_norm_unfused(
                x, norm.gamma, norm.beta, norm.eps).tanh().sum(), *leaves)
        for got, want in zip(fused, unfused):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 9), st.integers(0, 10_000))
    def test_sparsemax(self, rows, cols, seed):
        from repro.nn import sparsemax

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, cols)) * 2.0
        w = rng.normal(size=(rows, cols))
        t = Tensor(x, requires_grad=True)
        fused, = backward_grads(lambda: (sparsemax(t) * Tensor(w)).sum(), t)
        unfused, = backward_grads(
            lambda: (reference.sparsemax_unfused(t) * Tensor(w)).sum(), t)
        np.testing.assert_allclose(sparsemax(t).data,
                                   reference.sparsemax_unfused(t).data,
                                   atol=1e-12)
        np.testing.assert_allclose(fused, unfused, atol=1e-10)


class TestRecurrenceAtTrainingShape:
    """The transposed, in-place recurrences at a realistic shape (B != d,
    B != 3d, B != 4d), where a layout slip cannot cancel out."""

    BATCH, LENGTH, DIM = 64, 30, 32

    @pytest.mark.parametrize("with_state", [False, True])
    def test_gru_sequence(self, with_state):
        b, n, d = self.BATCH, self.LENGTH, self.DIM
        rng = np.random.default_rng(7)
        gru = GRU(d, d, rng=np.random.default_rng(8))
        cell = gru.cell
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(b, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(b, n, d)))
        leaves = (x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh) + (
            (h0,) if with_state else ())

        def fused_loss():
            outs, h = gru(x, h0 if with_state else None)
            return (outs * w).sum() + h.sum()

        def unfused_loss():
            h = h0 if with_state else Tensor(np.zeros((b, d)))
            outs = []
            for t in range(n):
                h = reference.gru_step_unfused(
                    x[:, t, :], h, cell.w_ih, cell.w_hh, cell.b_ih,
                    cell.b_hh, d)
                outs.append(h)
            return (Tensor.stack(outs, axis=1) * w).sum() + h.sum()

        np.testing.assert_allclose(fused_loss().data, unfused_loss().data,
                                   rtol=1e-12)
        for got, want in zip(backward_grads(fused_loss, *leaves),
                             backward_grads(unfused_loss, *leaves)):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("with_state", [False, True])
    def test_lstm_sequence(self, with_state):
        b, n, d = self.BATCH, self.LENGTH, self.DIM
        rng = np.random.default_rng(9)
        lstm = LSTM(d, d, rng=np.random.default_rng(10))
        cell = lstm.cell
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        h0 = Tensor(rng.normal(size=(b, d)), requires_grad=True)
        c0 = Tensor(rng.normal(size=(b, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(b, n, d)))
        leaves = (x, cell.w_ih, cell.w_hh, cell.bias) + (
            (h0, c0) if with_state else ())

        def fused_loss():
            outs, (_, c) = lstm(x, (h0, c0) if with_state else None)
            return (outs * w).sum() + (c * c).sum()

        def unfused_loss():
            h = h0 if with_state else Tensor(np.zeros((b, d)))
            c = c0 if with_state else Tensor(np.zeros((b, d)))
            outs = []
            for t in range(n):
                h, c = reference.lstm_step_unfused(
                    x[:, t, :], h, c, cell.w_ih, cell.w_hh, cell.bias, d)
                outs.append(h)
            return (Tensor.stack(outs, axis=1) * w).sum() + (c * c).sum()

        np.testing.assert_allclose(fused_loss().data, unfused_loss().data,
                                   rtol=1e-12)
        for got, want in zip(backward_grads(fused_loss, *leaves),
                             backward_grads(unfused_loss, *leaves)):
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_bilstm_stacked_loop_equals_two_passes(self):
        b, n, d = self.BATCH, self.LENGTH, self.DIM
        rng = np.random.default_rng(11)
        bilstm = BiLSTM(d, d, rng=np.random.default_rng(12))
        fw, bw = bilstm.forward_lstm.cell, bilstm.backward_lstm.cell
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        w_left = Tensor(rng.normal(size=(b, n, d)))
        w_right = Tensor(rng.normal(size=(b, n, d)))
        leaves = (x, fw.w_ih, fw.w_hh, fw.bias, bw.w_ih, bw.w_hh, bw.bias)

        def two_passes():
            left = lstm_sequence(x, fw.w_ih, fw.w_hh, fw.bias, d)[:, :n]
            rev = np.arange(n - 1, -1, -1)
            right = lstm_sequence(x[:, rev], bw.w_ih, bw.w_hh, bw.bias,
                                  d)[:, :n][:, rev]
            return left, right

        (left, right), (left2, right2) = bilstm(x), two_passes()
        np.testing.assert_array_equal(left.data, left2.data)
        np.testing.assert_array_equal(right.data, right2.data)
        def loss(pair):
            return (pair[0] * w_left).sum() + (pair[1] * w_right).sum()

        stacked = backward_grads(lambda: loss(bilstm(x)), *leaves)
        separate = backward_grads(lambda: loss(two_passes()), *leaves)
        for got, want in zip(stacked, separate):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", ["gru", "lstm", "cross_entropy"])
    def test_consumed_backward_refuses_a_second_call(self, op):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        if op == "gru":
            cell = GRU(5, 5, rng=np.random.default_rng(0)).cell
            out = gru_sequence(x, cell.w_ih, cell.w_hh, cell.b_ih,
                               cell.b_hh, 5)
        elif op == "lstm":
            cell = LSTM(5, 5, rng=np.random.default_rng(0)).cell
            out = lstm_sequence(x, cell.w_ih, cell.w_hh, cell.bias, 5)
        else:
            out = F.cross_entropy(x.reshape(12, 5), rng.integers(0, 5, 12))
        backward = out._backward
        backward(np.ones_like(out.data))
        with pytest.raises(RuntimeError, match="already ran"):
            backward(np.ones_like(out.data))


class TestFiniteDifferenceParity:
    """Fused gradients match central finite differences to 1e-6."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 7), st.integers(0, 10_000))
    def test_softmax_fd(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.5, 1.5, size=(rows, cols))
        w = rng.normal(size=(rows, cols))
        t = Tensor(x.copy(), requires_grad=True)
        (F.softmax(t) * Tensor(w)).sum().backward()
        num = numeric_grad(
            lambda arr: float((F.softmax(Tensor(arr)).data * w).sum()),
            x.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-4, atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 7), st.integers(0, 10_000))
    def test_cross_entropy_fd(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.5, 1.5, size=(rows, cols))
        targets = rng.integers(0, cols, size=rows)
        t = Tensor(x.copy(), requires_grad=True)
        F.cross_entropy(t, targets).backward()
        num = numeric_grad(
            lambda arr: F.cross_entropy(Tensor(arr), targets).item(),
            x.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-4, atol=1e-6)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_attention_fd(self, seed):
        rng = np.random.default_rng(seed)
        q0 = rng.uniform(-1, 1, size=(2, 3, 4))
        k0 = rng.uniform(-1, 1, size=(2, 3, 4))
        v0 = rng.uniform(-1, 1, size=(2, 3, 4))
        mask = np.tril(np.ones((3, 3), dtype=bool))
        w = rng.normal(size=(2, 3, 4))

        def loss_at(q_arr):
            out = scaled_dot_product_attention(
                Tensor(q_arr), Tensor(k0), Tensor(v0), attn_mask=mask)
            return float((out.data * w).sum())

        q = Tensor(q0.copy(), requires_grad=True)
        out = scaled_dot_product_attention(q, Tensor(k0), Tensor(v0),
                                           attn_mask=mask)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_allclose(q.grad, numeric_grad(loss_at, q0.copy()),
                                   rtol=1e-4, atol=1e-6)


class TestGradBufferReuse:
    """In-place gradient accumulation matches fresh-allocation semantics."""

    def test_repeated_backward_same_grads(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        x = rng.normal(size=(4, 6))

        def run():
            w.grad = None
            ((Tensor(x) @ w).tanh().sum()).backward()
            return w.grad.copy()

        first = run()
        # The second run reuses the persistent buffer: values must match
        # exactly, and the buffer object is recycled.
        buf_before = w._grad_buf
        second = run()
        np.testing.assert_array_equal(first, second)
        assert w._grad_buf is buf_before
        assert w.grad is w._grad_buf

    def test_accumulation_across_backwards(self):
        # Without zero_grad, grads accumulate — same as the seed behavior.
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        (w.sum()).backward()
        once = w.grad.copy()
        (w.sum() * 2.0).backward()
        np.testing.assert_allclose(w.grad, once * 3.0)

    def test_diamond_fanin_matches_composition(self):
        # A node consumed by several children must accumulate all branch
        # contributions despite in-place ownership tracking.
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        shared = x.tanh()
        (shared * shared + shared * 3.0).sum().backward()
        got = x.grad.copy()
        x2 = Tensor(x.data.copy(), requires_grad=True)
        s2 = x2.tanh()
        expected_fn = lambda s: s * s + s * 3.0  # noqa: E731
        expected_grad = (2.0 * s2.data + 3.0) * (1.0 - s2.data ** 2)
        np.testing.assert_allclose(got, expected_grad, atol=1e-12)

    def test_same_array_to_two_parents_not_corrupted(self):
        # __add__ hands the *same* grad array to both parents when shapes
        # match; in-place accumulation must never mutate that shared array.
        a = Tensor(np.ones((3,)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        total = (a + b).sum() + a.sum() * 4.0
        total.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))
        np.testing.assert_allclose(b.grad, np.full(3, 1.0))
