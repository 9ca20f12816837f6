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
                      gru_sequence, kernels, lstm_sequence, reference,
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

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_dropout_equals_the_float_mask_product(self, p):
        """The fused node draws the same numbers and gives the values,
        signs and gradients of ``x * Tensor(mask / (1 - p))``."""
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(16, 30, 8))
        g0 = rng.normal(size=x0.shape)

        def run(op):
            x = Tensor(x0, requires_grad=True)
            draws = np.random.default_rng(9)
            out = op(x, draws)
            out.backward(g0)
            return out.data, x.grad, draws.random()

        fused = run(lambda x, draws: F.dropout(x, p, True, draws))
        unfused = run(lambda x, draws: reference.dropout_unfused(x, p, draws))
        for got, want in zip(fused, unfused):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

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


def left_padded(rng, starts, length, dim):
    """Inputs zero before each row's start, as the padding item's
    embedding row gives them, and the matching mask."""
    mask = np.arange(length)[None] >= np.asarray(starts)[:, None]
    noise = rng.normal(size=(len(starts), length, dim))
    return np.where(mask[:, :, None], noise, 0.0), mask


def unfused_gru(x, cell, dim):
    """Every row through every step, by ``reference.gru_step_unfused``."""
    h = Tensor(np.zeros((x.shape[0], dim)))
    outs = []
    for t in range(x.shape[1]):
        h = reference.gru_step_unfused(x[:, t, :], h, cell.w_ih, cell.w_hh,
                                       cell.b_ih, cell.b_hh, dim)
        outs.append(h)
    return Tensor.stack(outs, axis=1)


class TestPackedRecurrence:
    """``gru_sequence(mask=...)`` steps each row from its first valid
    position over one shared padding trajectory: its forward is the
    unmasked kernel's bit for bit, its gradients match the unfused
    reference."""

    BATCHES = [1, 2, 7, 64, 1024]
    LENGTH, DIM = 30, 32
    CASES = ["mixed", "no_padding", "equal_lengths", "all_padded", "holes",
             "differing_row", "shared_nonzero_padding"]
    #: Cases whose every row keeps its padding: they pack at any batch
    #: size.  With a row starting at 0, only a batch of 8k rows packs.
    PACKED = {"equal_lengths", "all_padded", "shared_nonzero_padding"}

    def make_case(self, case, rows, rng, length=LENGTH, dim=DIM):
        starts = rng.integers(0, length, size=rows)
        if case == "mixed":                     # rows of length 1 and L
            starts[:2] = [length - 1, 0][:rows]
        elif case == "no_padding":
            starts[:] = 0
        elif case == "equal_lengths":
            starts[:] = length // 3
        elif case in ("all_padded", "differing_row",
                      "shared_nonzero_padding"):
            starts = rng.integers(1, length, size=rows)
            starts[0] = length - 1
        x, mask = left_padded(rng, starts, length, dim)
        if case == "shared_nonzero_padding":     # a trained padding row
            x[~mask] = rng.normal(size=dim)
        if case == "holes":                     # as SSDRec keep masks drop
            first = kernels.first_positions(mask)
            holes = rng.random(mask.shape) < 0.3
            holes &= np.arange(length)[None] > first[:, None]
            mask &= ~holes
        if case == "differing_row" and rows > 1:
            starts[1] = max(starts[1], 2)
            x, mask = left_padded(rng, starts, length, dim)
            x[1, 0] = 1.0                       # not the shared padding
        return x, mask

    @staticmethod
    def weights(dim, seed=1):
        """A GRU cell as training leaves it: nonzero biases, so the
        padding trajectory is not the zero state, and the F-ordered
        ``w_hh`` of orthogonal init."""
        gru = GRU(dim, dim, rng=np.random.default_rng(seed))
        cell = gru.cell
        rng = np.random.default_rng(seed + 1)
        for bias in (cell.b_ih, cell.b_hh):
            bias.data[...] = rng.normal(scale=0.5, size=bias.shape)
        return gru, (cell.w_ih.data, cell.w_hh.data, cell.b_ih.data,
                     cell.b_hh.data)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("rows", BATCHES)
    def test_forward_equals_the_unmasked_kernel(self, rows, case):
        x, mask = self.make_case(case, rows, np.random.default_rng(rows))
        gru, args = self.weights(self.DIM)
        starts = kernels.first_positions(mask)
        packed, tape = kernels.gru_unroll(x, *args, starts=starts)
        unmasked = kernels.gru_unroll(x, *args)[0]
        np.testing.assert_array_equal(packed, unmasked)
        np.testing.assert_array_equal(gru(Tensor(x), mask=mask)[0].data,
                                      unmasked)
        wide = rows >= 64
        if case in self.PACKED or wide and case != "no_padding":
            assert tape.order is not None
        if case == "differing_row" and wide:
            # Row 1 is demoted: it steps from position 0.
            assert 1 in tape.order[:tape.acts[0].shape[1]]

    def test_wide_batch_steps_widths_that_are_not_multiples_of_8(self):
        """At B = 1024 the started-row counts pass through widths above
        325 that are not multiples of 8, where a product's last columns
        round differently; the packed forward still matches."""
        rows = 1024
        x, mask = self.make_case("mixed", rows, np.random.default_rng(rows))
        starts = kernels.first_positions(mask)
        started = np.searchsorted(np.sort(starts), np.arange(self.LENGTH),
                                  side="right")
        assert ((started > 325) & (started % 8 != 0)).any()
        _, args = self.weights(self.DIM)
        np.testing.assert_array_equal(
            kernels.gru_unroll(x, *args, starts=starts)[0],
            kernels.gru_unroll(x, *args)[0])

    def test_unaligned_wide_batch_steps_unpacked(self):
        """A batch of more than 8 rows that is not a multiple of 8 is not
        packed: the unmasked loop computes its last rows as the tail of
        a wider product, which rounds differently."""
        rows = 1003
        x, mask = self.make_case("all_padded", rows,
                                 np.random.default_rng(rows))
        _, args = self.weights(self.DIM)
        packed, tape = kernels.gru_unroll(
            x, *args, starts=kernels.first_positions(mask))
        assert tape.order is None
        np.testing.assert_array_equal(packed,
                                      kernels.gru_unroll(x, *args)[0])

    @pytest.mark.parametrize("layout", ["w_hh_c_order", "w_ih_f_order"])
    def test_weight_layouts(self, layout):
        """A C-ordered ``w_hh`` still packs exactly; an F-ordered ``w_ih``,
        whose narrow projections round differently, steps unpacked."""
        rows = 1024
        x, mask = self.make_case("mixed", rows, np.random.default_rng(3))
        _, (w_ih, w_hh, b_ih, b_hh) = self.weights(self.DIM)
        if layout == "w_hh_c_order":
            w_hh = np.ascontiguousarray(w_hh)
        else:
            w_ih = np.asfortranarray(w_ih)
        args = (w_ih, w_hh, b_ih, b_hh)
        packed, tape = kernels.gru_unroll(
            x, *args, starts=kernels.first_positions(mask))
        assert (tape.order is None) == (layout == "w_ih_f_order")
        np.testing.assert_array_equal(packed,
                                      kernels.gru_unroll(x, *args)[0])

    @pytest.mark.parametrize("case", ["mixed", "all_padded", "holes",
                                      "differing_row"])
    @pytest.mark.parametrize("rows", BATCHES)
    def test_gradients_match_the_unfused_reference(self, rows, case):
        length, dim = 12, 8
        rng = np.random.default_rng(100 + rows)
        x0, mask = self.make_case(case, rows, rng, length, dim)
        gru, _ = self.weights(dim, seed=2)
        cell = gru.cell
        w = Tensor(rng.normal(size=x0.shape))
        leaves = (cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)

        def grads(run):
            x = Tensor(x0.copy(), requires_grad=True)
            return backward_grads(lambda: (run(x) * w).sum(), x, *leaves)

        g_x, *g_w = grads(lambda x: gru(x, mask=mask)[0])
        r_x, *r_w = grads(lambda x: unfused_gru(x, cell, dim))
        for got, want in zip(g_w, r_w):
            np.testing.assert_allclose(got, want, atol=1e-9)
        own = np.arange(length)[None] >= kernels.first_positions(mask)[:, None]
        np.testing.assert_allclose(g_x[own], r_x[own], atol=1e-9)
        # Padding positions share one trajectory: their input gradients
        # are exact as a per-step sum over the rows.
        shared = ~own[:, :, None]
        np.testing.assert_allclose((g_x * shared).sum(axis=0),
                                   (r_x * shared).sum(axis=0), atol=1e-9)

    def test_two_layer_gru4rec_first_layer_learns_through_the_trajectory(
            self):
        """Layer 2's trajectory books its padding input gradient to one
        row; layer 1 sends it into its own trajectory."""
        from repro.data.batching import pad_sequences
        from repro.models import GRU4Rec

        length, dim, rows = 12, 8, 64
        rng = np.random.default_rng(5)
        model = GRU4Rec(num_items=40, dim=dim, max_len=length, num_layers=2,
                        dropout=0.0, rng=np.random.default_rng(6))
        for gru in model.layers:                # a nonzero trajectory
            for bias in (gru.cell.b_ih, gru.cell.b_hh):
                bias.data[...] = rng.normal(scale=0.5, size=bias.shape)
        seqs = [list(rng.integers(1, 41, size=rng.integers(1, length)))
                for _ in range(rows)]
        items, mask, _ = pad_sequences(seqs, max_len=length)
        assert not mask[:, 0].any()
        w = Tensor(rng.normal(size=(rows, dim)))
        first = model.layers[0].cell
        leaves = (first.w_ih, first.w_hh, first.b_ih, first.b_hh)

        def reference_encode():
            hidden = model.dropout(model.embed_items(items))
            for gru in model.layers:
                hidden = unfused_gru(hidden, gru.cell, dim)
            return model.output_proj(model.last_state(hidden, mask))

        got = backward_grads(
            lambda: (model.encode(items, mask) * w).sum(), *leaves)
        want = backward_grads(lambda: (reference_encode() * w).sum(), *leaves)
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, atol=1e-9)

    @pytest.mark.parametrize("backbone", ["GRU4Rec", "NARM"])
    def test_ssdrec_training_gradients_match_the_unpacked_gru(
            self, backbone, monkeypatch):
        """The booked padding input gradient reaches no parameter
        through SSDRec's pipeline: every gradient of an SSDRec training
        loss matches the unpacked GRU's to rounding."""
        from repro.core import SSDRec, SSDRecConfig
        from repro.data import generate
        from repro.data.batching import Batch, pad_sequences
        from repro.models import BACKBONES

        dataset = generate("beauty", seed=0, scale=0.25)
        rng = np.random.default_rng(2)
        users = rng.integers(1, dataset.num_users, size=64)
        seqs = [dataset.sequences[u][:13] for u in users]
        items, mask, lengths = pad_sequences(
            [seq[:-1] or seq for seq in seqs], max_len=12)
        batch = Batch(users=users, items=items, mask=mask, lengths=lengths,
                      targets=np.array([seq[-1] for seq in seqs]))

        def gradients():
            model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                           config=SSDRecConfig(dim=16, max_len=12),
                           rng=np.random.default_rng(1))
            model.train()
            model.loss(batch).backward()
            return {name: p.grad for name, p in model.named_parameters()
                    if p.grad is not None}

        packed = gradients()
        monkeypatch.setattr(kernels, "_gru_packing", lambda *args: None)
        unpacked = gradients()
        assert packed.keys() == unpacked.keys()
        for name, grad in packed.items():
            np.testing.assert_allclose(grad, unpacked[name], atol=1e-9,
                                       err_msg=name)

    def test_consumed_backward_refuses_a_second_call(self):
        x, mask = self.make_case("all_padded", 8, np.random.default_rng(0),
                                 6, 5)
        cell = GRU(5, 5, rng=np.random.default_rng(0)).cell
        out = gru_sequence(Tensor(x, requires_grad=True), cell.w_ih,
                           cell.w_hh, cell.b_ih, cell.b_hh, 5, mask=mask)
        backward = out._backward
        backward(np.ones_like(out.data))
        with pytest.raises(RuntimeError, match="already ran"):
            backward(np.ones_like(out.data))

    def test_an_initial_state_takes_no_mask(self):
        x, mask = self.make_case("all_padded", 2, np.random.default_rng(0),
                                 4, 3)
        gru = GRU(3, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="initial state"):
            gru(Tensor(x), Tensor(np.zeros((2, 3))), mask=mask)


class TestReadout:
    """``gru_sequence(readout=True)`` returns each row's state at its
    ``last_state`` position, read from the recurrence: the forward and
    all five gradients are byte-identical to ``last_state`` over the full
    ``(B, L, d)`` output."""

    LENGTH, DIM = 12, 8

    def make_case(self, case, rng):
        """``(x, mask, packed)`` for one batch shape."""
        length, dim = self.LENGTH, self.DIM
        rows = {"packed": 64, "five_rows": 5, "unpacked": 12, "demoted": 64,
                "all_padding": 64, "holes": 64}[case]
        starts = rng.integers(1, length, size=rows)
        starts[0] = length - 1
        if case == "unpacked":
            starts[1] = 0                     # 12 rows: not a multiple of 8
        if case == "all_padding":
            starts[-3:] = length              # no item: readout at 0
        x, mask = left_padded(rng, starts, length, dim)
        if case == "demoted":
            x[1, 0] = 1.0                     # not the shared padding
        if case == "holes":                   # readout before L - 1
            mask &= rng.random(mask.shape) > 0.3
            mask[:4, -3:] = False
        return x, mask, case != "unpacked"

    def run(self, x0, mask, readout):
        gru, _ = TestPackedRecurrence.weights(self.DIM, seed=2)
        cell = gru.cell
        x = Tensor(x0.copy(), requires_grad=True)
        if readout:
            out = gru(x, mask=mask, readout=True)
        else:
            hidden, _ = gru(x, mask=mask)
            out = hidden[np.arange(len(x0)), kernels.last_positions(mask), :]
        w = Tensor(np.random.default_rng(7).normal(size=out.shape))
        (out * w).sum().backward()
        return [out.data, x.grad, cell.w_ih.grad, cell.w_hh.grad,
                cell.b_ih.grad, cell.b_hh.grad]

    @pytest.mark.parametrize("case", ["packed", "five_rows", "unpacked",
                                      "demoted", "all_padding", "holes"])
    def test_equals_last_state_of_the_full_output_bytewise(self, case):
        x, mask, packed = self.make_case(case, np.random.default_rng(3))
        _, args = TestPackedRecurrence.weights(self.DIM, seed=2)
        positions = kernels.last_positions(mask)
        states, tape = kernels.gru_unroll(
            x, *args, starts=kernels.first_positions(mask),
            readout=positions)
        assert (tape.order is not None) == packed
        if case == "demoted":
            assert 1 in tape.order[:tape.acts[0].shape[1]]
        if case == "all_padding":
            # Their readout step runs only on the padding trajectory.
            assert (positions[-3:] == 0).all()
            assert tape.acts[0].shape[1] <= len(x) - 3
        if case == "holes":
            assert (positions[:4] < self.LENGTH - 3).all()
        got, want = self.run(x, mask, True), self.run(x, mask, False)
        np.testing.assert_array_equal(states, want[0])
        names = ["forward", "x", "w_ih", "w_hh", "b_ih", "b_hh"]
        for name, g, r in zip(names, got, want):
            assert g.dtype == r.dtype and g.shape == r.shape, name
            assert g.tobytes() == r.tobytes(), name

    def test_without_a_mask_reads_the_last_step(self):
        x = np.random.default_rng(0).normal(size=(5, 4, 3))
        gru = GRU(3, 3, rng=np.random.default_rng(0))
        _, last = gru(Tensor(x))
        np.testing.assert_array_equal(
            gru(Tensor(x), readout=True).data, last.data)

    def test_gru4rec_sampled_loss_gradients_equal_the_full_output(self):
        from repro.data.batching import Batch, pad_sequences
        from repro.models import GRU4Rec

        length, dim, rows = 12, 8, 64
        rng = np.random.default_rng(8)
        seqs = [list(rng.integers(1, 41, size=rng.integers(1, length + 1)))
                for _ in range(rows)]
        items, mask, lengths = pad_sequences(seqs, max_len=length)
        batch = Batch(users=np.arange(rows), items=items, mask=mask,
                      lengths=lengths, targets=rng.integers(1, 41, size=rows))

        def gradients(full_output):
            model = GRU4Rec(num_items=40, dim=dim, max_len=length,
                            num_layers=2, rng=np.random.default_rng(6))
            bias_rng = np.random.default_rng(9)
            for gru in model.layers:            # a nonzero trajectory
                for bias in (gru.cell.b_ih, gru.cell.b_hh):
                    bias.data[...] = bias_rng.normal(scale=0.5,
                                                     size=bias.shape)
            if full_output:
                def encode_states(states, mask):
                    hidden = model.dropout(states)
                    for gru in model.layers:
                        hidden, _ = gru(hidden, mask=mask)
                    return model.output_proj(model.last_state(hidden, mask))
                model.encode_states = encode_states
            model.train()
            loss = model.sampled_loss(batch, num_negatives=16)
            loss.backward()
            return loss.data, {name: p.grad
                               for name, p in model.named_parameters()}

        loss, got = gradients(full_output=False)
        want_loss, want = gradients(full_output=True)
        assert loss.tobytes() == want_loss.tobytes()
        assert got.keys() == want.keys()
        for name, grad in got.items():
            assert grad is not None, name
            assert grad.tobytes() == want[name].tobytes(), name


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
