"""Detailed RNN-cell tests: initialization conventions and step semantics."""

import numpy as np
import pytest

from repro.nn import GRU, GRUCell, LSTM, Tensor

RNG = np.random.default_rng(91)


class TestLSTMCell:
    """``LSTMCell`` holds an ``LSTM``'s gate weights; the recurrence
    itself is ``lstm_sequence``, so step properties are checked there."""

    def test_forget_gate_bias_initialized_to_one(self):
        cell = LSTM(4, 6, rng=np.random.default_rng(0)).cell
        d = cell.hidden_dim
        np.testing.assert_allclose(cell.bias.data[d:2 * d], 1.0)
        np.testing.assert_allclose(cell.bias.data[:d], 0.0)

    def test_state_shapes(self):
        lstm = LSTM(4, 6, rng=np.random.default_rng(0))
        state = (Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))))
        out, (h2, c2) = lstm(Tensor(RNG.normal(size=(3, 2, 4))), state)
        assert out.shape == (3, 2, 6)
        assert h2.shape == c2.shape == (3, 6)

    def test_cell_state_bounded_by_gates(self):
        """With zero input and zero state, output stays at zero."""
        lstm = LSTM(4, 6, rng=np.random.default_rng(0))
        lstm.cell.bias.data[:] = 0.0
        zeros = Tensor(np.zeros((2, 6)))
        out, (h, c) = lstm(Tensor(np.zeros((2, 3, 4))), (zeros, zeros))
        np.testing.assert_allclose(c.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(h.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


class TestGRUCell:
    def test_interpolation_property(self):
        """GRU output is an interpolation: z=1 returns the previous state."""
        cell = GRUCell(4, 6, rng=np.random.default_rng(0))
        # Force the update gate to saturate at 1 via a large bias.
        cell.b_ih.data[:6] = 100.0
        h = Tensor(RNG.normal(size=(2, 6)))
        out = cell(Tensor(RNG.normal(size=(2, 4))), h)
        np.testing.assert_allclose(out.data, h.data, atol=1e-8)

    def test_zero_update_gate_ignores_history_magnitude(self):
        """z=0 makes the output the candidate, independent of |h| scale
        only through the reset path."""
        cell = GRUCell(4, 6, rng=np.random.default_rng(0))
        cell.b_ih.data[:6] = -100.0  # z -> 0
        cell.w_hh.data[:, :6] = 0.0
        x = Tensor(RNG.normal(size=(1, 4)))
        out1 = cell(x, Tensor(np.zeros((1, 6))))
        assert np.isfinite(out1.data).all()


class TestSequenceSemantics:
    def test_gru_outputs_match_manual_unroll(self):
        gru = GRU(3, 5, rng=np.random.default_rng(0))
        x = RNG.normal(size=(2, 4, 3))
        outputs, last = gru(Tensor(x))
        h = Tensor(np.zeros((2, 5)))
        for t in range(4):
            h = gru.cell(Tensor(x[:, t]), h)
            np.testing.assert_allclose(outputs.data[:, t], h.data, atol=1e-12)
        np.testing.assert_allclose(last.data, h.data)

    def test_lstm_initial_state_honored(self):
        lstm = LSTM(3, 5, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, 3, 3)))
        zero_out, _ = lstm(x)
        init = (Tensor(np.ones((1, 5))), Tensor(np.ones((1, 5))))
        warm_out, _ = lstm(x, state=init)
        assert not np.allclose(zero_out.data, warm_out.data)

    def test_gradients_magnitude_finite_long_sequence(self):
        """No gradient explosion over a 60-step unroll."""
        lstm = LSTM(3, 3, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(1, 60, 3)), requires_grad=True)
        out, _ = lstm(x)
        out[:, -1].sum().backward()
        assert np.isfinite(x.grad).all()
        assert np.abs(x.grad).max() < 1e3
