"""Recurrent layers: GRU, LSTM, and the Bi-LSTM context-aware encoder.

The Bi-LSTM is the paper's "context-aware encoder" (Eq. 9 and Eq. 12): its
left-to-right hidden states ``H^L`` summarize each item's left context and
its right-to-left states ``H^R`` the right context.

Recurrences are *fused*: :func:`lstm_sequence` and :func:`gru_sequence`
run the whole sequence in NumPy and record a single graph node with a
hand-written BPTT backward, instead of ~15 elementwise/slice nodes per
step of the naive composition.  The GRU's per-step forward is
:func:`repro.nn.kernels.gru_step`, the same function frozen plans run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init, kernels
from .module import Module, Parameter
from .tensor import Tensor, ensure_tensor


def gru_step(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
             b_ih: Tensor, b_hh: Tensor, hidden_dim: int) -> Tensor:
    """One fused GRU step: ``(B, input_dim), (B, d) -> (B, d)``.

    Gate order matches :class:`GRUCell`: update (z), reset (r),
    candidate (n); the forward is :func:`repro.nn.kernels.gru_step`.
    """
    d = hidden_dim
    x, h = ensure_tensor(x), ensure_tensor(h)
    x_data, h_data = x.data, h.data
    gi = kernels.linear(x_data, w_ih.data, b_ih.data)
    zr = np.empty((gi.shape[0], 2 * d), dtype=gi.dtype)
    n = np.empty((gi.shape[0], d), dtype=gi.dtype)
    gh_n = np.empty((gi.shape[0], d), dtype=gi.dtype)
    out_data = kernels.gru_step(gi, h_data, w_hh.data, b_hh.data, zr=zr,
                                n=n, gh_n=gh_n)
    z, r = zr[:, :d], zr[:, d:]

    def backward(grad):
        g_z = grad * (h_data - n)
        g_n = grad * (1.0 - z)
        da_n = g_n * (1.0 - n ** 2)
        g_r = da_n * gh_n
        da_z = g_z * z * (1.0 - z)
        da_r = g_r * r * (1.0 - r)
        d_gi = np.concatenate([da_z, da_r, da_n], axis=1)
        d_gh = np.concatenate([da_z, da_r, da_n * r], axis=1)
        g_x = d_gi @ w_ih.data.T
        g_h = d_gh @ w_hh.data.T + grad * z
        g_wih = x_data.T @ d_gi
        g_whh = h_data.T @ d_gh
        return (g_x, g_h, g_wih, g_whh, d_gi.sum(axis=0), d_gh.sum(axis=0))

    return Tensor._make(out_data, (x, h, w_ih, w_hh, b_ih, b_hh), backward)


def lstm_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                  hidden_dim: int, hc0: Optional[Tensor] = None) -> Tensor:
    """The full LSTM recurrence as a *single* graph node.

    The input projection ``x @ w_ih + bias`` for every timestep runs as one
    ``(B*L, input_dim) @ (input_dim, 4d)`` matmul before the loop, so each
    step costs one ``h @ w_hh`` matmul plus in-place gate math; backward is
    hand-written BPTT with the weight gradients accumulated through two big
    matmuls over the whole sequence.  Compared to one fused node per step
    this removes the per-step graph bookkeeping *and* halves the per-step
    matmul count.

    Returns ``(B, L+1, d)``: ``[:, :L]`` are the hidden states, ``[:, L]``
    is the final cell state (slice with basic indexing to read them).
    """
    d = hidden_dim
    x = ensure_tensor(x)
    x_data = x.data
    batch, length, in_dim = x_data.shape
    # Internally the gate columns are permuted to (i, f, o, g) so the three
    # sigmoids run as ONE contiguous block per step; weight gradients are
    # permuted back before returning.  Sigmoid itself is computed as
    # 0.5 * (1 + tanh(x / 2)) — an exact identity that needs no overflow
    # clip and four ufunc passes instead of ten.
    perm = np.concatenate([np.arange(0, 2 * d), np.arange(3 * d, 4 * d),
                           np.arange(2 * d, 3 * d)])
    w_ih_p = np.ascontiguousarray(w_ih.data[:, perm])
    w_hh_p = np.ascontiguousarray(w_hh.data[:, perm])
    # Time-major (L, B, ...) buffers: every per-step slice below is one
    # contiguous block, where batch-major views would stride by the whole
    # sequence width on every row (a large-L cache killer).
    x_tm = np.ascontiguousarray(x_data.transpose(1, 0, 2))
    x_tm2 = x_tm.reshape(length * batch, in_dim)
    xp = x_tm2 @ w_ih_p
    xp += bias.data[perm]
    xp = xp.reshape(length, batch, 4 * d)
    dtype = xp.dtype
    acts = np.empty((length, batch, 4 * d), dtype=dtype)
    tanh_cs = np.empty((length, batch, d), dtype=dtype)
    # hs[t] / cs[t] hold the state *entering* step t.
    hs = np.empty((length + 1, batch, d), dtype=dtype)
    cs = np.empty((length + 1, batch, d), dtype=dtype)
    if hc0 is not None:
        hc0 = ensure_tensor(hc0)
        hs[0] = hc0.data[:, :d]
        cs[0] = hc0.data[:, d:]
    else:
        hs[0] = 0.0
        cs[0] = 0.0
    for t in range(length):
        gates = hs[t] @ w_hh_p
        gates += xp[t]
        a = acts[t]
        s = a[:, :3 * d]                              # sigmoid(i, f, o)
        np.multiply(gates[:, :3 * d], 0.5, out=s)
        np.tanh(s, out=s)
        s += 1.0
        s *= 0.5
        np.tanh(gates[:, 3 * d:], out=a[:, 3 * d:])   # tanh(g)
        i, f = a[:, :d], a[:, d:2 * d]
        o, g = a[:, 2 * d:3 * d], a[:, 3 * d:]
        c_new = cs[t + 1]
        np.multiply(f, cs[t], out=c_new)
        c_new += i * g
        tc = tanh_cs[t]
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=hs[t + 1])
    out = np.empty((batch, length + 1, d), dtype=dtype)
    out[:, :length] = hs[1:].transpose(1, 0, 2)
    out[:, length] = cs[length]

    def backward(grad):
        g_hs = np.ascontiguousarray(grad[:, :length].transpose(1, 0, 2))
        gc = np.array(grad[:, length], dtype=dtype)
        gh_carry = np.zeros((batch, d), dtype=dtype)
        da_all = np.empty((length, batch, 4 * d), dtype=dtype)
        scratch = np.empty((batch, d), dtype=dtype)
        for t in range(length - 1, -1, -1):
            a = acts[t]
            i, f = a[:, :d], a[:, d:2 * d]
            o, g = a[:, 2 * d:3 * d], a[:, 3 * d:]
            tc = tanh_cs[t]
            gh = gh_carry
            gh += g_hs[t]
            np.multiply(tc, tc, out=scratch)          # dL/dc_t via tanh'
            np.subtract(1.0, scratch, out=scratch)
            scratch *= gh
            scratch *= o
            gc += scratch
            da = da_all[t]
            s = da[:, :3 * d]                         # sigmoid' for i, f, o
            np.subtract(1.0, a[:, :3 * d], out=s)
            s *= a[:, :3 * d]
            s_i, s_f, s_o = da[:, :d], da[:, d:2 * d], da[:, 2 * d:3 * d]
            s_i *= g                                  # d/d a_i
            s_i *= gc
            s_f *= cs[t]                              # d/d a_f
            s_f *= gc
            s_o *= gh                                 # d/d a_o
            s_o *= tc
            s = da[:, 3 * d:]                         # d/d a_g
            np.multiply(g, g, out=s)
            np.subtract(1.0, s, out=s)
            s *= i
            s *= gc
            gh_carry = da @ w_hh_p.T
            gc *= f                                   # dL/dc_{t-1}
        da2 = da_all.reshape(length * batch, 4 * d)
        g_x = np.ascontiguousarray(
            (da2 @ w_ih_p.T).reshape(length, batch, in_dim).transpose(1, 0, 2))
        g_wih_p = x_tm2.T @ da2
        g_whh_p = hs[:length].reshape(length * batch, d).T @ da2
        g_bias_p = da2.sum(axis=0)
        # Undo the (i, f, o, g) column permutation on the weight grads.
        g_wih = np.empty_like(g_wih_p)
        g_wih[:, perm] = g_wih_p
        g_whh = np.empty_like(g_whh_p)
        g_whh[:, perm] = g_whh_p
        g_bias = np.empty_like(g_bias_p)
        g_bias[perm] = g_bias_p
        if hc0 is None:
            return (g_x, g_wih, g_whh, g_bias)
        g_hc0 = np.concatenate([gh_carry, gc], axis=1)
        return (g_x, g_wih, g_whh, g_bias, g_hc0)

    parents = ((x, w_ih, w_hh, bias) if hc0 is None
               else (x, w_ih, w_hh, bias, hc0))
    return Tensor._make(out, parents, backward)


def gru_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor,
                 b_hh: Tensor, hidden_dim: int,
                 h0: Optional[Tensor] = None) -> Tensor:
    """The full GRU recurrence as a single graph node; returns ``(B, L, d)``
    hidden states (``[:, -1]`` is the final state).

    Mirrors :func:`lstm_sequence`: the input projection runs as one big
    matmul up front, and backward is hand-written BPTT.
    """
    d = hidden_dim
    x = ensure_tensor(x)
    x_data = x.data
    batch, length, in_dim = x_data.shape
    w_ih_d, w_hh_d = w_ih.data, w_hh.data
    # Time-major buffers for contiguous per-step slices (see lstm_sequence).
    x_tm = np.ascontiguousarray(x_data.transpose(1, 0, 2))
    x_tm2 = x_tm.reshape(length * batch, in_dim)
    gi = kernels.linear(x_tm2, w_ih_d, b_ih.data).reshape(length, batch,
                                                          3 * d)
    dtype = gi.dtype
    acts = np.empty((length, batch, 3 * d), dtype=dtype)  # z, r, n
    gh_ns = np.empty((length, batch, d), dtype=dtype)
    hs = np.empty((length + 1, batch, d), dtype=dtype)
    if h0 is not None:
        h0 = ensure_tensor(h0)
        hs[0] = h0.data
    else:
        hs[0] = 0.0
    for t in range(length):
        kernels.gru_step(gi[t], hs[t], w_hh_d, b_hh.data,
                         zr=acts[t, :, :2 * d], n=acts[t, :, 2 * d:],
                         gh_n=gh_ns[t], out=hs[t + 1])
    out = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(grad):
        grad_tm = np.ascontiguousarray(grad.transpose(1, 0, 2))
        gh_carry = np.zeros((batch, d), dtype=dtype)
        d_gi_all = np.empty((length, batch, 3 * d), dtype=dtype)
        d_gh_all = np.empty((length, batch, 3 * d), dtype=dtype)
        for t in range(length - 1, -1, -1):
            a = acts[t]
            z, r, n = a[:, :d], a[:, d:2 * d], a[:, 2 * d:]
            gh = gh_carry
            gh += grad_tm[t]
            d_gi, d_gh = d_gi_all[t], d_gh_all[t]
            da_n = d_gi[:, 2 * d:]
            np.multiply(n, n, out=da_n)               # (1 - n^2) (1 - z) gh
            np.subtract(1.0, da_n, out=da_n)
            np.subtract(1.0, z, out=d_gh[:, 2 * d:])  # scratch for (1 - z)
            da_n *= d_gh[:, 2 * d:]
            da_n *= gh
            da_z = d_gi[:, :d]                        # gh (h - n) z (1 - z)
            np.subtract(hs[t], n, out=da_z)
            da_z *= gh
            da_z *= z
            np.subtract(1.0, z, out=d_gh[:, :d])      # scratch for (1 - z)
            da_z *= d_gh[:, :d]
            da_r = d_gi[:, d:2 * d]                   # da_n gh_n r (1 - r)
            np.subtract(1.0, r, out=da_r)
            da_r *= r
            da_r *= gh_ns[t]
            da_r *= da_n
            d_gh[:, :d] = da_z
            d_gh[:, d:2 * d] = da_r
            np.multiply(da_n, r, out=d_gh[:, 2 * d:])
            gh_carry = d_gh @ w_hh_d.T
            gh *= z                                   # carry dL/dh_{t-1}
            gh_carry += gh
        d_gi2 = d_gi_all.reshape(length * batch, 3 * d)
        d_gh2 = d_gh_all.reshape(length * batch, 3 * d)
        g_x = np.ascontiguousarray(
            (d_gi2 @ w_ih_d.T).reshape(length, batch, in_dim)
            .transpose(1, 0, 2))
        g_wih = x_tm2.T @ d_gi2
        g_whh = hs[:length].reshape(length * batch, d).T @ d_gh2
        g_bih = d_gi2.sum(axis=0)
        g_bhh = d_gh2.sum(axis=0)
        if h0 is None:
            return (g_x, g_wih, g_whh, g_bih, g_bhh)
        return (g_x, g_wih, g_whh, g_bih, g_bhh, gh_carry)

    parents = ((x, w_ih, w_hh, b_ih, b_hh) if h0 is None
               else (x, w_ih, w_hh, b_ih, b_hh, h0))
    return Tensor._make(out, parents, backward)


class GRUCell(Module):
    """A single gated recurrent unit step."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Gates: update (z), reset (r), candidate (n) — fused weights.
        self.w_ih = Parameter(init.xavier_uniform((input_dim, 3 * hidden_dim), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_dim, 3 * hidden_dim), rng))
        self.b_ih = Parameter(init.zeros((3 * hidden_dim,)))
        self.b_hh = Parameter(init.zeros((3 * hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        return gru_step(x, h, self.w_ih, self.w_hh, self.b_ih, self.b_hh,
                        self.hidden_dim)


class LSTMCell(Module):
    """The fused gate weights (i, f, g, o) of an :class:`LSTM`."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_ih = Parameter(init.xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_dim, 4 * hidden_dim), rng))
        self.bias = Parameter(init.zeros((4 * hidden_dim,)))
        # Forget-gate bias of 1.0 is the standard trick for gradient flow.
        self.bias.data[hidden_dim:2 * hidden_dim] = 1.0


class GRU(Module):
    """Unidirectional GRU over ``(batch, length, input_dim)`` inputs."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor, h0: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
        """Return ``(outputs, last_hidden)``; outputs is (B, L, H)."""
        x = ensure_tensor(x)
        cell = self.cell
        outputs = gru_sequence(x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh,
                               self.hidden_dim, h0)
        return outputs, outputs[:, -1, :]


class LSTM(Module):
    """Unidirectional LSTM over ``(batch, length, input_dim)`` inputs."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        x = ensure_tensor(x)
        length = x.shape[1]
        d = self.hidden_dim
        hc0 = None
        if state is not None:
            hc0 = Tensor.concat([ensure_tensor(state[0]),
                                 ensure_tensor(state[1])], axis=1)
        cell = self.cell
        packed = lstm_sequence(x, cell.w_ih, cell.w_hh, cell.bias, d, hc0)
        # packed is (B, L+1, d): hidden states then the final cell state.
        return packed[:, :length, :], (packed[:, length - 1, :],
                                       packed[:, length, :])


class BiLSTM(Module):
    """Bidirectional LSTM returning separate forward/backward state sequences.

    This is the paper's context-aware encoder.  For position ``t``:

    * ``H^L[:, t]`` encodes items ``s_1..s_t`` (left-to-right pass),
    * ``H^R[:, t]`` encodes items ``s_t..s_n`` (right-to-left pass).

    Both passes map to ``hidden_dim`` so elementwise products with item
    representations (Eq. 9) are well-defined.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(H_L, H_R)``, each of shape (B, L, hidden_dim)."""
        x = ensure_tensor(x)
        left, _ = self.forward_lstm(x)
        length = x.shape[1]
        reversed_idx = np.arange(length - 1, -1, -1)
        right_rev, _ = self.backward_lstm(x[:, reversed_idx, :])
        right = right_rev[:, reversed_idx, :]
        return left, right
