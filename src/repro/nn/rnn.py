"""Recurrent layers: GRU, LSTM, and the Bi-LSTM context-aware encoder.

The Bi-LSTM is the paper's "context-aware encoder" (Eq. 9 and Eq. 12): its
left-to-right hidden states ``H^L`` summarize each item's left context and
its right-to-left states ``H^R`` the right context.

Recurrences are *fused*: :func:`lstm_sequence` and :func:`gru_sequence`
run the whole sequence in NumPy and record a single graph node with a
hand-written BPTT backward, instead of ~15 elementwise/slice nodes per
step of the naive composition.  The GRU's forward is
:func:`repro.nn.kernels.gru_unroll` over :func:`repro.nn.kernels.gru_step`,
the same functions frozen plans run.

Layout: inside a recurrence the state is transposed, ``(d, B)``, with the
batch as the contiguous last axis, and the residuals are time-major
``(L, gates, B)``.  The recurrent matmul ``W_hhᵀ h`` then yields the gates
as contiguous row blocks, and every per-step elementwise op runs over
contiguous rows of one cache-resident block.  The backward runs once
(:func:`repro.nn.tensor.consuming`), so it writes its gate gradients over
the forward's own activation buffers instead of allocating new ones.  The
Bi-LSTM runs both directions in one time loop over stacked ``(2, ...)``
buffers.  Layer inputs and outputs stay ``(B, L, d)``.

Packed padding: given the bool ``(B, L)`` mask of a left-padded batch,
:class:`GRU` steps each row only from its first valid position.  Every
row's padding input is the same (the padding item's zero embedding), so
the state after ``k`` padding steps is one vector ``h_pad[k]``: one
shared trajectory computes it and each row starts from it.  Rows sorted
by start make the rows stepping at ``t`` a prefix of ``n_t`` columns of
the ``(d, B)`` block.  The kernel checks the sharing bitwise: a row
whose leading input differs from the most-padded row's steps through
its own padding (it is *demoted*), so any input gives the unmasked
result.  That result is bit for bit because every product runs on a
multiple of 8 columns (or all ``B``), where OpenBLAS rounds each column
as the full-width product does (measured with OpenBLAS 0.3.31; other
widths round some columns differently); a batch of more than 8 rows
that is not a multiple of 8 is therefore not packed.  Backward runs
BPTT over the same prefixes and backpropagates the trajectory once; the
input gradient at a shared padding position is exact only as the sum
over the rows sharing it, which is what a shared upstream — a second
GRU layer, the padding embedding row — consumes.  See
:func:`gru_sequence` and :func:`repro.nn.kernels.gru_unroll`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init, kernels
from .module import Module, Parameter
from .tensor import Tensor, consuming, ensure_tensor


def gru_step(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
             b_ih: Tensor, b_hh: Tensor, hidden_dim: int) -> Tensor:
    """One fused GRU step: ``(B, input_dim), (B, d) -> (B, d)``.

    Gate order matches :class:`GRUCell`: update (z), reset (r),
    candidate (n); the forward is :func:`repro.nn.kernels.gru_step`.
    """
    d = hidden_dim
    x, h = ensure_tensor(x), ensure_tensor(h)
    x_data, h_data = x.data, h.data
    gates = kernels.linear(x_data, w_ih.data, b_ih.data)  # then [z, r, n]
    out_data = kernels.gru_step(gates, h_data, w_hh.data, b_hh.data,
                                overwrite_gi=True)
    z, r, n = gates[:, :d], gates[:, d:2 * d], gates[:, 2 * d:]

    def backward(grad):
        gh_n = kernels.linear(h_data, w_hh.data[:, 2 * d:],
                              b_hh.data[2 * d:])
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
                  hidden_dim: int, hc0: Optional[Tensor] = None,
                  reverse: Optional[Tuple[Tensor, Tensor, Tensor]] = None
                  ) -> Tensor:
    """The full LSTM recurrence as a *single* graph node.

    The input projection of every step runs as one batched matmul before
    the loop, so each step costs one recurrent matmul plus in-place gate
    math.  Backward is hand-written BPTT: its gate gradients overwrite
    the forward's activations, and the weight gradients come from
    batched matmuls over the whole sequence.

    Returns ``(B, L+1, d)``: ``[:, :L]`` are the hidden states, ``[:, L]``
    is the final cell state (slice with basic indexing to read them).

    ``reverse=(w_ih, w_hh, bias)`` adds a right-to-left pass over the
    same ``x`` (the Bi-LSTM) to the same time loop: the result is then
    ``(2, B, L+1, d)``, ``[1, :, t]`` being the reverse state at position
    ``t`` and ``[1, :, L]`` its final cell state.  ``hc0`` is for a
    single direction only.
    """
    d = hidden_dim
    x = ensure_tensor(x)
    x_data = x.data
    batch, length, in_dim = x_data.shape
    directions = [(w_ih, w_hh, bias)]
    if reverse is not None:
        if hc0 is not None:
            raise ValueError("an initial state needs a single direction")
        directions.append(tuple(reverse))
    k = len(directions)
    # Internally the gate columns are permuted to (i, f, o, g) so the three
    # sigmoids run as ONE contiguous block per step; weight gradients are
    # permuted back before returning.  Sigmoid itself is computed as
    # 0.5 * (1 + tanh(x / 2)) — an exact identity that needs no overflow
    # clip and four ufunc passes instead of ten.
    perm = np.concatenate([np.arange(0, 2 * d), np.arange(3 * d, 4 * d),
                           np.arange(2 * d, 3 * d)])
    w_ih_p = np.stack([w.data[:, perm] for w, _, _ in directions])
    w_hh_p = np.stack([w.data[:, perm] for _, w, _ in directions])
    bias_p = np.stack([b.data[perm] for _, _, b in directions])[:, :, None]
    # Time-major buffers with the directions stacked next and the batch as
    # the contiguous last axis: each step's states and gates are one
    # contiguous block of (k, d, B) rows.  The reverse pass reads its input
    # time-reversed, so both directions advance in the same step.
    x_tm = np.empty((length, k, batch, in_dim), dtype=x_data.dtype)
    x_tm[:, 0] = x_data.transpose(1, 0, 2)
    if k == 2:
        x_tm[:, 1] = x_tm[::-1, 0]
    # Every step's input projection lands in the gate rows the step then
    # overwrites with its activations.
    acts = np.matmul(w_ih_p.transpose(0, 2, 1), x_tm.transpose(0, 1, 3, 2))
    acts += bias_p
    dtype = acts.dtype
    tanh_cs = np.empty((length, k, d, batch), dtype=dtype)
    # hs[t] / cs[t] hold the state *entering* step t.
    hs = np.empty((length + 1, k, d, batch), dtype=dtype)
    cs = np.empty((length + 1, k, d, batch), dtype=dtype)
    if hc0 is not None:
        hc0 = ensure_tensor(hc0)
        hs[0, 0] = hc0.data[:, :d].T
        cs[0, 0] = hc0.data[:, d:].T
    else:
        hs[0] = 0.0
        cs[0] = 0.0
    w_hh_t = w_hh_p.transpose(0, 2, 1)
    gates = np.empty((k, 4 * d, batch), dtype=dtype)
    scratch = np.empty((k, d, batch), dtype=dtype)
    out = np.empty((k, batch, length + 1, d), dtype=dtype)
    for t in range(length):
        np.matmul(w_hh_t, hs[t], out=gates)
        a = acts[t]
        gates += a
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
        np.multiply(i, g, out=scratch)
        c_new += scratch
        tc = tanh_cs[t]
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=hs[t + 1])
        out[0, :, t] = hs[t + 1, 0].T
        if k == 2:
            out[1, :, length - 1 - t] = hs[t + 1, 1].T
    out[:, :, length] = cs[length].transpose(0, 2, 1)

    @consuming
    def backward(grad):
        # The gate gradients overwrite ``acts`` in place, gate by gate,
        # each once its activation is no longer read.
        grad = grad.reshape(out.shape)
        gh = np.zeros((k, d, batch), dtype=dtype)
        gc = np.ascontiguousarray(grad[:, :, length].transpose(0, 2, 1))
        gc_next = np.empty_like(gc)
        carry = np.empty_like(gc)
        tmp = np.empty_like(gc)
        for t in range(length - 1, -1, -1):
            a = acts[t]
            i, f = a[:, :d], a[:, d:2 * d]
            o, g = a[:, 2 * d:3 * d], a[:, 3 * d:]
            tc = tanh_cs[t]
            gh[0] += grad[0, :, t].T
            if k == 2:
                gh[1] += grad[1, :, length - 1 - t].T
            np.multiply(tc, tc, out=tmp)              # dL/dc_t via tanh'
            np.subtract(1.0, tmp, out=tmp)
            tmp *= gh
            tmp *= o
            gc += tmp
            np.subtract(1.0, i, out=tmp)              # sigmoid' g for a_i
            tmp *= i
            tmp *= g
            np.multiply(g, g, out=g)                  # d/d a_g
            np.subtract(1.0, g, out=g)
            g *= i
            g *= gc
            np.multiply(tmp, gc, out=i)               # d/d a_i
            np.subtract(1.0, f, out=tmp)              # sigmoid' c for a_f
            tmp *= f
            tmp *= cs[t]
            np.multiply(gc, f, out=gc_next)           # dL/dc_{t-1}
            np.multiply(tmp, gc, out=f)               # d/d a_f
            np.subtract(1.0, o, out=tmp)              # d/d a_o
            o *= tmp
            o *= gh
            o *= tc
            np.matmul(w_hh_p, a, out=carry)           # dL/dh_{t-1}
            gh, carry = carry, gh
            gc, gc_next = gc_next, gc
        # Whole-sequence products over the per-step (B, 4d) gate views.
        da = acts.transpose(0, 1, 3, 2)
        g_xs = np.matmul(da, w_ih_p.transpose(0, 2, 1))  # (L, k, B, in)
        g_x_tm = g_xs[:, 0]
        if k == 2:
            g_x_tm += g_xs[::-1, 1]
        g_x = np.ascontiguousarray(g_x_tm.transpose(1, 0, 2))
        # Undo the (i, f, o, g) column permutation on the weight grads.
        g_wih = np.empty_like(w_ih_p)
        g_wih[:, :, perm] = np.matmul(x_tm.transpose(0, 1, 3, 2),
                                      da).sum(axis=0)
        g_whh = np.empty_like(w_hh_p)
        g_whh[:, :, perm] = np.matmul(hs[:length], da).sum(axis=0)
        g_bias = np.empty((k, 4 * d), dtype=dtype)
        g_bias[:, perm] = acts.sum(axis=(0, 3))
        grads = [g_x]
        for index in range(k):
            grads += [g_wih[index], g_whh[index], g_bias[index]]
        if hc0 is not None:
            grads.append(np.concatenate([gh[0].T, gc[0].T], axis=1))
        return tuple(grads)

    parents = [x]
    for weights in directions:
        parents += weights
    if hc0 is not None:
        parents.append(hc0)
    return Tensor._make(out if k == 2 else out[0], parents, backward)


def _gru_step_backward(a: np.ndarray, h: np.ndarray, gh: np.ndarray,
                       gh_n: np.ndarray, carry: np.ndarray, s1: np.ndarray,
                       s2: np.ndarray, w_hh: np.ndarray,
                       b_n: np.ndarray) -> None:
    """BPTT through one GRU step over ``(., w)`` column blocks, in place.

    ``a`` holds the step's ``[z; r; n]`` and becomes the input-side gate
    gradient ``[da_z; da_r; da_n]``; ``gh_n`` receives the recurrent
    side's ``da_n r``; ``carry`` receives ``dL/dh`` of the state ``h``
    entering the step, given ``gh``, the gradient of the state leaving it
    (clobbered).  The candidate's recurrent term ``h W_hn + b_hn`` is
    recomputed from ``h``, not stored.
    """
    d = h.shape[0]
    z, r, n = a[:d], a[d:2 * d], a[2 * d:]
    w_n = w_hh[:, 2 * d:]
    np.matmul(w_n.T, h, out=gh_n)
    gh_n += b_n
    np.subtract(h, n, out=s1)                         # gh (h - n) z
    s1 *= gh
    s1 *= z
    np.subtract(1.0, z, out=s2)
    np.multiply(n, n, out=n)                          # (1 - n^2) (1 - z) gh
    np.subtract(1.0, n, out=n)
    n *= s2
    n *= gh
    gh *= z                                           # direct dL/dh_{t-1}
    np.multiply(s1, s2, out=z)                        # da_z
    np.subtract(1.0, r, out=s2)                       # da_n gh_n r (1 - r)
    s2 *= r
    s2 *= gh_n
    np.multiply(n, r, out=gh_n)
    np.multiply(s2, n, out=r)
    np.matmul(w_hh[:, :2 * d], a[:2 * d], out=carry)
    carry += w_n @ gh_n
    carry += gh


def gru_sequence(x: Tensor, w_ih: Tensor, w_hh: Tensor, b_ih: Tensor,
                 b_hh: Tensor, hidden_dim: int, h0: Optional[Tensor] = None,
                 mask: Optional[np.ndarray] = None,
                 readout: bool = False) -> Tensor:
    """The full GRU recurrence as a single graph node; returns ``(B, L, d)``
    hidden states (``[:, -1]`` is the final state).

    The forward is :func:`repro.nn.kernels.gru_unroll`, the loop frozen
    plans run too; backward is hand-written BPTT that writes its gate
    gradients over the forward's gate rows.

    ``mask`` (bool ``(B, L)``, left-padded) packs the padding: each row
    steps only from its first valid position and starts from the one
    shared padding trajectory (see :func:`repro.nn.kernels.gru_unroll`,
    which checks the padding really is shared).  The forward is the
    unmasked one bit for bit.  Backward runs BPTT over the same column
    prefixes; each row's state gradient at its start and every output
    gradient at a padding position go into the trajectory's state
    gradient, and the trajectory is backpropagated once.  Weight
    gradients then differ from the unmasked ones by summation order
    only.  The input gradient at a padding position is exact only as a
    sum over the rows that share that step: all of it is booked to the
    most-padded row, the others get zero.  That sum is what a shared
    upstream needs — a second GRU layer's own trajectory, or the one
    embedding row of the padding item.  A mask takes no ``h0``.

    ``readout`` returns only each row's ``(B, d)`` state at its last
    valid position (:func:`repro.nn.kernels.last_positions` of ``mask``;
    ``L - 1`` without one), read from the recurrence's state buffer: the
    ``(B, L, d)`` states are never built.  Backward then adds each row's
    one gradient at its readout step instead of a ``(B, L, d)`` output
    gradient at every step.  Forward and gradients equal those of
    ``last_state(gru_sequence(...), mask)`` bit for bit: the full
    output's gradient is zero away from the readout positions, and
    adding those zeros changes no value.
    """
    d = hidden_dim
    x = ensure_tensor(x)
    batch, length, in_dim = x.shape
    w_ih_d, w_hh_d = w_ih.data, w_hh.data
    if h0 is not None:
        h0 = ensure_tensor(h0)
    positions = None
    if readout:
        positions = (kernels.last_positions(mask) if mask is not None
                     else np.full(batch, length - 1, dtype=np.int64))
    out, tape = kernels.gru_unroll(
        x.data, w_ih_d, w_hh_d, b_ih.data, b_hh.data,
        None if h0 is None else h0.data,
        starts=None if mask is None else kernels.first_positions(mask),
        readout=positions)
    hs, order = tape.hs, tape.order
    widths = [a.shape[1] for a in tape.acts]
    dtype = out.dtype

    @consuming
    def backward(grad):
        # Columns run in the tape's row order.  Per step, the gate rows
        # become [da_z; da_r; da_n] in place and gh_nr keeps da_n r.  The
        # padding trajectory's state gradient ``gp`` collects what its
        # rows receive while they are not stepped: their output
        # gradients, then their state gradient at the step they start.
        b_n = b_hh.data[2 * d:, None]
        g_rows = grad if order is None else grad[order]
        if readout:
            # The columns reading out at step t: by_step[cuts[t]:cuts[t+1]].
            col_pos = positions if order is None else positions[order]
            by_step = np.argsort(col_pos, kind="stable")
            cuts = np.searchsorted(col_pos[by_step], np.arange(length + 1))
        gh = np.zeros((d, batch), dtype=dtype)
        carry, s1, s2 = (np.empty_like(gh) for _ in range(3))
        gh_nr = np.empty((length, d, batch), dtype=dtype)
        ones = np.ones(batch, dtype=dtype)             # sums as products
        pad_len = 0
        if tape.pad is not None:
            x_pad, pad_acts, h_pad = tape.pad
            pad_len = len(x_pad)
            p_acts, p_hs = pad_acts[:, :, :1], h_pad[:-1, :, :1]
            p_nr = np.empty((pad_len, d, 1), dtype=dtype)
            gp = np.zeros((d, 1), dtype=dtype)
            p_carry, p_s1, p_s2 = (np.empty_like(gp) for _ in range(3))
        for t in range(length - 1, -1, -1):
            w = widths[t]
            if readout:
                seeds = by_step[cuts[t]:cuts[t + 1]]
                idle = seeds[seeds >= w]
                seeds = seeds[seeds < w]
            if w:
                if not readout:
                    gh[:, :w] += g_rows[:w, t].T
                elif seeds.size:
                    gh[:, seeds] += g_rows[seeds].T
                _gru_step_backward(tape.acts[t], hs[t, :, :w], gh[:, :w],
                                   gh_nr[t, :, :w], carry[:, :w],
                                   s1[:, :w], s2[:, :w], w_hh_d, b_n)
                gh, carry = carry, gh
            if t < pad_len:
                if not readout:
                    gp[:, 0] += ones[w:] @ g_rows[w:, t]
                elif idle.size:
                    # The full output's (B - w, d) gradient block at t,
                    # summed by the same product.
                    block = np.zeros((batch - w, d), dtype=dtype)
                    block[idle - w] += g_rows[idle]
                    gp[:, 0] += ones[w:] @ block
                _gru_step_backward(p_acts[t], p_hs[t], gp, p_nr[t], p_carry,
                                   p_s1, p_s2, w_hh_d, b_n)
                gp, p_carry = p_carry, gp
            if t and widths[t - 1] < w:               # rows starting at t
                gp[:, 0] += gh[:, widths[t - 1]:w] @ ones[widths[t - 1]:w]
        if order is None:
            d_gi = tape.acts.transpose(0, 2, 1)       # (L, B, 3d) views
            g_x = np.empty((batch, length, in_dim), dtype=dtype)
            np.matmul(d_gi, w_ih_d.T, out=g_x.transpose(1, 0, 2))
            g_wih = np.matmul(tape.x_cols.transpose(0, 2, 1),
                              d_gi).sum(axis=0)
            d_zr, d_nr = d_gi[:, :, :2 * d], gh_nr.transpose(0, 2, 1)
            g_whh = np.concatenate(
                [np.matmul(hs[:length], d_zr).sum(axis=0),
                 np.matmul(hs[:length], d_nr).sum(axis=0)], axis=1)
            g_bih = d_gi.sum(axis=(0, 1))
            g_bhh = np.concatenate([d_zr.sum(axis=(0, 1)),
                                    d_nr.sum(axis=(0, 1))])
        else:
            # Every stepped column, the trajectory's last, as one block.
            d_gi = np.concatenate([*tape.acts, *p_acts], axis=1)
            h_cols = np.concatenate(
                [*(hs[t, :, :w] for t, w in enumerate(widths)), *p_hs], axis=1)
            d_nr = np.concatenate(
                [*(gh_nr[t, :, :w] for t, w in enumerate(widths)), *p_nr],
                axis=1)
            g_cols = d_gi.T @ w_ih_d.T
            g_x = np.zeros((batch, length, in_dim), dtype=dtype)
            g_x[tape.cells] = g_cols[:-pad_len]
            g_x[order[-1], :pad_len] = g_cols[-pad_len:]
            g_wih = np.concatenate([tape.x_cols, x_pad]).T @ d_gi.T
            g_whh = np.concatenate([h_cols @ d_gi[:2 * d].T, h_cols @ d_nr.T],
                                   axis=1)
            ones = np.ones(d_gi.shape[1], dtype=dtype)
            g_bih = d_gi @ ones
            g_bhh = np.concatenate([g_bih[:2 * d], d_nr @ ones])
        grads = (g_x, g_wih, g_whh, g_bih, g_bhh)
        return grads if h0 is None else grads + (gh.T,)

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

    def forward(self, x: Tensor, h0: Optional[Tensor] = None,
                mask: Optional[np.ndarray] = None, readout: bool = False):
        """Return ``(outputs, last_hidden)``; outputs is (B, L, H).

        ``mask`` (bool ``(B, L)``) packs the left padding, as
        :func:`gru_sequence` describes; the outputs do not change.  With
        ``readout`` the result is only the ``(B, H)`` state at each row's
        last valid position (:func:`gru_sequence`'s readout).
        """
        x = ensure_tensor(x)
        cell = self.cell
        outputs = gru_sequence(x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh,
                               self.hidden_dim, h0, mask, readout)
        return outputs if readout else (outputs, outputs[:, -1, :])


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
        """Return ``(H_L, H_R)``, each of shape (B, L, hidden_dim).

        Both directions run in one :func:`lstm_sequence` time loop.
        """
        x = ensure_tensor(x)
        fw, bw = self.forward_lstm.cell, self.backward_lstm.cell
        both = lstm_sequence(x, fw.w_ih, fw.w_hh, fw.bias, self.hidden_dim,
                             reverse=(bw.w_ih, bw.w_hh, bw.bias))
        length = x.shape[1]
        return both[0, :, :length], both[1, :, :length]
