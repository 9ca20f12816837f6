"""The one NumPy forward of every op that training and serving share.

Each function takes and returns plain ``np.ndarray``s — no ``Tensor``,
no graph.  The autograd ops of :mod:`repro.nn` call it and keep the
residuals their hand-written backward needs; the frozen-plan op table
(:data:`repro.serve.program.OPS`) and the serving kernels of
:mod:`repro.serve.executors` call the very same function and keep
nothing.  A frozen plan therefore computes its model's sequence
representation bit for bit, by construction rather than by a second copy
held in line by a parity test.

Kernels allocate from their input dtype; only the masking sentinel
:data:`NEG_INF` is pinned to float64.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

#: Fill for masked logits: finite (so ``max`` subtraction never makes
#: ``inf - inf``) yet far below any real score.
NEG_INF = np.finfo(np.float64).min / 4


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Clipped logistic sigmoid ``1 / (1 + exp(-clip(x, -60, 60)))``."""
    # asarray: clip returns a scalar for 0-d input.
    out = np.asarray(np.clip(x, -60.0, 60.0))
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def linear(x: np.ndarray, weight: np.ndarray,
           bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine map ``x @ W + b``; ``weight`` is ``(in, out)``."""
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-8) -> tuple:
    """LayerNorm over the last axis: ``(out, x_hat, inv_std)``.

    ``x_hat`` is the normalized input and ``inv_std`` the per-row
    ``1 / sqrt(var + eps)``; the training op keeps both for backward.
    """
    x_hat = x - x.mean(axis=-1, keepdims=True)
    out = x_hat ** 2              # squares for the variance, then the output
    inv_std = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    x_hat *= inv_std
    np.multiply(x_hat, gamma, out=out)
    out += beta
    return out, x_hat, inv_std


def last_positions(mask: np.ndarray) -> np.ndarray:
    """Each row's last valid position in a bool ``(B, L)`` mask, ``0``
    for a row with none: the readout position of ``last_state``."""
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask.any(axis=1),
                    mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1), 0)


def _softmax_(scores: np.ndarray, axis: int) -> np.ndarray:
    """Stable softmax of a freshly allocated array, in place."""
    scores -= scores.max(axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=axis, keepdims=True)
    return scores


def masked_softmax(x: np.ndarray, mask: np.ndarray,
                   axis: int = -1) -> np.ndarray:
    """Softmax with probability zero where ``mask`` (bool, broadcastable
    to ``x``) is False; a fully-masked row comes out uniform."""
    valid = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    return _softmax_(np.where(valid, x, NEG_INF), axis)


def attention_weights(q: np.ndarray, k: np.ndarray, scale: float,
                      blocked: Optional[np.ndarray] = None) -> np.ndarray:
    """``softmax(scale * q kᵀ)`` over the key axis.

    ``blocked`` (bool, broadcastable to the ``(..., L_q, L_k)`` scores)
    marks the query/key pairs filled with :data:`NEG_INF` first.
    """
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if blocked is not None:
        np.copyto(scores, NEG_INF, where=blocked)
    return _softmax_(scores, -1)


def gru_step(gi: np.ndarray, h: np.ndarray, w_hh: np.ndarray,
             b_hh: np.ndarray, out: Optional[np.ndarray] = None,
             overwrite_gi: bool = False) -> np.ndarray:
    """One GRU step from the input projection ``gi = x W_ih + b_ih``.

    Gates are update (z), reset (r), candidate (n); the sigmoid is the
    exact identity ``0.5 * (1 + tanh(x / 2))``.  Arguments are ``(B, .)``
    arrays of any strides, and the step computes on their transposes:
    the recurrent term ``W_hhᵀ hᵀ + b_hh`` is ``(3d, B)``, so each gate
    is a block of rows.  A caller that keeps its state and gates as rows
    (:func:`gru_unroll`) passes ``.T`` views, and every gate op then runs
    over contiguous rows; a ``(B, d)`` caller (the plan's ``gru_step``
    step) gets the same values.

    The new state goes to ``out`` ``(B, d)``, allocated when ``None``,
    and is returned.  With ``overwrite_gi`` the step writes ``[z, r, n]``
    over ``gi``, where training keeps them for its backward.
    """
    d = h.shape[-1]
    h_t = h.T
    gh = w_hh.T @ h_t
    gh += b_hh[:, None]
    # ``acc`` ends up holding [z, r, n]; ``add`` is the other term of
    # each pre-activation sum.
    acc, add = (gi.T, gh) if overwrite_gi else (gh, gi.T)
    zr = acc[:2 * d]
    zr += add[:2 * d]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    gh[2 * d:] *= zr[d:]                              # r (h W_hn + b_hn)
    n = acc[2 * d:]
    n += add[2 * d:]
    np.tanh(n, out=n)
    out_t = np.subtract(h_t, n, out=None if out is None else out.T)
    out_t *= zr[:d]
    out_t += n
    return out_t.T


def first_positions(mask: np.ndarray) -> np.ndarray:
    """Each row's first valid position in a bool ``(B, L)`` mask, ``L``
    for a row with none: where a left-padded row's own items begin."""
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask.any(axis=1), mask.argmax(axis=1), mask.shape[1])


class GruTape(NamedTuple):
    """What :func:`gru_unroll` keeps for ``gru_sequence``'s backward.

    Step ``t`` ran on ``w = acts[t].shape[1]`` columns, the first rows of
    ``order`` (the given row order when ``order`` is ``None``):
    ``acts[t]`` ``(3d, w)`` holds their gates ``[z; r; n]`` and
    ``hs[t, :, :w]`` the states entering the step; ``hs`` ``(L+1, d, B)``
    holds every row.  ``x_cols`` are the stepped columns' inputs: the
    time-major ``(L, B, in)`` input when unpacked, else ``(W, in)`` in
    step order, with ``cells`` their ``(row, step)`` index.  ``pad`` is
    the shared padding trajectory ``(x, acts, hs)`` of its ``T`` steps:
    ``(T, in)``, ``(T, 3d, c)`` and ``(T+1, d, c)``.
    """

    x_cols: np.ndarray
    acts: Sequence[np.ndarray]
    hs: np.ndarray
    order: Optional[np.ndarray] = None
    cells: Optional[tuple] = None
    pad: Optional[tuple] = None


def _gru_packing(x: np.ndarray, w_ih: np.ndarray,
                 starts: np.ndarray) -> Optional[tuple]:
    """``(order, widths)`` of a packed unroll, or ``None`` when every
    step must run on every row.

    A row whose leading input differs from that of the row with the most
    padding (bitwise, at any step before its start) starts no later than
    the first such step, so it steps through the rest of its own
    padding.  Rows are then sorted stably by start, and step ``t`` runs
    on ``min(B, 8⌈n_t/8⌉)`` columns for its ``n_t`` started rows.  A
    batch of more than 8 rows that is not a multiple of 8, or an input
    weight that is not C-contiguous, is not packed; see
    :func:`gru_unroll` for why.
    """
    batch, length = x.shape[:2]
    if batch > 8 and batch % 8 or not w_ih.flags.c_contiguous:
        return None
    starts = np.asarray(starts)
    lead = int(starts.max(initial=0))
    if lead == 0:
        return None
    bits = x[:, :lead].view(f"u{x.itemsize}")
    differs = (bits != bits[starts.argmax()]).any(axis=2)
    starts = np.minimum(starts, np.where(differs.any(axis=1),
                                         differs.argmax(axis=1), lead))
    order = np.argsort(starts, kind="stable")
    started = np.searchsorted(starts[order], np.arange(length), side="right")
    widths = np.minimum(batch, -(-started // 8) * 8)
    return None if widths.min() == batch else (order, widths)


def gru_unroll(x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray,
               b_ih: np.ndarray, b_hh: np.ndarray,
               h0: Optional[np.ndarray] = None,
               step_mask: Optional[np.ndarray] = None,
               starts: Optional[np.ndarray] = None,
               readout: Optional[np.ndarray] = None) -> tuple:
    """The GRU recurrence over ``x`` ``(B, L, in)`` from ``h0`` ``(B, d)``
    (zeros when ``None``), stepping :func:`gru_step`.

    Returns ``(out, tape)``: the ``(B, L, d)`` states and the
    :class:`GruTape` ``gru_sequence``'s backward consumes.  Inside the
    loop the batch is the contiguous last axis, so each step's state and
    gates are ``(d, B)`` rows.  ``step_mask`` (bool ``(B, L)``) holds a
    row's state wherever it is False.

    ``readout`` (``(B,)`` positions, as :func:`last_positions` reads them
    off a mask) makes ``out`` each row's ``(B, d)`` state at its
    position, copied from the tape's state buffer; the ``(B, L, d)``
    states are then never built.

    ``starts`` (``(B,)``, each row's first real position, as
    :func:`first_positions` reads it off a mask) packs the left
    padding.  Every row's padding input is taken to be that of the row
    with the most padding, so the state after ``k`` padding steps is one
    vector ``h_pad[k]``: a single trajectory computes it, each row
    begins from ``h_pad[start]``, and the rows stepping at ``t`` are a
    contiguous prefix of the start-sorted batch.  A row whose padding
    input differs from that row's is *demoted*: it steps through its own
    padding from the first differing step, so the result equals the
    unpacked loop's for any input.

    *Bit for bit* rests on the BLAS rounding each column of a product
    as the unpacked loop's full-width product does.  Measured with
    OpenBLAS 0.3.31 on one and two threads, ``d`` and ``in`` from 8 to
    128, ``B`` up to 2048: the recurrent ``W_hhᵀ @ h[:, :n]`` (either
    weight layout) and the projection ``W_ihᵀ @ x[:n]ᵀ`` (C-contiguous
    ``W_ih``, as initialized) matched the full product column for column
    at every ``n`` that is a multiple of 8.  Other widths did not always:
    wide products round their last ``n mod 8`` columns differently, an
    F-ordered ``W_hh`` (as orthogonal init leaves it) does so at small
    widths too, ``n = 1`` is a matrix-vector product, and an F-ordered
    ``W_ih`` rounds some small multiples of 8 differently.  So step
    ``t`` runs on ``min(B, 8⌈n_t/8⌉)`` columns — the spare ones are rows
    not yet started, holding ``h_pad[t]`` and so computing ``h_pad[t+1]``
    — and the trajectory on ``min(B, 8)``; a batch of more than 8 rows
    that is not a multiple of 8 (the unpacked loop computes its last
    rows as a product's tail) or an F-ordered ``W_ih`` is not packed.
    Each step projects its own columns' input; ``starts`` excludes
    ``h0`` and ``step_mask``.
    """
    batch, length, in_dim = x.shape
    d = w_hh.shape[0]
    if starts is not None and (h0 is not None or step_mask is not None):
        raise ValueError("packed padding starts every row from h_pad; "
                         "it takes no initial state or step mask")
    packing = None if starts is None else _gru_packing(x, w_ih, starts)
    dtype = np.result_type(x, w_ih)
    hs = np.empty((length + 1, d, batch), dtype=dtype)
    hs[0] = 0.0 if h0 is None else h0.T
    # Per-step (B, .)-oriented views for gru_step.
    hs_b = hs.transpose(0, 2, 1)
    if packing is None:
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        # Every step's input projection lands in the gate rows the step
        # then overwrites with [z, r, n].
        acts = np.matmul(w_ih.T, x_tm.transpose(0, 2, 1))
        acts += b_ih[:, None]
        steps = zip(acts.transpose(0, 2, 1), hs_b[:-1], hs_b[1:])
        for t, (gates, h, h_new) in enumerate(steps):
            gru_step(gates, h, w_hh, b_hh, out=h_new, overwrite_gi=True)
            if step_mask is not None:
                np.copyto(h_new, h, where=~step_mask[:, t, None])
        tape = GruTape(x_tm, acts, hs)
        if readout is not None:
            return _read_states(hs, readout), tape
        return np.ascontiguousarray(hs_b[1:].transpose(1, 0, 2)), tape

    order, widths = packing
    cells = (np.concatenate([order[:w] for w in widths]),
             np.repeat(np.arange(length), widths))
    x_cols = x[cells]
    cols = np.cumsum(widths) - widths
    acts = []
    # The trajectory: T steps of the most-padded row's input, on c columns.
    pad_len = int((widths < batch).sum())
    x_pad = x[order[-1], :pad_len]
    pad_acts = np.matmul(w_ih.T, np.repeat(x_pad[:, None], min(batch, 8),
                                           axis=1).transpose(0, 2, 1))
    pad_acts += b_ih[:, None]
    h_pad = np.zeros((pad_len + 1, d, pad_acts.shape[2]), dtype=dtype)
    for t, (c, w) in enumerate(zip(cols, widths)):
        if t < pad_len:
            gru_step(pad_acts[t].T, h_pad[t].T, w_hh, b_hh,
                     out=h_pad[t + 1].T, overwrite_gi=True)
        gates = w_ih.T @ x_cols[c:c + w].T
        gates += b_ih[:, None]
        acts.append(gates)
        if w:
            gru_step(gates.T, hs_b[t, :w], w_hh, b_hh, out=hs_b[t + 1, :w],
                     overwrite_gi=True)
        if w < batch:
            hs[t + 1, :, w:] = h_pad[t + 1, :, :1]
    tape = GruTape(x_cols, acts, hs, order, cells, (x_pad, pad_acts, h_pad))
    if readout is not None:
        out = np.empty((batch, d), dtype=dtype)
        out[order] = _read_states(hs, readout[order])
    else:
        out = np.empty((batch, length, d), dtype=dtype)
        out[order] = hs_b[1:].transpose(1, 0, 2)
    return out, tape


def _read_states(hs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Column ``c``'s state after step ``positions[c]`` of an ``(L+1, d,
    B)`` state buffer, as ``(B, d)`` rows."""
    return hs[positions + 1, :, np.arange(hs.shape[2])]
