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

from typing import Optional

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


def gru_unroll(x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray,
               b_ih: np.ndarray, b_hh: np.ndarray,
               h0: Optional[np.ndarray] = None,
               step_mask: Optional[np.ndarray] = None) -> tuple:
    """The GRU recurrence over ``x`` ``(B, L, in)`` from ``h0`` ``(B, d)``
    (zeros when ``None``), stepping :func:`gru_step`.

    Returns ``(out, x_tm, acts, hs)``: the ``(B, L, d)`` states, then the
    residuals ``gru_sequence``'s backward consumes — the time-major
    input ``x_tm`` ``(L, B, in)``, the gate rows ``acts`` ``(L, 3d, B)``
    stacked per step as ``[z; r; n]``, and the states ``hs``
    ``(L+1, d, B)`` entering each step.  The batch is the contiguous
    last axis, so each step's state and gates are one contiguous block
    of ``(d, B)`` rows.  ``step_mask`` (bool ``(B, L)``) holds a row's
    state wherever it is False.
    """
    batch, length, in_dim = x.shape
    d = w_hh.shape[0]
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    # Every step's input projection lands in the gate rows the step then
    # overwrites with [z, r, n].
    acts = np.matmul(w_ih.T, x_tm.transpose(0, 2, 1))
    acts += b_ih[:, None]
    hs = np.empty((length + 1, d, batch), dtype=acts.dtype)
    hs[0] = 0.0 if h0 is None else h0.T
    # Per-step (B, .)-oriented views for gru_step.
    hs_b = hs.transpose(0, 2, 1)
    steps = zip(acts.transpose(0, 2, 1), hs_b[:-1], hs_b[1:])
    for t, (gates, h, h_new) in enumerate(steps):
        gru_step(gates, h, w_hh, b_hh, out=h_new, overwrite_gi=True)
        if step_mask is not None:
            np.copyto(h_new, h, where=~step_mask[:, t, None])
    out = np.ascontiguousarray(hs_b[1:].transpose(1, 0, 2))
    return out, x_tm, acts, hs
