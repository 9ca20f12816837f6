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
             b_hh: np.ndarray, zr: Optional[np.ndarray] = None,
             n: Optional[np.ndarray] = None,
             gh_n: Optional[np.ndarray] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """One GRU step from the input projection ``gi = x W_ih + b_ih``.

    Gates are update (z), reset (r), candidate (n); the sigmoid is the
    exact identity ``0.5 * (1 + tanh(x / 2))``.  The step writes ``[z,
    r]`` into ``zr`` ``(B, 2d)``, the candidate into ``n`` ``(B, d)``,
    its recurrent term ``h W_hn + b_hn`` into ``gh_n`` ``(B, d)`` and
    the new state into ``out`` ``(B, d)``: training passes views of its
    per-step residual buffers, and a buffer left ``None`` is allocated
    (``gh_n`` is then read in place).  Returns the new state.
    """
    d = h.shape[-1]
    gh = h @ w_hh
    gh += b_hh
    zr = np.add(gi[:, :2 * d], gh[:, :2 * d], out=zr)
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    z, r = zr[:, :d], zr[:, d:]
    if gh_n is None:
        gh_n = gh[:, 2 * d:]
    else:
        gh_n[:] = gh[:, 2 * d:]
    n = np.multiply(r, gh_n, out=n)
    n += gi[:, 2 * d:]
    np.tanh(n, out=n)
    out = np.subtract(h, n, out=out)
    out *= z
    out += n
    return out
