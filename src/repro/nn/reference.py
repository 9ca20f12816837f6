"""Unfused reference compositions of the fused substrate kernels.

Each function here reproduces the *pre-fusion* implementation of a hot op
as a composition of primitive :class:`~repro.nn.tensor.Tensor` operations.
They exist for two reasons:

* **parity testing** — the fused kernels in :mod:`repro.nn.functional`,
  :mod:`repro.nn.attention`, and :mod:`repro.nn.rnn` must produce the same
  values and gradients as these compositions (see
  ``tests/nn/test_fused_ops.py``);
* **benchmarking** — ``scripts/perf_smoke.py`` and
  ``benchmarks/bench_substrate_micro.py`` time fused vs. unfused to track
  the speedup across PRs (``BENCH_substrate.json``).

They are intentionally *not* used by any model code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, ensure_tensor

_NEG_INF = np.finfo(np.float64).min / 4


def softmax_unfused(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax as the shift/exp/sum/divide Tensor composition."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax_unfused(x: Tensor, axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_softmax_unfused(x: Tensor, mask: np.ndarray,
                           axis: int = -1) -> Tensor:
    x = ensure_tensor(x)
    filled = x.masked_fill(~np.asarray(mask, dtype=bool), _NEG_INF)
    return softmax_unfused(filled, axis=axis)


def cross_entropy_unfused(logits: Tensor, targets: np.ndarray,
                          ignore_index: Optional[int] = None) -> Tensor:
    logits = ensure_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    logp = log_softmax_unfused(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    if ignore_index is not None:
        keep = (targets != ignore_index).astype(np.float64)
        denom = max(keep.sum(), 1.0)
        return -(picked * Tensor(keep)).sum() / denom
    return -picked.mean()


def linear_unfused(x: Tensor, weight: Tensor,
                   bias: Optional[Tensor] = None) -> Tensor:
    out = ensure_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def attention_unfused(q: Tensor, k: Tensor, v: Tensor,
                      attn_mask: Optional[np.ndarray] = None,
                      scale: Optional[float] = None,
                      dropout_mask: Optional[np.ndarray] = None) -> Tensor:
    """Scaled dot-product attention as the multi-node composition."""
    q, k, v = map(ensure_tensor, (q, k, v))
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if attn_mask is not None:
        allowed = np.broadcast_to(np.asarray(attn_mask, dtype=bool),
                                  scores.shape)
        scores = scores.masked_fill(~allowed, _NEG_INF)
    weights = softmax_unfused(scores, axis=-1)
    if dropout_mask is not None:
        weights = weights * Tensor(dropout_mask)
    return weights @ v


def lstm_step_unfused(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor,
                      w_hh: Tensor, bias: Tensor, hidden_dim: int):
    """One LSTM step as separate per-gate Tensor ops; returns ``(h, c)``."""
    d = hidden_dim
    gates = ensure_tensor(x) @ w_ih + ensure_tensor(h) @ w_hh + bias
    i = gates[:, :d].sigmoid()
    f = gates[:, d:2 * d].sigmoid()
    g = gates[:, 2 * d:3 * d].tanh()
    o = gates[:, 3 * d:].sigmoid()
    c_new = f * ensure_tensor(c) + i * g
    h_new = o * c_new.tanh()
    return h_new, c_new


def gru_step_unfused(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
                     b_ih: Tensor, b_hh: Tensor, hidden_dim: int) -> Tensor:
    """One GRU step as separate per-gate Tensor ops."""
    d = hidden_dim
    h = ensure_tensor(h)
    gi = ensure_tensor(x) @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    z = (gi[:, :d] + gh[:, :d]).sigmoid()
    r = (gi[:, d:2 * d] + gh[:, d:2 * d]).sigmoid()
    n = (gi[:, 2 * d:] + r * gh[:, 2 * d:]).tanh()
    return (1.0 - z) * n + z * h


def dropout_unfused(x: Tensor, p: float,
                    rng: np.random.Generator) -> Tensor:
    """Training-mode inverted dropout as the float-mask product."""
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return ensure_tensor(x) * Tensor(mask)


def layer_norm_unfused(x: Tensor, gamma: Tensor, beta: Tensor,
                       eps: float = 1e-8) -> Tensor:
    x = ensure_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) / (var + eps).sqrt()
    return normed * gamma + beta


def sparsemax_unfused(x: Tensor, axis: int = -1) -> Tensor:
    """Sparsemax as a Tensor composition over a data-computed support.

    The support set and its size are discrete (locally constant in the
    input), so they are computed in NumPy; the projection itself —
    ``(z - tau) * support`` with ``tau = (sum of z on the support - 1) /
    |support|`` — is expressed in differentiable Tensor ops, which yields
    exactly the sparsemax Jacobian ``S (I - 1/|S|)`` on the support.
    """
    x = ensure_tensor(x)
    if axis != -1:
        raise ValueError("sparsemax currently supports axis=-1 only")
    z_data = np.maximum(x.data - x.data.max(axis=-1, keepdims=True), -1e9)
    k = z_data.shape[-1]
    z_sorted = np.sort(z_data, axis=-1)[..., ::-1]
    z_cumsum = np.cumsum(z_sorted, axis=-1)
    ks = np.arange(1, k + 1)
    support_sizes = (z_sorted * ks > (z_cumsum - 1.0)).sum(
        axis=-1, keepdims=True)
    idx = np.clip(support_sizes - 1, 0, k - 1)
    tau_data = (np.take_along_axis(z_cumsum, idx, axis=-1)
                - 1.0) / support_sizes
    support = (z_data - tau_data > 0).astype(z_data.dtype)
    z = x - x.data.max(axis=-1, keepdims=True)  # shift is a constant
    on_support = z * support
    tau = (on_support.sum(axis=-1, keepdims=True) - 1.0) \
        * (1.0 / support_sizes)
    return (z - tau) * support

