"""Functional neural-network operations built on :mod:`repro.nn.tensor`.

Numerically stable softmax/log-softmax, standard losses, and a handful of
activations used throughout the recommenders.  All functions accept and
return :class:`~repro.nn.tensor.Tensor` objects and are differentiable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .tensor import Tensor, consuming, ensure_tensor
from .rng import resolve_rng


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return ensure_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return ensure_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return ensure_tensor(x).tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    x = ensure_tensor(x)
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Fused: the whole forward runs in NumPy and records a *single* graph
    node whose backward is the analytic Jacobian-vector product
    ``p * (g - sum(g * p))`` — no intermediate Tensor allocations.
    """
    x = ensure_tensor(x)
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - inner),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (fused single node)."""
    x = ensure_tensor(x)
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    out_data -= np.log(np.exp(out_data).sum(axis=axis, keepdims=True))

    def backward(grad):
        return (grad - np.exp(out_data) * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Fused with the mask fill: invalid entries get probability (and
    gradient) exactly zero through one graph node.

    Parameters
    ----------
    mask:
        Boolean array broadcastable to ``x.shape``; True marks valid entries.
    """
    x = ensure_tensor(x)
    valid = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    out_data = kernels.masked_softmax(x.data, valid, axis)

    def backward(grad):
        # Softmax JVP; masked entries have out_data == 0 there, except for
        # fully-masked rows (uniform output) where the fill must not leak
        # gradient back into x.
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        g = out_data * (grad - inner)
        return (np.where(valid, g, 0.0),)

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``targets``.

    Fused: forward computes the picked log-probabilities directly and the
    backward is the closed form ``(softmax - onehot) / N`` — one graph
    node instead of the log-softmax/gather/mean composition.

    Parameters
    ----------
    logits:
        Shape ``(N, C)`` unnormalized scores.
    targets:
        Shape ``(N,)`` integer class indices.
    ignore_index:
        Target value whose rows contribute zero loss (used for padding).
    """
    logits = ensure_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
    n = logits.shape[0]
    rows = np.arange(n)
    # One (N, C) buffer: the shifted logits, exponentiated in place, then
    # turned into the gradient in place by the (run-once) backward.
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    picked = shifted[rows, targets]
    exp = np.exp(shifted, out=shifted)
    sumexp = exp.sum(axis=-1, keepdims=True)
    logp_target = picked - np.log(sumexp[:, 0])
    if ignore_index is not None:
        weights = (targets != ignore_index).astype(np.float64)
        weights /= max(weights.sum(), 1.0)
    else:
        weights = np.full(n, 1.0 / n, dtype=np.float64)
    out_data = np.asarray(-(logp_target * weights).sum())

    @consuming
    def backward(grad):
        g = exp
        g /= sumexp                                   # softmax
        g[rows, targets] -= 1.0
        g *= weights[:, None]
        g *= grad
        return (g,)

    return Tensor._make(out_data, (logits,), backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused affine map ``x @ W + b`` recorded as one graph node.

    ``x`` may have any number of leading batch dimensions; ``weight`` is
    ``(in_features, out_features)`` and ``bias``, when given, is
    ``(out_features,)``.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    x_data, w_data = x.data, weight.data
    if bias is not None:
        bias = ensure_tensor(bias)
    out_data = kernels.linear(x_data, w_data,
                              None if bias is None else bias.data)

    def backward(grad):
        g_x = grad @ w_data.T
        if x_data.ndim == 2:
            g_w = x_data.T @ grad
        else:
            leading = list(range(x_data.ndim - 1))
            g_w = np.tensordot(x_data, grad, axes=(leading, leading))
        if bias is None:
            return (g_x, g_w)
        g_b = grad.sum(axis=tuple(range(grad.ndim - 1)))
        return (g_x, g_w, g_b)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean binary cross-entropy from logits (stable formulation)."""
    logits = ensure_tensor(logits)
    targets = Tensor(np.asarray(targets, dtype=np.float64))
    # max(x,0) - x*t + log(1 + exp(-|x|))
    abs_term = ((-logits.abs()).exp() + 1.0).log()
    loss = logits.relu() - logits * targets + abs_term
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float64))
    return loss.mean()


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian personalized ranking loss: -log sigma(pos - neg)."""
    diff = ensure_tensor(pos_scores) - ensure_tensor(neg_scores)
    return -(diff.sigmoid() + 1e-10).log().mean()


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = ensure_tensor(pred) - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: active only when ``training`` and ``p > 0``.

    Fused into one graph node: it keeps the bool mask of the draw
    ``rng.random(x.shape) >= p`` and writes ``x / (1 - p)`` where the
    mask keeps, zero (of ``x``'s sign) elsewhere; the backward scales the
    gradient through the same mask.  Values, gradients and random draws
    equal those of ``x * Tensor(mask / (1 - p))``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return ensure_tensor(x)
    rng = resolve_rng(rng)
    x = ensure_tensor(x)
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    out_data = np.multiply(x.data, scale)
    out_data *= keep

    def backward(grad):
        g = np.multiply(grad, scale)
        g *= keep
        return (g,)

    return Tensor._make(out_data, (x,), backward)


def l2_regularization(params, coefficient: float) -> Tensor:
    """Sum of squared parameter values scaled by ``coefficient``."""
    total = Tensor(0.0)
    for p in params:
        total = total + (p * p).sum()
    return total * coefficient
