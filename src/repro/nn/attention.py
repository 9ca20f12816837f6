"""Attention primitives: multi-head attention, Transformer encoder, sparsemax.

``MultiHeadAttention`` supports additive masks (causal for SASRec,
padding-only for BERT4Rec).  ``sparsemax`` provides the sparse attention
normalizer used by the DSAN baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .layers import Dropout, FeedForward, LayerNorm, Linear
from .module import Module
from .tensor import Tensor, ensure_tensor


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 attn_mask: Optional[np.ndarray] = None,
                                 scale: Optional[float] = None,
                                 dropout_mask: Optional[np.ndarray] = None
                                 ) -> Tensor:
    """Fused attention: ``softmax(scale * q kᵀ + mask) @ v`` as one node.

    The full QKᵀ → mask → softmax → (dropout) → V chain runs in NumPy and
    records a single backward closure, avoiding the ~10 intermediate graph
    nodes (and their allocations) of the unfused composition.

    Parameters
    ----------
    q, k, v:
        ``(..., L_q, d)``, ``(..., L_k, d)``, ``(..., L_k, d_v)`` tensors.
    attn_mask:
        Boolean array broadcastable to ``(..., L_q, L_k)``; True marks
        allowed positions.
    scale:
        Score multiplier; defaults to ``1/sqrt(d)``.
    dropout_mask:
        Optional pre-scaled inverted-dropout multiplier for the attention
        weights (plain array, already divided by the keep probability).
    """
    q, k, v = map(ensure_tensor, (q, k, v))
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    q_data, k_data, v_data = q.data, k.data, v.data
    blocked = (None if attn_mask is None
               else ~np.asarray(attn_mask, dtype=bool))
    weights = kernels.attention_weights(q_data, k_data, scale, blocked)
    dropped = weights if dropout_mask is None else weights * dropout_mask
    out_data = dropped @ v_data

    def backward(grad):
        g_dropped = grad @ np.swapaxes(v_data, -1, -2)
        g_v = np.swapaxes(dropped, -1, -2) @ grad
        # g_dropped is freshly allocated, so the softmax JVP can run
        # entirely in place on it: g_scores = w * (g_w - sum(g_w * w)).
        g_w = g_dropped
        if dropout_mask is not None:
            g_w *= dropout_mask
        inner = np.einsum("...ij,...ij->...i", g_w, weights)
        g_w -= inner[..., None]
        g_w *= weights
        if attn_mask is not None:
            # Fully-masked rows produce uniform weights; the mask fill must
            # still block their gradient (as masked_fill does unfused).
            np.copyto(g_w, 0.0, where=blocked)
        g_w *= scale
        g_q = g_w @ k_data
        g_k = np.swapaxes(g_w, -1, -2) @ q_data
        return (g_q, g_k, g_v)

    return Tensor._make(out_data, (q, k, v), backward)


def causal_mask(length: int) -> np.ndarray:
    """Boolean (L, L) mask: True where attention is allowed (j <= i)."""
    return np.tril(np.ones((length, length), dtype=bool))


def padding_mask(valid: np.ndarray) -> np.ndarray:
    """Expand a (B, L) validity mask to (B, 1, L) for key masking."""
    return np.asarray(valid, dtype=bool)[:, None, :]


def sparsemax(x: Tensor, axis: int = -1) -> Tensor:
    """Sparsemax of Martins & Astudillo (2016): sparse softmax alternative.

    Projects each slice onto the probability simplex; many outputs are
    exactly zero, which DSAN exploits to drop noisy items from attention.
    The backward pass distributes gradient only over the support.
    """
    x = ensure_tensor(x)
    if axis != -1:
        raise ValueError("sparsemax currently supports axis=-1 only")
    # Sparsemax is shift-invariant; shift by the max and clip the masked
    # -inf-like fillers so cumulative sums cannot overflow.
    z = x.data - x.data.max(axis=-1, keepdims=True)
    z = np.maximum(z, -1e9)
    k = z.shape[-1]
    z_sorted = np.sort(z, axis=-1)[..., ::-1]
    z_cumsum = np.cumsum(z_sorted, axis=-1)
    ks = np.arange(1, k + 1)
    support = z_sorted * ks > (z_cumsum - 1.0)
    k_z = support.sum(axis=-1, keepdims=True)
    # tau = (sum of top-k_z entries - 1) / k_z
    idx = np.clip(k_z - 1, 0, k - 1)
    tau = (np.take_along_axis(z_cumsum, idx, axis=-1) - 1.0) / k_z
    out_data = np.maximum(z - tau, 0.0)
    support_mask = out_data > 0

    def backward(grad):
        masked = grad * support_mask
        mean_on_support = masked.sum(axis=-1, keepdims=True) / np.maximum(
            support_mask.sum(axis=-1, keepdims=True), 1)
        return ((masked - mean_on_support * support_mask),)

    return Tensor._make(out_data, (x,), backward)


class MultiHeadAttention(Module):
    """Standard scaled dot-product multi-head attention.

    Parameters
    ----------
    dim:
        Model dimension (must be divisible by ``num_heads``).
    attn_mask:
        Passed at call time: boolean array broadcastable to
        ``(B, L_q, L_k)``; True marks allowed positions.
    """

    def __init__(self, dim: int, num_heads: int = 2, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                attn_mask: Optional[np.ndarray] = None) -> Tensor:
        query, key, value = map(ensure_tensor, (query, key, value))
        batch, len_q, _ = query.shape
        len_k = key.shape[1]
        q = self._split_heads(self.q_proj(query), batch, len_q)
        k = self._split_heads(self.k_proj(key), batch, len_k)
        v = self._split_heads(self.v_proj(value), batch, len_k)
        mask = None
        if attn_mask is not None:
            mask = np.asarray(attn_mask, dtype=bool)
            # Broadcast to (B, heads, L_q, L_k)
            while mask.ndim < 4:
                mask = mask[:, None] if mask.ndim == 3 else mask[None]
        dropout_mask = None
        if self.training and self.dropout.p > 0.0:
            p = self.dropout.p
            shape = (batch, self.num_heads, len_q, len_k)
            dropout_mask = ((self.dropout.rng.random(shape) >= p)
                            .astype(np.float64) / (1.0 - p))
        context = scaled_dot_product_attention(
            q, k, v, attn_mask=mask, scale=1.0 / np.sqrt(self.head_dim),
            dropout_mask=dropout_mask)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, len_q, self.dim)
        return self.out_proj(merged)


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer block: MHA + residual, FFN + residual."""

    def __init__(self, dim: int, num_heads: int = 2, ffn_dim: Optional[int] = None,
                 dropout: float = 0.1, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.attention = MultiHeadAttention(dim, num_heads, dropout, rng=rng)
        self.ffn = FeedForward(dim, ffn_dim, dropout, activation, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, attn_mask: Optional[np.ndarray] = None) -> Tensor:
        normed = self.norm1(x)
        x = x + self.dropout(self.attention(normed, normed, normed, attn_mask))
        x = x + self.dropout(self.ffn(self.norm2(x)))
        return x


class TransformerEncoder(Module):
    """A stack of :class:`TransformerEncoderLayer` with a final LayerNorm."""

    def __init__(self, dim: int, num_layers: int = 2, num_heads: int = 2,
                 ffn_dim: Optional[int] = None, dropout: float = 0.1,
                 activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.layers = [
            TransformerEncoderLayer(dim, num_heads, ffn_dim, dropout, activation, rng)
            for _ in range(num_layers)
        ]
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, attn_mask: Optional[np.ndarray] = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, attn_mask)
        return self.final_norm(x)
