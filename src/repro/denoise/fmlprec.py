"""FMLP-Rec (Zhou et al., 2022): filter-enhanced MLP, implicit denoising.

The core block multiplies the sequence's frequency-domain representation
by learnable complex filter weights — equivalently, a circular convolution
along the time axis with a learnable full-length kernel — acting as a
learnable low/band-pass filter that attenuates noisy high-frequency
components at the *representation* level (no items are removed).

We implement the filter as a circular convolution with an explicit custom
gradient: the operation is linear in both the input and the kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.batching import Batch
from ..data.dataset import PAD_ID
from ..nn import (Dropout, Embedding, FeedForward, LayerNorm, Module,
                  PositionalEmbedding, Tensor)
from ..nn import functional as F
from ..nn.module import Parameter
from ..nn.tensor import ensure_tensor
from .base import SequenceDenoiser
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


def circular_filter(x: Tensor, kernel: Tensor) -> Tensor:
    """Circular convolution along axis 1: ``y[b,t,d] = Σ_s x[b,s,d]·k[(t-s)%L,d]``.

    This is the time-domain equivalent of FMLP's FFT → elementwise complex
    multiply → inverse FFT.  ``kernel`` has shape ``(L, d)``.
    """
    x = ensure_tensor(x)
    kernel = ensure_tensor(kernel)
    batch, length, dim = x.shape
    if kernel.shape != (length, dim):
        raise ValueError(
            f"kernel shape {kernel.shape} != (length, dim) = {(length, dim)}")
    # index[t, s] = (t - s) mod L
    t_idx = np.arange(length)[:, None]
    s_idx = np.arange(length)[None, :]
    circ = (t_idx - s_idx) % length  # (L, L)
    k_data = kernel.data[circ]  # (L, L, d): k[(t-s)%L, d]
    out_data = np.einsum("bsd,tsd->btd", x.data, k_data)
    x_data = x.data

    def backward(grad):
        # dL/dx[b,s,d] = Σ_t grad[b,t,d] k[(t-s)%L, d]
        gx = np.einsum("btd,tsd->bsd", grad, k_data)
        # dL/dk[m,d] = Σ_{b,t} grad[b,t,d] x[b,(t-m)%L,d]
        m_idx = np.arange(length)[:, None]
        src = (t_idx.T - m_idx) % length  # (L_m, L_t): (t - m) mod L
        # gather x at (b, (t-m)%L, d): shape (m, b, t, d) is too big; use
        # einsum over a permuted view instead.
        gk = np.empty((length, dim))
        for m in range(length):
            gk[m] = np.einsum("btd,btd->d", grad, x_data[:, src[m], :])
        return gx, gk

    return Tensor._make(out_data, (x, kernel), backward)


class FilterBlock(Module):
    """One FMLP block: circular filter + residual/LayerNorm + FFN."""

    def __init__(self, length: int, dim: int, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        # Near-identity init: delta kernel plus small noise, so early
        # training behaves like a plain MLP block.
        kernel = rng.normal(0.0, 0.02, size=(length, dim))
        kernel[0] += 1.0
        self.kernel = Parameter(kernel)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, dropout=dropout, activation="gelu", rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        filtered = circular_filter(x, self.kernel)
        x = self.norm1(x + self.dropout(filtered))
        x = self.norm2(x + self.dropout(self.ffn(x)))
        return x


class FMLPRec(SequenceDenoiser):
    """Filter-enhanced MLP recommender (implicit sequence denoising)."""

    explicit = False

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 num_blocks: int = 2, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        self.rng = resolve_rng(rng)
        self.item_embedding = Embedding(num_items + 1, dim,
                                        padding_idx=PAD_ID, rng=self.rng)
        self.position_embedding = PositionalEmbedding(max_len + 4, dim,
                                                      rng=self.rng)
        self.blocks = [FilterBlock(max_len, dim, dropout, rng=self.rng)
                       for _ in range(num_blocks)]
        self.dropout = Dropout(dropout, rng=self.rng)

    def forward(self, items: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        items, mask = self._fit(items, mask)
        x = self.item_embedding(items) + self.position_embedding(items.shape[1])
        x = self.dropout(x)
        for block in self.blocks:
            x = block(x)
        last = x[:, -1, :]  # left padding keeps the newest item last
        logits = last @ self.item_embedding.weight.transpose()
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, PAD_ID] = True
        return logits.masked_fill(pad, NEG_INF)

    def _fit(self, items: np.ndarray, mask: np.ndarray) -> tuple:
        """Pad/truncate to the fixed filter length."""
        length = items.shape[1]
        if length == self.max_len:
            return items, mask
        if length > self.max_len:
            return items[:, -self.max_len:], mask[:, -self.max_len:]
        pad_w = self.max_len - length
        items = np.pad(items, ((0, 0), (pad_w, 0)), constant_values=PAD_ID)
        mask = np.pad(mask, ((0, 0), (pad_w, 0)), constant_values=False)
        return items, mask

    def loss(self, batch: Batch) -> Tensor:
        logits = self.forward(batch.items, batch.mask)
        return F.cross_entropy(logits, batch.targets)
