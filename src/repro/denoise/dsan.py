"""DSAN (Yuan et al., 2021): dual sparse attention network.

Explicit denoising via a *virtual target item*: a learnable query
attends over the sequence with **sparsemax** instead of softmax, so
irrelevant (noisy) items receive exactly zero attention and are thereby
excluded from the sequence representation — an explicit keep/drop
decision readable from the attention support.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.batching import Batch
from ..data.dataset import PAD_ID
from ..nn import (Dropout, Embedding, Linear, PositionalEmbedding, Tensor,
                  no_grad, sparsemax)
from ..nn import functional as F
from ..nn.module import Parameter
from .base import SequenceDenoiser
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


class DSAN(SequenceDenoiser):
    """Dual (self + virtual-target) sparse attention recommender."""

    explicit = True

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 dropout: float = 0.1,
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
        # Self-attention stage (dense) refines item representations.
        self.self_q = Linear(dim, dim, bias=False, rng=self.rng)
        self.self_k = Linear(dim, dim, bias=False, rng=self.rng)
        self.self_v = Linear(dim, dim, bias=False, rng=self.rng)
        # Virtual target query (the "target embedding" of the paper).
        self.virtual_target = Parameter(
            self.rng.normal(0.0, 0.1, size=(dim,)))
        self.target_proj = Linear(dim, dim, bias=False, rng=self.rng)
        self.output_proj = Linear(2 * dim, dim, rng=self.rng)
        self.dropout = Dropout(dropout, rng=self.rng)

    # ------------------------------------------------------------------
    def _attend(self, items: np.ndarray, mask: np.ndarray) -> tuple:
        """Return (sequence representation, sparse attention weights)."""
        x = self.item_embedding(items) + self.position_embedding(items.shape[1])
        x = self.dropout(x)
        # Dense self-attention refinement.
        q, k, v = self.self_q(x), self.self_k(x), self.self_v(x)
        scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.dim))
        attn_mask = ~np.asarray(mask, bool)[:, None, :]
        scores = scores.masked_fill(
            np.broadcast_to(attn_mask, scores.shape), NEG_INF)
        refined = F.softmax(scores, axis=-1) @ v + x
        # Sparse virtual-target attention: decides which items survive.
        target = self.target_proj(
            self.virtual_target.reshape(1, self.dim))  # (1, d)
        energy = (refined @ target.transpose()).squeeze(-1)  # (B, L)
        energy = energy.masked_fill(~np.asarray(mask, bool), NEG_INF)
        weights = sparsemax(energy)  # exact zeros at dropped items
        rep = (refined * weights.expand_dims(-1)).sum(axis=1)
        last = refined[:, -1, :]
        out = self.output_proj(Tensor.concat([rep, last], axis=1))
        return out, weights

    def forward(self, items: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        rep, _ = self._attend(items, mask)
        logits = rep @ self.item_embedding.weight.transpose()
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, PAD_ID] = True
        return logits.masked_fill(pad, NEG_INF)

    def loss(self, batch: Batch) -> Tensor:
        logits = self.forward(batch.items, batch.mask)
        return F.cross_entropy(logits, batch.targets)

    # ------------------------------------------------------------------
    def keep_mask(self, items: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Items with zero sparse attention are considered dropped."""
        with no_grad():
            _, weights = self._attend(np.asarray(items), mask)
        return (weights.data > 1e-9) & np.asarray(mask, bool)
