"""BERT4Rec (Sun et al., 2019): bidirectional Transformer with a cloze task.

Training masks random positions and reconstructs them (the cloze /
masked-item objective); inference appends a ``[MASK]`` token after the
sequence and predicts the item at that position, which is exactly
next-item prediction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.batching import Batch
from ..data.dataset import PAD_ID
from ..nn import (Dropout, Embedding, PositionalEmbedding, Tensor,
                  TransformerEncoder)
from ..nn import functional as F
from ..nn.kernels import NEG_INF
from .base import SequentialRecommender


class BERT4Rec(SequentialRecommender):
    """Bidirectional Transformer recommender.

    The mask token gets id ``num_items + 1``; the embedding table reserves
    a row for it.
    """

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 num_layers: int = 2, num_heads: int = 2, dropout: float = 0.1,
                 mask_prob: float = 0.2,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(num_items, dim, max_len, rng)
        self.mask_token = num_items + 1
        self.mask_prob = mask_prob
        # Rebuild the embedding with one extra row for [MASK].
        self.item_embedding = Embedding(num_items + 2, dim,
                                        padding_idx=PAD_ID, rng=self.rng)
        capacity = max_len + self.LENGTH_HEADROOM
        self.position_embedding = PositionalEmbedding(capacity, dim, rng=self.rng)
        self.encoder = TransformerEncoder(
            dim, num_layers=num_layers, num_heads=num_heads,
            dropout=dropout, activation="gelu", rng=self.rng)
        self.dropout = Dropout(dropout, rng=self.rng)

    # ------------------------------------------------------------------
    def _run_encoder(self, states: Tensor, mask: np.ndarray) -> Tensor:
        length = states.shape[1]
        x = self.dropout(states + self.position_embedding(length))
        attn = np.asarray(mask, bool)[:, None, :]  # bidirectional, pad-masked
        return self.encoder(x, attn_mask=attn)

    def encode_states(self, states: Tensor, mask: np.ndarray) -> Tensor:
        """Append a [MASK] representation and read out its final state."""
        batch = states.shape[0]
        mask_emb = self.item_embedding(
            np.full((batch, 1), self.mask_token, dtype=np.int64))
        extended = Tensor.concat([states, mask_emb], axis=1)
        ext_mask = np.concatenate(
            [np.asarray(mask, bool), np.ones((batch, 1), dtype=bool)], axis=1)
        hidden = self._run_encoder(extended, ext_mask)
        return hidden[:, -1, :]

    def score(self, seq_repr: Tensor, item_table: Optional[Tensor] = None) -> Tensor:
        logits = super().score(seq_repr, item_table)
        if item_table is None and logits.shape[1] == self.num_items + 2:
            # Never recommend the [MASK] pseudo-item.
            mask = np.zeros(logits.shape, dtype=bool)
            mask[:, self.mask_token] = True
            logits = logits.masked_fill(mask, NEG_INF)
        return logits

    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        """Cloze objective + a next-item term at the appended mask.

        Random valid positions are replaced with [MASK] and reconstructed;
        the appended-mask next-item term keeps training aligned with the
        evaluation readout.
        """
        items = batch.items.copy()
        mask = batch.mask
        drop = (self.rng.random(items.shape) < self.mask_prob) & mask
        # Ensure at least some cloze signal.
        masked_items = np.where(drop, self.mask_token, items)
        hidden = self._run_encoder(self.embed_items(masked_items), mask)
        losses = []
        if drop.any():
            rows, cols = np.nonzero(drop)
            picked = hidden[rows, cols, :]
            logits = self.score(picked)
            losses.append(F.cross_entropy(logits, items[rows, cols]))
        next_logits = self.score(self.encode_states(
            self.embed_items(items), mask))
        losses.append(F.cross_entropy(next_logits, batch.targets))
        total = losses[0]
        for extra in losses[1:]:
            total = total + extra
        return total / len(losses)
