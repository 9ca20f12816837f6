"""NARM (Li et al., 2017): neural attentive session-based recommendation.

A GRU encoder feeds two components: a *global* representation (the final
hidden state summarizing the whole sequence) and a *local* representation
(an attention-weighted sum of hidden states with the final state as the
query).  Their concatenation is projected back to the model dimension.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRU, Dropout, Linear, Tensor
from ..nn import functional as F
from .base import SequentialRecommender


class NARM(SequentialRecommender):
    """Hybrid global/local attentive encoder."""

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(num_items, dim, max_len, rng)
        self.gru = GRU(dim, dim, rng=self.rng)
        self.attn_query = Linear(dim, dim, bias=False, rng=self.rng)
        self.attn_key = Linear(dim, dim, bias=False, rng=self.rng)
        self.attn_energy = Linear(dim, 1, bias=False, rng=self.rng)
        self.output_proj = Linear(2 * dim, dim, bias=False, rng=self.rng)
        self.dropout = Dropout(dropout, rng=self.rng)

    def encode_states(self, states: Tensor, mask: np.ndarray) -> Tensor:
        hidden, _ = self.gru(self.dropout(states), mask=mask)
        final = self.last_state(hidden, mask)  # (B, d) global encoder
        # Additive attention: energy_t = v^T sigmoid(W_q h_final + W_k h_t)
        query = self.attn_query(final).expand_dims(1)  # (B, 1, d)
        keys = self.attn_key(hidden)  # (B, L, d)
        energy = self.attn_energy((query + keys).sigmoid()).squeeze(-1)  # (B, L)
        weights = F.masked_softmax(energy, np.asarray(mask, bool), axis=-1)
        local = (hidden * weights.expand_dims(-1)).sum(axis=1)  # (B, d)
        combined = Tensor.concat([final, local], axis=1)
        return self.output_proj(self.dropout(combined))
