"""GRU4Rec (Hidasi et al., 2016): GRU-based session recommendation."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import GRU, Dropout, Linear, Tensor
from .base import SequentialRecommender


class GRU4Rec(SequentialRecommender):
    """A GRU encoder; the hidden state at the last valid position is the
    sequence representation.

    The original ranks with pairwise losses; following the unified protocol
    of the paper's comparison (RecBole-style), we train it with full
    softmax cross-entropy like every other backbone.
    """

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 num_layers: int = 1, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(num_items, dim, max_len, rng)
        self.layers = [GRU(dim, dim, rng=self.rng) for _ in range(num_layers)]
        self.dropout = Dropout(dropout, rng=self.rng)
        self.output_proj = Linear(dim, dim, rng=self.rng)

    def encode_states(self, states: Tensor, mask: np.ndarray) -> Tensor:
        hidden = self.dropout(states)
        *lower, last = self.layers
        for gru in lower:
            hidden, _ = gru(hidden, mask=mask)
        # The last layer reads each row's state at ``last_state``'s
        # position straight from its recurrence.
        return self.output_proj(last(hidden, mask=mask, readout=True))
