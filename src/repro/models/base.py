"""Shared interface of all sequential recommenders (Sec. II, III-F).

Every backbone implements two levels of the API:

* :meth:`SequentialRecommender.encode_states` — map an item
  *representation* sequence ``(B, L, d)`` plus validity mask to a sequence
  representation ``(B, d)``.  This is the hook SSDRec uses: it feeds the
  denoised embedding sequence ``H_S^-`` directly (Eq. 15).
* :meth:`SequentialRecommender.encode` — convenience path from raw item
  ids (embeds, then calls ``encode_states``).

Scoring is a dot product between the sequence representation and the item
embedding table (full ranking over the item universe, Sec. IV-A1); the
padding item's logit is forced to -inf.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.batching import Batch
from ..data.dataset import PAD_ID
from ..nn import Embedding, Module, Tensor
from ..nn import functional as F
from ..nn.kernels import NEG_INF, last_positions
from ..nn.rng import resolve_rng


class SequentialRecommender(Module):
    """Base class for next-item recommenders.

    Parameters
    ----------
    num_items:
        Number of real items; ids run ``1..num_items`` with 0 as padding.
    dim:
        Embedding/model dimension (paper default 100; we default smaller).
    max_len:
        Longest sequence the model must accept.  Models with positional
        embeddings reserve a little headroom for SSDRec's insertions.
    """

    #: extra positions reserved beyond ``max_len`` (self-augmentation
    #: inserts up to 2 items during training).
    LENGTH_HEADROOM = 4

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        self.rng = resolve_rng(rng)
        self.item_embedding = Embedding(num_items + 1, dim,
                                        padding_idx=PAD_ID, rng=self.rng)

    # ------------------------------------------------------------------
    def embed_items(self, items: np.ndarray) -> Tensor:
        """Embed an id matrix ``(B, L)`` to ``(B, L, d)``."""
        return self.item_embedding(items)

    def encode_states(self, states: Tensor, mask: np.ndarray) -> Tensor:
        """Encode an item representation sequence to ``(B, d)``.

        Subclasses must implement this; ``mask`` is a boolean ``(B, L)``
        array marking real (non-padding) positions.
        """
        raise NotImplementedError

    def encode(self, items: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode raw item ids ``(B, L)`` to ``(B, d)``."""
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        return self.encode_states(self.embed_items(items), mask)

    # ------------------------------------------------------------------
    def score(self, seq_repr: Tensor,
              item_table: Optional[Tensor] = None) -> Tensor:
        """Score every item: ``(B, d) -> (B, num_items + 1)`` logits."""
        table = item_table if item_table is not None else self.item_embedding.weight
        logits = seq_repr @ table.transpose()
        pad_mask = np.zeros(logits.shape, dtype=bool)
        pad_mask[:, PAD_ID] = True
        return logits.masked_fill(pad_mask, NEG_INF)

    def forward(self, items: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        """Full-ranking logits for a batch of id sequences."""
        return self.score(self.encode(items, mask))

    def loss(self, batch: Batch) -> Tensor:
        """Training loss: cross-entropy against the next item."""
        logits = self.forward(batch.items, batch.mask)
        return F.cross_entropy(logits, batch.targets)

    def sampled_loss(self, batch: Batch, num_negatives: int = 128) -> Tensor:
        """Sampled cross-entropy: in-batch positives + shared uniform
        negatives.

        :meth:`loss` scores the full item universe — O(V) work and
        memory per example, prohibitive for 10^5..10^6-item catalogs.
        Here each sequence is scored only against the batch's own
        targets (column ``i`` is row ``i``'s positive; the other rows'
        targets act as popularity-weighted in-batch negatives) plus
        ``num_negatives`` uniform negatives shared across the batch.
        Duplicate occurrences of a row's target among the other columns
        are masked to -inf so the correct class is never penalized
        against itself.  Negative draws come from the model's seeded
        ``rng``, so runs stay reproducible and crash-resumable.
        """
        reprs = self.encode(batch.items, batch.mask)
        targets = np.asarray(batch.targets, dtype=np.int64)
        rows = targets.shape[0]
        negatives = self.rng.integers(1, self.num_items + 1,
                                      size=num_negatives)
        candidates = np.concatenate([targets, negatives])
        table = self.item_embedding(candidates)
        logits = reprs @ table.transpose()
        duplicate = candidates[None, :] == targets[:, None]
        duplicate[np.arange(rows), np.arange(rows)] = False
        return F.cross_entropy(logits.masked_fill(duplicate, NEG_INF),
                               np.arange(rows))

    # ------------------------------------------------------------------
    @staticmethod
    def last_state(states: Tensor, mask: np.ndarray) -> Tensor:
        """Representation at each sequence's last valid position.

        With left padding the last column is always valid, but this helper
        stays correct for arbitrary masks.
        """
        return states[np.arange(states.shape[0]), last_positions(mask), :]

    @staticmethod
    def masked_mean(states: Tensor, mask: np.ndarray) -> Tensor:
        """Mean over valid positions, ``(B, L, d) -> (B, d)``."""
        mask = np.asarray(mask, dtype=np.float64)
        weights = Tensor(mask[:, :, None])
        counts = Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        return (states * weights).sum(axis=1) / counts
