"""STEAM (Lin et al., WWW 2023): self-correcting sequential recommender.

STEAM trains an item-wise *corrector* with self-supervision: raw sequences
are randomly corrupted (items deleted, random items inserted), and the
corrector — a bidirectional Transformer — learns to label each position
``keep`` / ``delete`` / ``insert`` and to reconstruct the original
sequence.  At inference the corrector is applied to the raw sequence; the
positions it labels ``delete`` are removed (explicit denoising) before the
recommender encodes the corrected sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.batching import Batch
from ..data.dataset import PAD_ID
from ..nn import (Dropout, Embedding, Linear, PositionalEmbedding, Tensor,
                  TransformerEncoder, no_grad)
from ..nn import functional as F
from .base import SequenceDenoiser
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


OP_KEEP, OP_DELETE, OP_INSERT = 0, 1, 2


class STEAM(SequenceDenoiser):
    """Corrector + recommender with insert/delete self-supervision."""

    explicit = True

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 num_layers: int = 2, num_heads: int = 2,
                 corrupt_delete: float = 0.1, corrupt_insert: float = 0.1,
                 correction_weight: float = 0.5, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        self.corrupt_delete = corrupt_delete
        self.corrupt_insert = corrupt_insert
        self.correction_weight = correction_weight
        self.rng = resolve_rng(rng)
        self.item_embedding = Embedding(num_items + 1, dim,
                                        padding_idx=PAD_ID, rng=self.rng)
        self.position_embedding = PositionalEmbedding(max_len + 8, dim,
                                                      rng=self.rng)
        self.encoder = TransformerEncoder(dim, num_layers=num_layers,
                                          num_heads=num_heads,
                                          dropout=dropout, rng=self.rng)
        self.op_head = Linear(dim, 3, rng=self.rng)        # keep/delete/insert
        self.insert_head = Linear(dim, dim, rng=self.rng)  # what to insert
        self.dropout = Dropout(dropout, rng=self.rng)

    # ------------------------------------------------------------------
    def _encode(self, items: np.ndarray, mask: np.ndarray) -> Tensor:
        x = self.item_embedding(items) + self.position_embedding(items.shape[1])
        x = self.dropout(x)
        attn = np.asarray(mask, bool)[:, None, :]
        return self.encoder(x, attn_mask=attn)

    def forward(self, items: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        corrected_mask = self._corrected_mask(items, mask)
        hidden = self._encode(items, mask)
        rep = self._readout(hidden, corrected_mask)
        logits = rep @ self.item_embedding.weight.transpose()
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, PAD_ID] = True
        return logits.masked_fill(pad, NEG_INF)

    def _readout(self, hidden: Tensor, mask: np.ndarray) -> Tensor:
        """Mean over kept positions (robust to delete decisions)."""
        weights = np.asarray(mask, np.float64)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        pooled = (hidden * Tensor(weights[:, :, None])).sum(axis=1) / Tensor(denom)
        last = hidden[:, -1, :]
        return pooled + last

    def _corrected_mask(self, items: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Positions the corrector keeps (applies delete decisions)."""
        with no_grad():
            hidden = self._encode(items, mask)
            ops = self.op_head(hidden).data.argmax(axis=-1)
        keep = np.asarray(mask, bool) & (ops != OP_DELETE)
        empty = ~keep.any(axis=1)
        if empty.any():
            keep[empty] = np.asarray(mask, bool)[empty]
        return keep

    # ------------------------------------------------------------------
    def _corrupt(self, items: np.ndarray, mask: np.ndarray) -> tuple:
        """Randomly insert/delete; return corrupted batch + op labels.

        Labels follow the corrupted sequence: inserted random items get
        ``OP_DELETE`` (the corrector should remove them), surviving raw
        items get ``OP_KEEP``, and raw items *preceding a deletion* get
        ``OP_INSERT`` (something should be re-inserted after them).
        """
        batch, width = items.shape
        out_items = np.full((batch, width), PAD_ID, dtype=np.int64)
        out_labels = np.full((batch, width), -1, dtype=np.int64)
        for row in range(batch):
            seq = items[row][mask[row]].tolist()
            corrupted: list[int] = []
            labels: list[int] = []
            for item in seq:
                if self.rng.random() < self.corrupt_delete and len(seq) > 2:
                    # Simulate a missing item: mark the previous kept item.
                    if labels:
                        labels[-1] = OP_INSERT
                    continue
                corrupted.append(item)
                labels.append(OP_KEEP)
                if self.rng.random() < self.corrupt_insert:
                    corrupted.append(int(self.rng.integers(1, self.num_items + 1)))
                    labels.append(OP_DELETE)
            corrupted, labels = corrupted[-width:], labels[-width:]
            if not corrupted:
                corrupted, labels = seq[-width:], [OP_KEEP] * min(len(seq), width)
            offset = width - len(corrupted)
            out_items[row, offset:] = corrupted
            out_labels[row, offset:] = labels
        return out_items, out_items != PAD_ID, out_labels

    def loss(self, batch: Batch) -> Tensor:
        # Correction objective on corrupted sequences.
        corrupted, corrupted_mask, labels = self._corrupt(batch.items, batch.mask)
        hidden = self._encode(corrupted, corrupted_mask)
        op_logits = self.op_head(hidden)  # (B, L, 3)
        flat_logits = op_logits.reshape(-1, 3)
        flat_labels = labels.reshape(-1)
        valid = flat_labels >= 0
        correction = F.cross_entropy(flat_logits[np.nonzero(valid)[0]],
                                     flat_labels[valid])
        # Recommendation objective on the raw sequence.
        raw_hidden = self._encode(batch.items, batch.mask)
        rep = self._readout(raw_hidden, batch.mask)
        logits = rep @ self.item_embedding.weight.transpose()
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, PAD_ID] = True
        rec = F.cross_entropy(logits.masked_fill(pad, NEG_INF), batch.targets)
        return rec + self.correction_weight * correction

    # ------------------------------------------------------------------
    def keep_mask(self, items: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self._corrected_mask(np.asarray(items), np.asarray(mask, bool))
