"""Batching: the padded batch type, padding, negative sampling.

Sequences are left-padded with ``PAD_ID`` (0) so the most recent item is
always at the last position, matching the convention of SASRec-style
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import PAD_ID


@dataclass
class Batch:
    """A padded mini-batch of sequence examples.

    Attributes
    ----------
    users:
        (B,) user ids.
    items:
        (B, L) left-padded item ids.
    mask:
        (B, L) boolean validity mask (True at real items).
    lengths:
        (B,) true sequence lengths.
    targets:
        (B,) next-item ids.
    """

    users: np.ndarray
    items: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    targets: np.ndarray

    @property
    def batch_size(self) -> int:
        return len(self.users)

    @property
    def max_len(self) -> int:
        return self.items.shape[1]


def pad_sequences(sequences: Sequence[Sequence[int]],
                  max_len: Optional[int] = None) -> tuple:
    """Left-pad variable-length sequences into a dense id matrix.

    Returns ``(items, mask, lengths)``; sequences longer than ``max_len``
    keep their most recent items.
    """
    if not sequences:
        raise ValueError("cannot pad an empty list of sequences")
    counts = [min(len(s), max_len) if max_len else len(s)
              for s in sequences]
    lengths = np.array(counts, dtype=np.int64)
    width = max_len or int(lengths.max())
    items = np.full((len(sequences), width), PAD_ID, dtype=np.int64)
    for row, (seq, count) in enumerate(zip(sequences, counts)):
        if count:
            items[row, width - count:] = seq[-count:]
    mask = items != PAD_ID
    return items, mask, lengths


class NegativeSampler:
    """Uniform negative sampling excluding each example's positive items."""

    def __init__(self, num_items: int, seed: int = 0):
        if num_items < 2:
            raise ValueError("need at least 2 items to sample negatives")
        self.num_items = num_items
        self._rng = np.random.default_rng(seed)

    def sample(self, positives: Sequence[int], count: int = 1) -> np.ndarray:
        """Draw ``count`` item ids not present in ``positives``."""
        forbidden = set(int(p) for p in positives)
        if len(forbidden) >= self.num_items:
            raise ValueError("no negatives available: all items are positive")
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            draw = self._rng.integers(1, self.num_items + 1,
                                      size=(count - filled) * 2)
            for candidate in draw:
                if candidate not in forbidden:
                    out[filled] = candidate
                    filled += 1
                    if filled == count:
                        break
        return out

    def sample_batch(self, targets: np.ndarray) -> np.ndarray:
        """One negative per target, vectorized (negatives != targets)."""
        targets = np.asarray(targets)
        neg = self._rng.integers(1, self.num_items + 1, size=len(targets))
        clash = neg == targets
        while clash.any():
            neg[clash] = self._rng.integers(1, self.num_items + 1,
                                            size=int(clash.sum()))
            clash = neg == targets
        return neg
