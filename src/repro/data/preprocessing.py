"""Preprocessing: k-core filtering and id remapping.

The paper (Sec. IV-A1) filters out sequences shorter than 5 items and items
interacted with fewer than 5 times, applied iteratively until a fixed point
(the standard "5-core" protocol).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .dataset import InteractionDataset


def k_core_filter(dataset: InteractionDataset, min_seq_len: int = 5,
                  min_item_freq: int = 5) -> InteractionDataset:
    """Iteratively drop short sequences and infrequent items.

    Returns a new :class:`InteractionDataset` with densely remapped ids
    (users and items renumbered from 1, preserving relative order).
    """
    sequences = {u: list(seq) for u, seq in enumerate(dataset.sequences) if seq}
    while True:
        # Drop infrequent items.
        freq: Dict[int, int] = {}
        for seq in sequences.values():
            for item in seq:
                freq[item] = freq.get(item, 0) + 1
        keep_items = {item for item, count in freq.items()
                      if count >= min_item_freq}
        changed = False
        for u in list(sequences):
            filtered = [item for item in sequences[u] if item in keep_items]
            if len(filtered) != len(sequences[u]):
                changed = True
            if len(filtered) < min_seq_len:
                del sequences[u]
                changed = True
            else:
                sequences[u] = filtered
        if not changed:
            break

    return remap_ids(dataset.name, sequences,
                     metadata=dict(dataset.metadata,
                                   k_core=(min_seq_len, min_item_freq)))


def remap_ids(name: str, sequences: Dict[int, List[int]],
              metadata: Dict[str, object] | None = None) -> InteractionDataset:
    """Renumber users/items contiguously from 1 and build a dataset.

    ``sequences`` maps original user ids to item-id lists; empty sequences
    are dropped.
    """
    users = sorted(u for u, seq in sequences.items() if seq)
    item_ids = sorted({item for u in users for item in sequences[u]})
    user_map = {orig: new for new, orig in enumerate(users, start=1)}
    item_map = {orig: new for new, orig in enumerate(item_ids, start=1)}
    remapped: List[List[int]] = [[] for _ in range(len(users) + 1)]
    for orig_user in users:
        remapped[user_map[orig_user]] = [item_map[i] for i in sequences[orig_user]]
    meta = dict(metadata or {})
    meta["user_id_map_size"] = len(user_map)
    meta["item_id_map_size"] = len(item_map)
    return InteractionDataset(
        name=name,
        num_users=len(users),
        num_items=len(item_ids),
        sequences=remapped,
        metadata=meta,
    )


def popularity_split(dataset: InteractionDataset,
                     head_fraction: float = 0.2) -> Tuple[np.ndarray, np.ndarray]:
    """Split item ids into popular "head" and long-tail sets.

    The paper follows the 20/80 principle (Sec. IV-A3) and restricts
    incompatible-relation construction to popular items.  Returns
    ``(popular_ids, tail_ids)`` sorted by descending popularity.
    """
    return split_by_count(dataset.item_popularity(), head_fraction)


def split_by_count(counts: np.ndarray, head_fraction: float = 0.2
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`popularity_split` over per-item counts (entry 0 is padding)."""
    if not 0.0 < head_fraction <= 1.0:
        raise ValueError("head_fraction must be in (0, 1]")
    items = np.argsort(-counts[1:]) + 1  # descending popularity, ids
    cut = max(1, int(round(head_fraction * (counts.shape[0] - 1))))
    return items[:cut].copy(), items[cut:].copy()
