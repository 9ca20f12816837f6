"""Dataset containers for user-item interaction data.

* :class:`InteractionDataset` — raw (user, item, timestamp) interactions
  with derived per-user temporal sequences and the interaction matrix ``A``
  (Sec. II, "User-Item Interaction Data").
* :class:`SequenceExample` — one (history, next item) example of the
  leave-one-out split (:func:`repro.data.stream.leave_one_out_split`).

:class:`SequenceView` is the structural protocol both this in-memory
container and the memory-mapped :class:`repro.data.store.InteractionStore`
satisfy, so the split and loader (:mod:`repro.data.stream`), the model
registry, and the experiment runners can treat them interchangeably.

Item and user ids are contiguous integers starting at 1; id 0 is reserved
for padding everywhere in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (Dict, Iterator, List, Protocol, Sequence, Tuple,
                    runtime_checkable)

import numpy as np
from scipy import sparse

PAD_ID = 0

#: Default write-buffer / scan-window size in events (~24 MB resident
#: across the three int64/uint8 event columns of a store window).
DEFAULT_CHUNK_EVENTS = 1 << 20


@runtime_checkable
class SequenceView(Protocol):
    """Minimal read surface shared by in-memory and mmap datasets.

    ``sequence(user)`` returns the user's temporally ordered item ids as
    a 1-D int64 array (a zero-copy view for the mmap store) and
    ``seq_lengths()`` returns per-user lengths indexed by user id (entry
    0, the padding user, is always 0).  Everything downstream of the
    data plane — splitting, loading, model construction — should only
    assume this surface, never ``sequences`` the Python list.
    ``user_items(u0, u1)`` returns users ``u0..u1-1``'s sequences
    concatenated in user order (one flat int64 array, the CSR item
    column of that window), so bulk passes need not slice user by user.
    ``resident`` says whether every sequence is already in RAM; the
    loader shuffles resident data as one window.
    """

    resident: bool
    name: str
    num_users: int
    num_items: int
    metadata: Dict[str, object]

    @property
    def num_interactions(self) -> int: ...

    def sequence(self, user: int) -> np.ndarray: ...

    def seq_lengths(self) -> np.ndarray: ...

    def user_items(self, u0: int, u1: int) -> np.ndarray: ...

    def statistics(self) -> Dict[str, float]: ...


@dataclass
class InteractionDataset:
    """Raw sequential interaction data.

    Attributes
    ----------
    name:
        Human-readable dataset name (e.g. ``"ml-100k-synth"``).
    num_users, num_items:
        Counts excluding the padding id; valid ids are ``1..num_users`` and
        ``1..num_items``.
    sequences:
        ``sequences[u]`` is user ``u``'s temporally ordered item list.
        Indexed by user id (entry 0 is an empty placeholder).
    """

    name: str
    num_users: int
    num_items: int
    sequences: List[List[int]]
    metadata: Dict[str, object] = field(default_factory=dict)

    #: Every sequence is in RAM, so the loader shuffles all examples at once.
    resident = True

    def __post_init__(self):
        if len(self.sequences) != self.num_users + 1:
            raise ValueError(
                f"sequences must have num_users+1 entries "
                f"({self.num_users + 1}), got {len(self.sequences)}")
        # Vectorized range check: one C-speed pass over the flattened
        # events instead of a per-interaction interpreter loop (which
        # dominated construction at scale).
        lengths = np.fromiter((len(s) for s in self.sequences),
                              dtype=np.int64, count=len(self.sequences))
        total = int(lengths.sum())
        if total == 0:
            return
        flat = np.fromiter((item for seq in self.sequences for item in seq),
                           dtype=np.int64, count=total)
        bad = (flat < 1) | (flat > self.num_items)
        if bad.any():
            offender = int(np.flatnonzero(bad)[0])
            user = int(np.searchsorted(np.cumsum(lengths), offender,
                                       side="right"))
            raise ValueError(
                f"user {user} has out-of-range item {int(flat[offender])} "
                f"(num_items={self.num_items})")

    # ------------------------------------------------------------------
    # SequenceView protocol surface
    def sequence(self, user: int) -> np.ndarray:
        """User ``user``'s item ids as a 1-D int64 array."""
        return np.asarray(self.sequences[user], dtype=np.int64)

    def seq_lengths(self) -> np.ndarray:
        """Per-user sequence length, indexed by user id (entry 0 is 0)."""
        return np.fromiter((len(s) for s in self.sequences),
                           dtype=np.int64, count=len(self.sequences))

    def user_items(self, u0: int, u1: int) -> np.ndarray:
        """Users ``u0..u1-1``'s items concatenated, as one int64 array."""
        window = self.sequences[u0:u1]
        return np.fromiter(chain.from_iterable(window), dtype=np.int64,
                           count=sum(map(len, window)))

    # ------------------------------------------------------------------
    @property
    def num_interactions(self) -> int:
        return sum(len(s) for s in self.sequences)

    @property
    def avg_sequence_length(self) -> float:
        lens = [len(s) for s in self.sequences[1:] if s]
        return float(np.mean(lens)) if lens else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of the user-item matrix that is empty (paper Table II)."""
        total = self.num_users * self.num_items
        if total == 0:
            return 1.0
        distinct = sum(len(set(s)) for s in self.sequences[1:])
        return 1.0 - distinct / total

    def interaction_matrix(self) -> sparse.csr_matrix:
        """Matrix ``A`` with A[u, v] = number of times u interacted with v.

        Shape ``(num_users + 1, num_items + 1)`` so ids index directly.
        Built by the module's :func:`interaction_matrix`, which reads any
        :class:`SequenceView` in bounded user windows.
        """
        return interaction_matrix(self)

    def item_popularity(self) -> np.ndarray:
        """Interaction count per item id (index 0 is always 0)."""
        counts = np.zeros(self.num_items + 1, dtype=np.int64)
        for seq in self.sequences:
            for item in seq:
                counts[item] += 1
        return counts

    def statistics(self) -> Dict[str, float]:
        """Summary row matching the columns of the paper's Table II."""
        return {
            "users": self.num_users,
            "items": self.num_items,
            "actions": self.num_interactions,
            "avg_len": round(self.avg_sequence_length, 1),
            "sparsity": round(self.sparsity, 4),
        }


@dataclass
class SequenceExample:
    """One training/evaluation example: predict ``target`` from ``sequence``."""

    user: int
    sequence: Sequence[int]
    target: int


# ----------------------------------------------------------------------
# windowed reads of any SequenceView
def iter_csr_windows(indptr: np.ndarray, num_users: int,
                     chunk_events: int = DEFAULT_CHUNK_EVENTS
                     ) -> Iterator[Tuple[int, int, int, int]]:
    """Yield ``(u0, u1, lo, hi)`` whole-user windows over a CSR indptr.

    Each window covers users ``u0..u1-1`` owning events ``lo..hi-1``
    and holds at most ``chunk_events`` events (more only when a single
    user exceeds that alone, so progress is always made).
    """
    u0 = 1
    while u0 <= num_users:
        lo = int(indptr[u0])
        u1 = int(np.searchsorted(indptr, lo + chunk_events,
                                 side="right")) - 1
        u1 = min(max(u1, u0 + 1), num_users + 1)
        yield u0, u1, lo, int(indptr[u1])
        u0 = u1


def user_windows(view: SequenceView
                 ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(u0, lengths, items)`` for windows of whole users.

    ``lengths`` are users ``u0..u0+len(lengths)-1``'s sequence lengths
    and ``items`` their events concatenated; a window holds at most
    :data:`DEFAULT_CHUNK_EVENTS` events (more only for a single longer
    user).
    """
    lengths = view.seq_lengths()
    indptr = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    for u0, u1, _, _ in iter_csr_windows(indptr, view.num_users,
                                         DEFAULT_CHUNK_EVENTS):
        yield u0, lengths[u0:u1], view.user_items(u0, u1)


def interaction_matrix(view: SequenceView) -> sparse.csr_matrix:
    """Matrix ``A`` with ``A[u, v]`` = times user ``u`` interacted with ``v``.

    Shape ``(num_users + 1, num_items + 1)`` so ids index directly (row
    and column 0 stay empty).  Each window's counts are a COO sum
    converted to canonical CSR; windows are added as CSR matrices.
    """
    shape = (view.num_users + 1, view.num_items + 1)
    total = None
    for u0, lengths, items in user_windows(view):
        users = np.repeat(np.arange(u0, u0 + lengths.shape[0]), lengths)
        part = sparse.coo_matrix((np.ones(items.shape[0]), (users, items)),
                                 shape=shape).tocsr()
        total = part if total is None else total + part
    return sparse.csr_matrix(shape) if total is None else total
