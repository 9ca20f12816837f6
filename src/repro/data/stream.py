"""The data path over any :class:`SequenceView`: split, loader, k-core.

One implementation serves the in-memory :class:`InteractionDataset` and
the mmap :class:`InteractionStore` alike:

* :func:`leave_one_out_split` — the paper's leave-one-out protocol
  (Sec. IV-A1) as re-iterable :class:`ExampleStream` views; each user's
  events are sliced from the view on demand, so no example list is
  built.
* :class:`DataLoader` — seeded mini-batches from a chunked shuffle
  window.  The window is the only thing the backends differ on, and it
  is decided from the data (:meth:`DataLoader.window`): the whole input
  for resident data, ``DEFAULT_BUFFER_SIZE`` examples over an mmap
  store.  ``rng_state()``/``set_rng_state()`` expose the shuffle stream,
  so ``train.checkpoint`` resume replays it exactly.
* :func:`stream_k_core_filter` — the iterative 5-core fixed point of
  :func:`repro.data.preprocessing.k_core_filter` over a store, computed
  from windowed ``bincount`` passes over the event columns.  Working
  memory is O(num_users + num_items + window), never O(events); the
  surviving users/items are densely remapped exactly like ``remap_ids``
  (users in original-id order, items ascending) and written to a fresh
  store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..nn.rng import generator_state, restore_generator_state
from .batching import Batch, pad_sequences
from .dataset import SequenceExample, SequenceView
from .store import DEFAULT_CHUNK_EVENTS, InteractionStore, StoreWriter

#: Shuffle window in examples over a non-resident view (~window *
#: avg_len * 8 B held).
DEFAULT_BUFFER_SIZE = 8192

#: Safety valve for the k-core fixed point; the loop always terminates
#: (both alive sets shrink monotonically) long before this.
_MAX_KCORE_ROUNDS = 10_000


# ----------------------------------------------------------------------
# out-of-core k-core
def stream_k_core_filter(store: InteractionStore, out_path: Path,
                         min_seq_len: int = 5, min_item_freq: int = 5,
                         chunk_events: int = DEFAULT_CHUNK_EVENTS,
                         verify: bool = False) -> InteractionStore:
    """Out-of-core k-core filter; writes the filtered store to ``out_path``.

    Reaches the same fixed point as the in-memory ``k_core_filter``
    (each round: drop items seen < ``min_item_freq`` times among
    surviving events, then users whose filtered sequence is shorter
    than ``min_seq_len``), and produces the same dense remap as
    ``remap_ids`` — parity is pinned by hypothesis tests.
    """
    num_users, num_items = store.num_users, store.num_items
    lengths = store.seq_lengths()
    user_alive = lengths > 0
    user_alive[0] = False
    item_alive = np.ones(num_items + 1, dtype=bool)
    item_alive[0] = False
    for _ in range(_MAX_KCORE_ROUNDS):
        counts = np.zeros(num_items + 1, dtype=np.int64)
        for u0, u1, lo, hi in store.iter_user_windows(chunk_events):
            items_w = store.items[lo:hi]
            live = (np.repeat(user_alive[u0:u1], lengths[u0:u1])
                    & item_alive[items_w])
            if live.any():
                counts += np.bincount(items_w[live],
                                      minlength=num_items + 1)
        # max(.., 1): items absent from every surviving sequence (and
        # empty users) are dropped even at threshold 0, exactly as
        # remap_ids drops ids that no longer occur.
        new_item_alive = item_alive & (counts >= max(min_item_freq, 1))
        kept_len = np.zeros(num_users + 1, dtype=np.int64)
        for u0, u1, lo, hi in store.iter_user_windows(chunk_events):
            items_w = store.items[lo:hi]
            user_rep = np.repeat(np.arange(u0, u1, dtype=np.int64),
                                 lengths[u0:u1])
            keep = user_alive[user_rep] & new_item_alive[items_w]
            kept_len[u0:u1] = np.bincount(user_rep[keep] - u0,
                                          minlength=u1 - u0)
        new_user_alive = user_alive & (kept_len >= max(min_seq_len, 1))
        if (new_item_alive == item_alive).all() and (
                new_user_alive == user_alive).all():
            break
        item_alive = new_item_alive
        user_alive = new_user_alive
    else:  # pragma: no cover - monotone shrinkage always converges
        raise RuntimeError("k-core fixed point did not converge")

    # Dense remap, matching remap_ids: users keep their relative order,
    # items are renumbered ascending, both starting at 1.
    item_map = np.cumsum(item_alive).astype(np.int64)
    new_num_items = int(item_map[-1])
    new_num_users = int(user_alive.sum())
    metadata = dict(store.metadata,
                    k_core=[min_seq_len, min_item_freq],
                    user_id_map_size=new_num_users,
                    item_id_map_size=new_num_items)
    with StoreWriter(out_path, store.name, new_num_items,
                     chunk_events=chunk_events) as writer:
        for u0, u1, lo, hi in store.iter_user_windows(chunk_events):
            items_w = store.items[lo:hi]
            user_rep = np.repeat(np.arange(u0, u1, dtype=np.int64),
                                 lengths[u0:u1])
            keep = user_alive[user_rep] & item_alive[items_w]
            kept_lengths = np.bincount(user_rep[keep] - u0,
                                       minlength=u1 - u0)
            alive_w = user_alive[u0:u1]
            if not alive_w.any():
                continue
            writer.append_chunk(kept_lengths[alive_w],
                                item_map[items_w[keep]],
                                store.timestamps[lo:hi][keep],
                                store.noise_flags[lo:hi][keep])
        return writer.finalize(metadata, verify=verify)


# ----------------------------------------------------------------------
# leave-one-out split
class ExampleStream:
    """Re-iterable, bounded-memory stream of :class:`SequenceExample`.

    Each user's events are sliced from the backing view on demand, so no
    example list is ever materialized.  ``take(n)`` returns a capped copy
    (used to bound evaluation cost at full scale, with the cap recorded
    by the caller).
    """

    def __init__(self, view: SequenceView, role: str, max_len: int,
                 min_length: int = 3, augment_prefixes: bool = False,
                 limit: Optional[int] = None):
        if role not in ("train", "valid", "test"):
            raise ValueError(f"unknown stream role {role!r}")
        if min_length < 2:
            raise ValueError(
                f"min_length must be >= 2 (valid and test each hold out "
                f"one item), got {min_length}")
        self.view = view
        self.role = role
        self.max_len = max_len
        self.min_length = min_length
        self.augment_prefixes = augment_prefixes
        self.limit = limit
        lengths = view.seq_lengths()
        eligible = lengths >= min_length
        eligible[0] = False
        self._users = np.flatnonzero(eligible)
        if role == "train":
            hist = lengths[self._users] - 2
            self._users = self._users[hist >= 2]
            per_user = np.ones(self._users.shape[0], dtype=np.int64)
            if augment_prefixes:
                per_user += np.maximum(
                    lengths[self._users] - 2 - 2, 0)
            total = int(per_user.sum())
        else:
            total = int(self._users.shape[0])
        self._total = total if limit is None else min(total, limit)

    def __len__(self) -> int:
        return self._total

    def take(self, n: int) -> "ExampleStream":
        """A copy of this stream capped at the first ``n`` examples."""
        return ExampleStream(self.view, self.role, self.max_len,
                             self.min_length, self.augment_prefixes,
                             limit=n if self.limit is None
                             else min(self.limit, n))

    def _user_examples(self, user: int) -> Iterator[SequenceExample]:
        seq = self.view.sequence(user)
        if self.role == "test":
            yield SequenceExample(int(user), seq[:-1][-self.max_len:],
                                  int(seq[-1]))
            return
        if self.role == "valid":
            yield SequenceExample(int(user), seq[:-2][-self.max_len:],
                                  int(seq[-2]))
            return
        hist = seq[:-2]
        yield SequenceExample(int(user), hist[:-1][-self.max_len:],
                              int(hist[-1]))
        if self.augment_prefixes:
            for cut in range(1, hist.shape[0] - 1):
                yield SequenceExample(int(user), hist[:cut][-self.max_len:],
                                      int(hist[cut]))

    def __iter__(self) -> Iterator[SequenceExample]:
        emitted = 0
        for user in self._users:
            for example in self._user_examples(int(user)):
                if emitted >= self._total:
                    return
                yield example
                emitted += 1


@dataclass
class SequenceSplit:
    """Leave-one-out split of a :class:`SequenceView`.

    For each user with a sequence of length n (n >= ``min_length``):

    * test: predict item n from items 1..n-1
    * valid: predict item n-1 from items 1..n-2
    * train: predict item n-2 from items 1..n-3 (plus optional intermediate
      prefixes when ``augment_prefixes`` was requested at build time)
    """

    dataset: SequenceView
    train: ExampleStream
    valid: ExampleStream
    test: ExampleStream
    max_len: int

    @property
    def num_items(self) -> int:
        return self.dataset.num_items

    @property
    def num_users(self) -> int:
        return self.dataset.num_users


def leave_one_out_split(view: SequenceView, max_len: int = 50,
                        augment_prefixes: bool = False,
                        min_length: int = 3) -> SequenceSplit:
    """Build the leave-one-out split used throughout the paper.

    Parameters
    ----------
    max_len:
        Sequences are truncated to their most recent ``max_len`` items
        (the paper uses 200 for ML-1M and 50 elsewhere).
    augment_prefixes:
        If True, every prefix of the training portion becomes an additional
        training example (standard RecBole-style augmentation).
    min_length:
        Users with fewer interactions are skipped entirely; must be >= 2.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return SequenceSplit(
        dataset=view,
        train=ExampleStream(view, "train", max_len, min_length,
                            augment_prefixes),
        valid=ExampleStream(view, "valid", max_len, min_length),
        test=ExampleStream(view, "test", max_len, min_length),
        max_len=max_len,
    )


#: Name the benchmark (``bench/workloads.py``) imports.
streaming_leave_one_out = leave_one_out_split


# ----------------------------------------------------------------------
# loader
class DataLoader:
    """Seeded mini-batches over examples, through a chunked shuffle window.

    Each filled window is shuffled by index (one ``rng.shuffle`` over
    ``len(window)`` positions) and emitted as full batches; the sub-batch
    remainder is carried into the next window so mid-epoch batches are
    always full.  :meth:`window` decides the window size from the data;
    resident data is shuffled as one window, so its batches are one
    ``rng.shuffle(np.arange(n))`` permutation cut into batches.

    ``examples`` is an :class:`ExampleStream` or any sized re-iterable
    of :class:`SequenceExample`.
    """

    def __init__(self, examples: Iterable[SequenceExample],
                 batch_size: int = 256, max_len: Optional[int] = None,
                 shuffle: bool = True, seed: int = 0,
                 drop_last: bool = False):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.examples = examples
        self.batch_size = batch_size
        self.max_len = max_len
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.examples)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def window(self) -> int:
        """Examples held and shuffled together.

        One batch when not shuffling; the whole input for resident data
        (a list, or a stream over a view with ``resident`` set); else
        ``DEFAULT_BUFFER_SIZE`` (at least one batch).
        """
        if not self.shuffle:
            return self.batch_size
        view = getattr(self.examples, "view", None)
        if view is None or view.resident:
            return max(len(self.examples), 1)
        return max(DEFAULT_BUFFER_SIZE, self.batch_size)

    def rng_state(self) -> dict:
        """Snapshot the shuffle generator (for crash-resumed training)."""
        return generator_state(self._rng)

    def set_rng_state(self, state: dict) -> None:
        """Restore a :meth:`rng_state` snapshot so subsequent windows
        shuffle exactly as in the run that saved it."""
        restore_generator_state(self._rng, state)

    def _make_batch(self, chunk: List[SequenceExample]) -> Batch:
        items, mask, lengths = pad_sequences(
            [ex.sequence for ex in chunk], self.max_len)
        return Batch(
            users=np.array([ex.user for ex in chunk], dtype=np.int64),
            items=items,
            mask=mask,
            lengths=lengths,
            targets=np.array([ex.target for ex in chunk], dtype=np.int64),
        )

    def _emit(self, window: List[SequenceExample],
              final: bool) -> Iterator:
        if self.shuffle and len(window) > 1:
            order = np.arange(len(window))
            self._rng.shuffle(order)
            window = [window[i] for i in order]
        full_stop = (len(window) // self.batch_size) * self.batch_size
        for start in range(0, full_stop, self.batch_size):
            yield self._make_batch(window[start:start + self.batch_size])
        remainder = window[full_stop:]
        if final:
            if remainder and not self.drop_last:
                yield self._make_batch(remainder)
            remainder = []
        return remainder

    def __iter__(self) -> Iterator[Batch]:
        size = self.window()
        window: List[SequenceExample] = []
        for example in self.examples:
            # Emit lazily — only once the next example proves the input
            # has not ended.  A window that fills on the *last* example
            # must take the final path below, or the carried remainder
            # would be re-shuffled (an extra RNG draw).
            if len(window) >= size:
                window = yield from self._emit(window, final=False)
            window.append(example)
        yield from self._emit(window, final=True)


__all__ = ["DEFAULT_BUFFER_SIZE", "stream_k_core_filter", "ExampleStream",
           "SequenceSplit", "leave_one_out_split", "streaming_leave_one_out",
           "DataLoader"]
