"""Memory-mapped columnar interaction store.

The in-memory :class:`repro.data.dataset.InteractionDataset` keeps every
sequence as a Python ``List[List[int]]`` — at web scale (millions of
users, 10^5..10^6 items) the object overhead alone is gigabytes.  This
module stores the same data as four flat ``.npy`` columns in CSR layout:

``store_dir/``
    ``manifest.json``   — name, counts, metadata, per-column sha256 digests
    ``indptr.npy``      — int64, ``num_users + 2`` entries; user ``u``'s
                          events span ``indptr[u]:indptr[u + 1]`` (entry 0
                          is the padding user and is always empty)
    ``items.npy``       — int64, one item id per event, time-ordered per user
    ``timestamps.npy``  — int64, one timestamp per event
    ``noise_flags.npy`` — uint8, 1 where the event is synthetic noise

Columns are written chunk-at-a-time through
:class:`repro.resilience.atomic.AtomicNpyColumnWriter`, and the manifest
is published last via :func:`repro.resilience.atomic.atomic_write_text` —
it is the commit marker: a kill at any point leaves either a complete
store or no manifest (plus sweepable temp files), never a torn one.
Readers open the columns with ``np.lib.format.open_memmap`` so resident
memory is bounded by the pages actually touched, and
:meth:`InteractionStore.verify` re-hashes the element bytes in bounded
windows against the manifest digests.

:class:`InteractionStore` satisfies the
:class:`repro.data.dataset.SequenceView` protocol, so everything above
the data plane (splitting, loading, model construction, evaluation)
accepts it interchangeably with ``InteractionDataset``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..resilience.atomic import (AtomicNpyColumnWriter, atomic_write_text,
                                 clean_stale_tmp, memmap_sha256)
from .dataset import (DEFAULT_CHUNK_EVENTS, InteractionDataset,
                      iter_csr_windows)

#: Column name -> little-endian dtype string recorded in the manifest.
COLUMN_SPECS: Dict[str, str] = {
    "indptr": "<i8",
    "items": "<i8",
    "timestamps": "<i8",
    "noise_flags": "|u1",
}

#: Event columns (everything except ``indptr``) — one entry per event.
EVENT_COLUMNS = ("items", "timestamps", "noise_flags")

MANIFEST_NAME = "manifest.json"
STORE_FORMAT_VERSION = 1


class StoreIntegrityError(RuntimeError):
    """A store directory is missing, incomplete, or fails digest checks."""


def _column_site(column: str) -> str:
    return f"store.{column}"


def _sanitize_metadata(value):
    """Coerce metadata to JSON-serializable primitives (tuples/arrays ->
    lists, numpy scalars -> Python scalars)."""
    if isinstance(value, dict):
        return {str(k): _sanitize_metadata(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_metadata(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize_metadata(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class StoreWriter:
    """Build a store by appending users in id order, chunk-buffered.

    Events are buffered until ``chunk_events`` accumulate, then flushed
    as one contiguous write per column — peak resident memory is
    O(chunk), never O(dataset).  ``finalize`` publishes the columns and
    the manifest; ``abort`` (or an exception inside the ``with`` block)
    discards all in-flight temp files.
    """

    def __init__(self, path: Path, name: str, num_items: int,
                 chunk_events: int = DEFAULT_CHUNK_EVENTS):
        if num_items < 0:
            raise ValueError("num_items must be >= 0")
        self.path = Path(path)
        self.name = name
        self.num_items = num_items
        self.chunk_events = max(1, int(chunk_events))
        self.num_users = 0
        self.num_events = 0
        self.path.mkdir(parents=True, exist_ok=True)
        clean_stale_tmp(self.path)
        self._writers = {
            column: AtomicNpyColumnWriter(
                self.path / f"{column}.npy", np.dtype(dtype),
                site=_column_site(column))
            for column, dtype in COLUMN_SPECS.items()}
        # indptr[0] = indptr[1] = 0: the padding user (id 0) is empty.
        self._writers["indptr"].write(np.zeros(2, dtype=np.int64))
        self._buffers: Dict[str, list] = {c: [] for c in EVENT_COLUMNS}
        self._indptr_buffer: list = []
        self._buffered = 0
        self._closed = False

    # ------------------------------------------------------------------
    def append(self, items: np.ndarray,
               timestamps: Optional[np.ndarray] = None,
               noise_flags: Optional[np.ndarray] = None) -> int:
        """Append one user's sequence; returns the assigned user id."""
        items = np.ascontiguousarray(items, dtype=np.int64)
        lengths = np.array([items.shape[0]], dtype=np.int64)
        self.append_chunk(lengths, items, timestamps, noise_flags)
        return self.num_users

    def append_chunk(self, lengths: np.ndarray, items: np.ndarray,
                     timestamps: Optional[np.ndarray] = None,
                     noise_flags: Optional[np.ndarray] = None) -> None:
        """Append many users at once from flattened per-event arrays.

        ``lengths[i]`` is the event count of the i-th appended user;
        ``items`` (and the optional parallel columns) hold the users'
        events concatenated in order.  Defaults: per-user positional
        timestamps ``0..len-1`` and all-zero noise flags.
        """
        if self._closed:
            raise ValueError("store writer already closed")
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        total = int(lengths.sum())
        if items.shape[0] != total:
            raise ValueError(
                f"lengths sum to {total} but items has {items.shape[0]} events")
        if (lengths < 0).any():
            raise ValueError("negative sequence length")
        if items.size and (items.min() < 1 or items.max() > self.num_items):
            raise ValueError(
                f"item ids must be in 1..{self.num_items}, got range "
                f"[{items.min()}, {items.max()}]")
        ends = np.cumsum(lengths)
        if timestamps is None:
            # Positional timestamps: 0..len-1 within each user.
            starts = ends - lengths
            timestamps = np.arange(total, dtype=np.int64) - np.repeat(
                starts, lengths)
        else:
            timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
            if timestamps.shape[0] != total:
                raise ValueError("timestamps length mismatch")
        if noise_flags is None:
            noise_flags = np.zeros(total, dtype=np.uint8)
        else:
            noise_flags = np.ascontiguousarray(noise_flags, dtype=np.uint8)
            if noise_flags.shape[0] != total:
                raise ValueError("noise_flags length mismatch")
        self._buffers["items"].append(items)
        self._buffers["timestamps"].append(timestamps)
        self._buffers["noise_flags"].append(noise_flags)
        self._indptr_buffer.append(self.num_events + ends)
        self.num_users += lengths.shape[0]
        self.num_events += total
        self._buffered += total
        if self._buffered >= self.chunk_events:
            self._flush()

    def _flush(self) -> None:
        for column in EVENT_COLUMNS:
            chunks = self._buffers[column]
            if chunks:
                self._writers[column].write(
                    chunks[0] if len(chunks) == 1 else np.concatenate(chunks))
                self._buffers[column] = []
        if self._indptr_buffer:
            self._writers["indptr"].write(
                self._indptr_buffer[0] if len(self._indptr_buffer) == 1
                else np.concatenate(self._indptr_buffer))
            self._indptr_buffer = []
        self._buffered = 0

    # ------------------------------------------------------------------
    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        for writer in self._writers.values():
            writer.abort()

    def finalize(self, metadata: Optional[Dict[str, object]] = None,
                 verify: bool = False) -> "InteractionStore":
        """Flush, publish all columns, then the manifest (commit marker)."""
        if self._closed:
            raise ValueError("store writer already closed")
        try:
            self._flush()
            digests = {}
            counts = {}
            for column, writer in self._writers.items():
                counts[column] = writer.count
                digests[column] = writer.finalize()
        except BaseException:
            self.abort()
            raise
        self._closed = True
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "name": self.name,
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_events": self.num_events,
            "metadata": _sanitize_metadata(metadata or {}),
            "columns": {
                column: {"dtype": COLUMN_SPECS[column],
                         "count": counts[column],
                         "sha256": digests[column]}
                for column in COLUMN_SPECS},
        }
        atomic_write_text(self.path / MANIFEST_NAME,
                          json.dumps(manifest, indent=1, sort_keys=True),
                          site="store.manifest")
        return open_store(self.path, verify=verify)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


class InteractionStore:
    """Read view over a published store (mmap-backed ``SequenceView``).

    Column attributes (``indptr``, ``items``, ``timestamps``,
    ``noise_flags``) are plain ``np.ndarray`` views of read-only memory
    maps — slice them, never copy them whole (the ``bounded-memory``
    lint rule enforces this for streaming-path modules).
    """

    #: Events stay on disk, so the loader shuffles in bounded windows.
    resident = False

    def __init__(self, path: Path, manifest: Dict[str, object],
                 columns: Dict[str, np.ndarray]):
        self.path = Path(path)
        self.manifest = manifest
        self.name: str = manifest["name"]
        self.num_users: int = int(manifest["num_users"])
        self.num_items: int = int(manifest["num_items"])
        self.num_events: int = int(manifest["num_events"])
        self.metadata: Dict[str, object] = dict(manifest.get("metadata") or {})
        self.indptr = columns["indptr"]
        self.items = columns["items"]
        self.timestamps = columns["timestamps"]
        self.noise_flags = columns["noise_flags"]

    # ------------------------------------------------------------------
    # SequenceView protocol surface
    @property
    def num_interactions(self) -> int:
        return self.num_events

    def sequence(self, user: int) -> np.ndarray:
        """User ``user``'s item ids — a zero-copy view into the mmap."""
        return self.items[self.indptr[user]:self.indptr[user + 1]]

    def seq_lengths(self) -> np.ndarray:
        """Per-user length, indexed by user id (O(num_users) memory)."""
        return np.diff(self.indptr)

    def user_items(self, u0: int, u1: int) -> np.ndarray:
        """Users ``u0..u1-1``'s items — one zero-copy slice of the mmap."""
        return self.items[self.indptr[u0]:self.indptr[u1]]

    def statistics(self) -> Dict[str, float]:
        """Summary row matching ``InteractionDataset.statistics``.

        Distinct (user, item) pairs are counted window-by-window, so
        resident memory stays bounded by the window size.
        """
        lengths = self.seq_lengths()
        nonempty = lengths[lengths > 0]
        avg_len = float(nonempty.mean()) if nonempty.size else 0.0
        total_cells = self.num_users * self.num_items
        distinct = 0
        for u0, u1, lo, hi in self.iter_user_windows():
            keys = (np.repeat(np.arange(u0, u1, dtype=np.int64),
                              lengths[u0:u1]) * (self.num_items + 1)
                    + self.items[lo:hi])
            distinct += int(np.unique(keys).shape[0])
        sparsity = 1.0 - distinct / total_cells if total_cells else 1.0
        return {
            "users": self.num_users,
            "items": self.num_items,
            "actions": self.num_events,
            "avg_len": round(avg_len, 1),
            "sparsity": round(sparsity, 4),
        }

    # ------------------------------------------------------------------
    def user_timestamps(self, user: int) -> np.ndarray:
        return self.timestamps[self.indptr[user]:self.indptr[user + 1]]

    def user_noise_flags(self, user: int) -> np.ndarray:
        return self.noise_flags[self.indptr[user]:self.indptr[user + 1]]

    def iter_user_windows(
            self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(u0, u1, lo, hi)`` windows of whole users.

        Users ``u0..u1-1`` own events ``lo..hi-1``; each window holds at
        most ``chunk_events`` events (more only if a single user exceeds
        that on their own, so progress is always made).
        """
        return iter_csr_windows(self.indptr, self.num_users, chunk_events)

    def verify(self, chunk_items: int = 1 << 22) -> None:
        """Re-hash every column in bounded windows against the manifest.

        Raises :class:`StoreIntegrityError` naming the first column
        whose element bytes do not match the recorded sha256.
        """
        for column in COLUMN_SPECS:
            spec = self.manifest["columns"][column]
            actual = memmap_sha256(getattr(self, column),
                                   chunk_items=chunk_items)
            if actual != spec["sha256"]:
                raise StoreIntegrityError(
                    f"store column {column!r} digest mismatch: manifest "
                    f"{spec['sha256'][:12]}.., file {actual[:12]}..")

    def nbytes(self) -> int:
        """Total on-disk element bytes across all columns."""
        return sum(int(getattr(self, c).nbytes) for c in COLUMN_SPECS)

    def __repr__(self) -> str:
        return (f"InteractionStore({self.name!r}, users={self.num_users}, "
                f"items={self.num_items}, events={self.num_events}, "
                f"path={str(self.path)!r})")


def open_store(path: Path, verify: bool = True) -> InteractionStore:
    """Open a published store; structural checks always run.

    ``verify=True`` additionally re-hashes every column against the
    manifest digests (one bounded pass over the files).
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StoreIntegrityError(
            f"{path}: no {MANIFEST_NAME} — store missing or write did not "
            f"commit")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreIntegrityError(f"{path}: unreadable manifest: {exc}")
    if manifest.get("format_version") != STORE_FORMAT_VERSION:
        raise StoreIntegrityError(
            f"{path}: unsupported store format "
            f"{manifest.get('format_version')!r}")
    columns: Dict[str, np.ndarray] = {}
    for column, dtype in COLUMN_SPECS.items():
        spec = (manifest.get("columns") or {}).get(column)
        if spec is None:
            raise StoreIntegrityError(f"{path}: manifest missing column "
                                      f"{column!r}")
        try:
            mm = np.lib.format.open_memmap(path / f"{column}.npy", mode="r")
        except (OSError, ValueError) as exc:
            raise StoreIntegrityError(
                f"{path}: cannot map column {column!r}: {exc}")
        if mm.ndim != 1 or np.dtype(mm.dtype) != np.dtype(dtype):
            raise StoreIntegrityError(
                f"{path}: column {column!r} has shape {mm.shape} dtype "
                f"{mm.dtype}, expected 1-D {dtype}")
        if mm.shape[0] != int(spec["count"]):
            raise StoreIntegrityError(
                f"{path}: column {column!r} has {mm.shape[0]} elements, "
                f"manifest says {spec['count']}")
        # A plain ndarray view of the map: zero-copy and still
        # file-backed, but slicing it skips np.memmap's per-slice
        # Python __array_finalize__.
        columns[column] = mm.view(np.ndarray)
    num_users = int(manifest["num_users"])
    num_events = int(manifest["num_events"])
    indptr = columns["indptr"]
    if indptr.shape[0] != num_users + 2:
        raise StoreIntegrityError(
            f"{path}: indptr has {indptr.shape[0]} entries, expected "
            f"num_users + 2 = {num_users + 2}")
    if num_users + 1 >= 1 and int(indptr[-1]) != num_events:
        raise StoreIntegrityError(
            f"{path}: indptr ends at {int(indptr[-1])}, manifest says "
            f"{num_events} events")
    if (np.diff(indptr) < 0).any():
        raise StoreIntegrityError(f"{path}: indptr is not monotonic")
    for column in EVENT_COLUMNS:
        if columns[column].shape[0] != num_events:
            raise StoreIntegrityError(
                f"{path}: column {column!r} has {columns[column].shape[0]} "
                f"events, expected {num_events}")
    store = InteractionStore(path, manifest, columns)
    if verify:
        store.verify()
    return store


def write_store_from_dataset(dataset: InteractionDataset, path: Path,
                             chunk_events: int = DEFAULT_CHUNK_EVENTS,
                             verify: bool = False) -> InteractionStore:
    """Bridge an in-memory dataset into a store.

    Per-user noise flags riding in ``metadata["noise_flags"]`` (the
    synthetic generator's convention) become the ``noise_flags`` column;
    the remaining metadata is carried into the manifest.
    """
    metadata = dict(dataset.metadata)
    noise_lists = metadata.pop("noise_flags", None)
    metadata.pop("item_clusters", None)
    with StoreWriter(path, dataset.name, dataset.num_items,
                     chunk_events=chunk_events) as writer:
        for user in range(1, dataset.num_users + 1):
            seq = dataset.sequence(user)
            flags = None
            if noise_lists is not None:
                flags = np.asarray(noise_lists[user], dtype=np.uint8)
            writer.append(seq, noise_flags=flags)
        return writer.finalize(metadata, verify=verify)


__all__ = ["COLUMN_SPECS", "EVENT_COLUMNS", "MANIFEST_NAME",
           "STORE_FORMAT_VERSION", "DEFAULT_CHUNK_EVENTS",
           "StoreIntegrityError", "StoreWriter", "InteractionStore",
           "open_store", "write_store_from_dataset", "iter_csr_windows"]
