"""Clustered MIPS index for sub-linear approximate top-K retrieval.

Exact serving scores every request against the full item table — an
O(V) matmul plus an O(V) ``argpartition`` per user — which dominates
cost once catalogs reach 10^5+ items.  :class:`ANNIndex` trades a
little recall for a large constant-factor win: item embeddings are
clustered once at ``freeze()`` time, and each query scores only the
``nprobe`` clusters whose centroids it points at.

Maximum-inner-product search is *not* nearest-neighbour search: a long
vector can win the inner product from a distant direction, so naive
k-means over raw embeddings mis-buckets high-norm items.  The index
applies the standard norm-augmentation reduction first: each item row
``x`` becomes ``[x, sqrt(M^2 - |x|^2)]`` with ``M`` the max row norm,
placing every item on a sphere of radius ``M``; a query augmented with
a zero coordinate then has ``q~ . x~ = q . x``, so cosine / spherical
k-means structure over the augmented rows is faithful to the
inner-product objective.  Clustering is seeded (``numpy`` Generator,
same discipline as :mod:`repro.nn.rng`) and fitted on a bounded
subsample, followed by one chunked full-catalog assignment pass, so
building a 100k-item index stays in the seconds range.

Search semantics match the exact oracle on the probed set: candidates
are ordered under the same ``(-score, ascending id)`` total order as
:func:`repro.serve.retrieval.topk_from_scores`, masked columns
(padding / mask tokens) are excluded from the index entirely, and rows
whose probed clusters hold fewer than ``k`` items return short lists
(padded with ``-1`` ids / ``NEG_INF`` scores) that downstream
``merge_topk`` handles.  With ``nprobe >= num_clusters`` the returned
item ids are bitwise identical to the exact path restricted to
unmasked items — the property the test-suite pins.  (Scores agree to
floating-point rounding: the per-cluster partial matmuls block the
dot products differently than one full-table matmul.)

Everything on the index is a primitive ``ndarray`` (no callables, no
tensors), so it rides the cluster pickle spool without violating the
``worker-boundary`` lint rule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.kernels import NEG_INF

#: Default clusters probed per query; ~sqrt(V) clusters means each probe
#: adds ~sqrt(V) candidates, so 8 probes cover ~2.5% of a 100k catalog.
DEFAULT_NPROBE = 8

#: Rows of the (chunk, cluster) assignment buffer during index build.
ASSIGN_CHUNK = 8192

#: Cap on rows used to *fit* centroids; assignment still sees all rows.
FIT_SAMPLE = 20_000

#: Lloyd iterations for the spherical k-means fit.
FIT_ITERS = 10


class ANNIndex:
    """Cluster-partitioned item index supporting batched MIPS probes.

    Attributes (all plain arrays — pickle/spool safe):

    ``centroids``
        ``(C, d+1)`` float64 unit rows in the norm-augmented space.
    ``offsets``
        ``(C+1,)`` int64; cluster ``c`` owns packed rows
        ``offsets[c]:offsets[c+1]``.
    ``packed_ids``
        ``(n,)`` int64 global item ids, cluster-major, ascending within
        each cluster.
    ``packed_table``
        ``(n, d)`` float64 item embeddings re-ordered to match
        ``packed_ids`` (contiguous per-cluster blocks for the partial
        matmuls).
    """

    def __init__(self, centroids: np.ndarray, offsets: np.ndarray,
                 packed_ids: np.ndarray, packed_table: np.ndarray,
                 seed: int, num_clusters: int):
        self.centroids = centroids
        self.offsets = offsets
        self.packed_ids = packed_ids
        self.packed_table = packed_table
        self.seed = int(seed)
        self.num_clusters = int(num_clusters)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return int(self.packed_table.shape[1])

    @property
    def size(self) -> int:
        """Indexed (unmasked) item count."""
        return int(self.packed_ids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def validate(self) -> None:
        """Raise ``ValueError`` unless ``offsets`` is ``(C+1,)``, the
        packed arrays agree with it, and the centroids are ``(C, d+1)``.

        Search indexes the packed arrays through ``offsets`` and would
        silently read short or misaligned blocks from a corrupt index.
        """
        if self.offsets.shape != (self.num_clusters + 1,):
            raise ValueError(f"offsets must be ({self.num_clusters + 1},), "
                             f"got {self.offsets.shape}")
        rows = int(self.offsets[-1])
        if not (self.packed_ids.shape[0] == self.packed_table.shape[0]
                == rows):
            raise ValueError(
                f"packed_ids ({self.packed_ids.shape[0]}) and packed_table "
                f"({self.packed_table.shape[0]} rows) must both hold "
                f"offsets[-1] = {rows} items")
        expected = (self.num_clusters, self.dim + 1)
        if self.centroids.shape != expected:
            raise ValueError(f"centroids must be {expected}, got "
                             f"{self.centroids.shape}")

    # ------------------------------------------------------------------
    def probe(self, reprs: np.ndarray, nprobe: int) -> np.ndarray:
        """Ids of the ``nprobe`` best-aligned clusters per query row."""
        reprs = np.asarray(reprs, dtype=np.float64)
        if reprs.ndim != 2 or reprs.shape[1] != self.dim:
            raise ValueError(
                f"reprs must be (B, {self.dim}), got {reprs.shape}")
        nprobe = max(1, min(int(nprobe), self.num_clusters))
        # The query's augmented coordinate is 0, so only the first d
        # centroid dims participate.
        cscores = reprs @ self.centroids[:, :self.dim].T
        if nprobe >= self.num_clusters:
            return np.broadcast_to(
                np.arange(self.num_clusters, dtype=np.int64),
                (reprs.shape[0], self.num_clusters)).copy()
        part = np.argpartition(-cscores, nprobe - 1, axis=1)[:, :nprobe]
        return part.astype(np.int64, copy=False)

    def search(self, reprs: np.ndarray, k: int,
               nprobe: int) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` over the probed clusters.

        Returns ``(items, scores)`` of shape ``(B, k)``; rows whose
        probed clusters hold fewer than ``k`` items are right-padded
        with ``-1`` / ``NEG_INF``.  Within each row the order is the
        oracle's ``(-score, ascending id)``.
        """
        reprs = np.asarray(reprs, dtype=np.float64)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        probes = self.probe(reprs, nprobe)
        batch, nprobe = probes.shape
        sizes = self.cluster_sizes()

        # Lay each row's candidates out contiguously: probe order within
        # the row, cluster-packed order within each probe.
        probe_sizes = sizes[probes]                       # (B, nprobe)
        row_counts = probe_sizes.sum(axis=1)              # (B,)
        row_starts = np.zeros(batch + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_starts[1:])
        total = int(row_starts[-1])
        cand_ids = np.empty(total, dtype=np.int64)
        cand_scores = np.empty(total, dtype=np.float64)
        within = np.cumsum(probe_sizes, axis=1) - probe_sizes
        dest = row_starts[:-1, None] + within             # (B, nprobe)

        # Score cluster-major so each cluster's block is one partial
        # matmul over every row that probed it.
        flat_cluster = probes.ravel()
        flat_row = np.repeat(np.arange(batch, dtype=np.int64), nprobe)
        flat_dest = dest.ravel()
        order = np.argsort(flat_cluster, kind="stable")
        bounds = np.searchsorted(flat_cluster[order],
                                 np.arange(self.num_clusters + 1))
        for cluster in np.unique(flat_cluster):
            lo, hi = bounds[cluster], bounds[cluster + 1]
            size = int(sizes[cluster])
            if size == 0 or lo == hi:
                continue
            start = int(self.offsets[cluster])
            block = reprs[flat_row[order[lo:hi]]] @ \
                self.packed_table[start:start + size].T
            slots = flat_dest[order[lo:hi], None] + np.arange(size)
            cand_scores[slots] = block
            cand_ids[slots] = self.packed_ids[start:start + size]

        items = np.full((batch, k), -1, dtype=np.int64)
        scores = np.full((batch, k), NEG_INF, dtype=np.float64)
        for row in range(batch):
            lo, hi = int(row_starts[row]), int(row_starts[row + 1])
            seg_ids = cand_ids[lo:hi]
            seg_scores = cand_scores[lo:hi]
            take = min(k, hi - lo)
            if take == 0:
                continue
            best = np.lexsort((seg_ids, -seg_scores))[:take]
            items[row, :take] = seg_ids[best]
            scores[row, :take] = seg_scores[best]
        return items, scores

    def search_lists(self, reprs: np.ndarray, k: int, nprobe: int
                     ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Like :meth:`search` but with padding stripped per row."""
        items, scores = self.search(reprs, k, nprobe)
        keep = items >= 0
        return ([items[r][keep[r]] for r in range(items.shape[0])],
                [scores[r][keep[r]] for r in range(items.shape[0])])

    # ------------------------------------------------------------------
    def partition(self, num_shards: int) -> List["ANNIndex"]:
        """Split the index cluster-wise into ``num_shards`` sub-indexes.

        Shard ``s`` owns clusters ``s, s + num_shards, ...`` with their
        packed blocks; item ids stay global, so per-shard
        :meth:`search_lists` results merge through
        :func:`repro.serve.retrieval.merge_topk` back to the full-index
        answer.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        num_shards = min(num_shards, self.num_clusters)
        shards: List[ANNIndex] = []
        for shard in range(num_shards):
            clusters = np.arange(shard, self.num_clusters, num_shards)
            sizes = self.cluster_sizes()[clusters]
            offsets = np.zeros(clusters.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            ids = np.empty(int(offsets[-1]), dtype=np.int64)
            table = np.empty((int(offsets[-1]), self.dim),
                             dtype=np.float64)
            for pos, cluster in enumerate(clusters):
                src = slice(int(self.offsets[cluster]),
                            int(self.offsets[cluster + 1]))
                dst = slice(int(offsets[pos]), int(offsets[pos + 1]))
                ids[dst] = self.packed_ids[src]
                table[dst] = self.packed_table[src]
            shards.append(ANNIndex(self.centroids[clusters].copy(),
                                   offsets, ids, table,
                                   seed=self.seed,
                                   num_clusters=int(clusters.size)))
        return shards

    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """Build parameters, enough to reconstruct the index from a
        table (used by quantized plans, which rebuild on dequantize)."""
        return {"seed": self.seed, "num_clusters": self.num_clusters}


def build_ann_index(item_table: np.ndarray,
                    masked_columns: Sequence[int] = (),
                    seed: int = 0,
                    num_clusters: Optional[int] = None) -> ANNIndex:
    """Cluster ``item_table`` into a :class:`ANNIndex`.

    ``masked_columns`` (padding ids, mask tokens) are excluded from the
    index, so ANN search can never surface them — mirroring the
    ``NEG_INF`` column masking on the exact path.
    """
    item_table = np.asarray(item_table, dtype=np.float64)
    if item_table.ndim != 2:
        raise ValueError(f"item_table must be (V, d), got {item_table.shape}")
    vocab = item_table.shape[0]
    masked = np.unique(np.asarray(sorted(masked_columns), dtype=np.int64)) \
        if len(masked_columns) else np.empty(0, dtype=np.int64)
    if masked.size and (masked.min() < 0 or masked.max() >= vocab):
        raise ValueError("masked_columns out of range for item table")
    keep = np.setdiff1d(np.arange(vocab, dtype=np.int64), masked)
    if keep.size == 0:
        raise ValueError("item table has no unmasked rows to index")
    table = item_table[keep]

    if num_clusters is None:
        num_clusters = int(round(np.sqrt(keep.size)))
    num_clusters = max(1, min(int(num_clusters), int(keep.size)))

    augmented = _augment(table)
    centroids = _spherical_kmeans(augmented, num_clusters, seed)
    assign = _assign(augmented, centroids)

    order = np.lexsort((keep, assign))
    assign = assign[order]
    packed_ids = keep[order]
    packed_table = np.ascontiguousarray(table[order])
    counts = np.bincount(assign, minlength=num_clusters)
    offsets = np.zeros(num_clusters + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return ANNIndex(centroids, offsets, packed_ids, packed_table,
                    seed=seed, num_clusters=num_clusters)


def _augment(table: np.ndarray) -> np.ndarray:
    """Norm-augmented unit rows: ``[x, sqrt(M^2 - |x|^2)] / M``."""
    norms = np.linalg.norm(table, axis=1)
    bound = float(norms.max())
    if bound <= 0.0:
        bound = 1.0
    extra = np.sqrt(np.maximum(bound * bound - norms * norms, 0.0))
    augmented = np.concatenate([table, extra[:, None]], axis=1)
    return augmented / bound


def _spherical_kmeans(unit_rows: np.ndarray, num_clusters: int,
                      seed: int) -> np.ndarray:
    """Seeded spherical k-means over unit rows (cosine objective).

    Fits on a bounded subsample for speed; callers run one full
    :func:`_assign` pass afterwards.
    """
    rng = np.random.default_rng(seed)
    rows = unit_rows.shape[0]
    if rows > FIT_SAMPLE:
        sample = unit_rows[rng.choice(rows, FIT_SAMPLE, replace=False)]
    else:
        sample = unit_rows
    centroids = sample[rng.choice(sample.shape[0], num_clusters,
                                  replace=False)].copy()
    for _ in range(FIT_ITERS):
        assign = _assign(sample, centroids)
        updated = np.zeros_like(centroids)
        np.add.at(updated, assign, sample)
        counts = np.bincount(assign, minlength=num_clusters)
        empty = counts == 0
        if empty.any():
            updated[empty] = sample[rng.choice(sample.shape[0],
                                               int(empty.sum()))]
            counts[empty] = 1
        norms = np.linalg.norm(updated, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        centroids = updated / norms
    return centroids


def _assign(unit_rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Hard assignment to the best-aligned centroid, chunked so the
    (chunk, C) similarity buffer stays bounded."""
    assign = np.empty(unit_rows.shape[0], dtype=np.int64)
    for start in range(0, unit_rows.shape[0], ASSIGN_CHUNK):
        stop = min(start + ASSIGN_CHUNK, unit_rows.shape[0])
        sims = unit_rows[start:stop] @ centroids.T
        assign[start:stop] = np.argmax(sims, axis=1)
    return assign
