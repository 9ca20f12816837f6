"""Exact top-K retrieval from score matrices.

``topk_from_scores`` never sorts a whole row.  It bounds the K-th best
score from below, keeps only the entries that reach the bound, and
sorts those.  Each row is split into ``CHUNK``-wide column chunks (the
tail past the last whole chunk belongs to none) and one reduce pass
takes every chunk's max.  Let ``b`` be the K-th largest chunk max: K
distinct chunks each hold an entry ``>= b``, so the K-th best score is
``>= b`` and every entry of the true top-K — the whole tie group at the
K-th boundary included — is ``>= b``.  A second pass collects the
entries ``>= b`` of the flattened buffer (usually a few times K per
row), and one ``lexsort`` over those orders them.

Two kinds of row take the ``np.argpartition`` path instead: every row
when it has fewer than K whole chunks (small catalogs, ``k >= V``), and
rows whose bound is not finite (fewer than K chunks with a non-NaN max,
or a bound of ``±inf``).

Tie handling is deterministic and matches the exact-tie semantics of
:func:`repro.eval.metrics.ranks_from_scores`: items are ordered by
``(-score, index)``, so among equal scores the *lowest ids* win — the
same total order under which ``ranks_from_scores`` counts every tied
competitor against an item.  NaN scores order last, as in ``lexsort``.

Certified float32 selection
---------------------------
:class:`Float32Table` selects the same top-K from a float32 copy of the
item table without ever forming float64 scores for the whole catalog.
The float32 score ``s32`` of an item differs from its float64 score
``s64`` by at most ``err``, a bound on the rounding of both dot
products (``γ_d`` each), of the inputs to float32, and an underflow
floor, scaled by ``‖q‖ · max‖x‖``.  The chunk bound runs on the float32
scores: K distinct chunks hold an entry ``s32 >= b``, so the K-th best
``s64`` is ``>= b - err``, and every top-K entry has ``s32 >= b -
2·err``.  Only the chunks whose max reaches that threshold (and the
tail) are scanned; the few candidates are re-scored in float64 by a
row-wise dot against the item table and ordered by ``(-score, index)``.
Rows whose representation or float32 scores could be non-finite, and
catalogs with fewer than K whole chunks, are left to the float64
``score`` + :func:`topk_from_scores` path.

The ids are those :func:`topk_from_scores` picks from the score
program's float64 scores up to float64 rounding: the re-score is a
row-wise dot and the score program a matrix product, which may sum the
same ``d`` terms in another order and differ by a few ulps
(:meth:`Float32Table.rescore_error` bounds it).  Items whose float64
scores lie that close to each other may come back in either order, at
the K-th boundary included; everywhere else the ids are equal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Column chunk width of the top-K bound (see the module docstring).
CHUNK = 256

#: Unit roundoffs of float32 and float64.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
#: Smallest normal float32: each underflowing operation loses less,
#: even with subnormals flushed to zero.
_TINY32 = 2.0 ** -126
#: Largest ``‖q‖ · max‖x‖`` (and norm) the float32 path accepts: no
#: float32 input, product or partial sum can overflow below it.
_SAFE32 = float(np.finfo(np.float32).max) / 4


def topk_from_scores(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` entries per row, best first.

    Parameters
    ----------
    scores:
        ``(N, V)`` (or ``(V,)``) score matrix; higher is better.
    k:
        Number of items to return per row (clamped to ``V``).

    Returns
    -------
    np.ndarray
        ``(N, k)`` integer indices (``(k,)`` for a 1-D input), ordered by
        descending score with ascending-index tie-breaks.
    """
    scores = np.asarray(scores)
    squeeze = scores.ndim == 1
    if squeeze:
        scores = scores[None]
    if scores.ndim != 2:
        raise ValueError("scores must be (N, V) or (V,)")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows, vocab = scores.shape
    k = min(k, vocab)
    chunks = vocab // CHUNK
    if chunks < k:
        top = _topk_partition(scores, k)
    else:
        cmax = scores[:, :chunks * CHUNK].reshape(
            rows, chunks, CHUNK).max(axis=2)
        # K-th largest chunk max: no top-K entry scores below it.
        bound = -np.partition(-cmax, k - 1, axis=1)[:, k - 1]
        fast = np.isfinite(bound)
        keep = scores >= bound[:, None]
        keep[~fast] = False
        row, col = np.divmod(np.flatnonzero(keep), vocab)
        order = np.lexsort((col, -scores[row, col], row))
        # Each fast row has >= K candidates, grouped in row order.
        first = np.searchsorted(row, np.flatnonzero(fast))
        top = np.empty((rows, k), dtype=np.intp)
        top[fast] = col[order[first[:, None] + np.arange(k)]]
        if not fast.all():
            top[~fast] = _topk_partition(scores[~fast], k)
    return top[0] if squeeze else top


def _topk_partition(scores: np.ndarray, k: int) -> np.ndarray:
    """``topk_from_scores`` by ``np.argpartition`` over whole rows."""
    vocab = scores.shape[1]
    if k >= vocab:
        return _ordered(scores, np.broadcast_to(np.arange(vocab),
                                                scores.shape))
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    top = _ordered(np.take_along_axis(scores, part, axis=1), part)
    # argpartition picks an *arbitrary* subset of entries tied at the
    # k-th score; the deterministic order wants the lowest indices of
    # the boundary tie group.  Re-rank only the affected rows, in one
    # batched lexsort rather than a per-row Python loop.  A NaN k-th
    # score never compares equal, so those rows are re-ranked too.
    kth = np.take_along_axis(
        scores, top[:, -1:], axis=1)              # (N, 1) boundary score
    outside = (scores == kth).sum(axis=1) > (
        np.take_along_axis(scores, top, axis=1) == kth).sum(axis=1)
    bad = np.nonzero(outside | (kth[:, 0] != kth[:, 0]))[0]
    if bad.size:
        sub = scores[bad]
        idx = np.broadcast_to(np.arange(vocab), sub.shape)
        order = np.lexsort((idx, -sub), axis=1)
        top[bad] = order[:, :k]
    return top


def _ordered(sel_scores: np.ndarray, sel_idx: np.ndarray) -> np.ndarray:
    """Order selected entries by (-score, index) within each row."""
    rank = np.lexsort((sel_idx, -sel_scores), axis=-1)
    return np.take_along_axis(sel_idx, rank, axis=1)


class Float32Table:
    """A float32 ``(d, V)`` copy of an item table that selects the exact
    top-K (see "Certified float32 selection" in the module docstring).

    ``table`` is the float64 ``(V, d)`` item table the candidates are
    re-scored against, ``table_t`` its C-contiguous ``(d, V)``
    transpose (the plan's score table, cast in one contiguous pass with
    no float64 temporary); ``masked_columns`` score ``-inf``.
    """

    def __init__(self, table: np.ndarray, table_t: np.ndarray,
                 masked_columns=()):
        self.table = table
        # A table beyond float32 range is never certified, so its
        # overflow is moot.
        with np.errstate(over="ignore"):
            self.table_t = table_t.astype(np.float32)
        self.masked_columns = tuple(masked_columns)
        dim = table.shape[1]
        self.max_norm = float(np.sqrt(np.einsum(
            "ij,ij->j", table_t, table_t)).max(initial=0.0))

        def gamma(unit):
            return dim * unit / (1.0 - dim * unit)

        # Both dot products, the inputs' rounding to float32 and their
        # second-order term; the last factor covers the float64
        # arithmetic of the bound itself.
        relative = (gamma(_U32) * (1.0 + _U32) ** 2 + 2.0 * _U32
                    + _U32 ** 2 + gamma(_U64)) * (1.0 + 2.0 ** -20)
        # err(‖q‖) = relative·‖q‖·max‖x‖ + 2·tiny·(d + √d·(‖q‖ + max‖x‖)),
        # kept as slope·‖q‖ + intercept.
        self.slope = (relative * self.max_norm
                      + 2.0 * _TINY32 * np.sqrt(dim))
        self.intercept = 2.0 * _TINY32 * (dim + np.sqrt(dim)
                                          * self.max_norm)
        # Two float64 sums of one dot product, each within
        # γ_d·‖q‖·‖x‖ (and 2·d·2⁻¹⁰⁷⁵ of gradual underflow) of the
        # exact value.
        self.slope64 = 2.0 * gamma(_U64) * self.max_norm * (1.0 + 2.0 ** -20)
        self.intercept64 = 4.0 * dim * 2.0 ** -1075

    def certifies(self, k: int) -> bool:
        """True when :meth:`topk` serves ``k`` (at least K whole chunks
        and a table whose float32 copy cannot overflow)."""
        return (self.table.shape[0] // CHUNK >= k
                and self.max_norm < _SAFE32)

    def error(self, norms: np.ndarray) -> np.ndarray:
        """Bound on ``|s32 - s64|`` for representations of norm
        ``norms``, ``(B,)``."""
        return self.slope * norms + self.intercept

    def rescore_error(self, norms: np.ndarray) -> np.ndarray:
        """Bound on how far :meth:`topk`'s float64 re-score may differ
        from the score program's float64 product for representations of
        norm ``norms``, ``(B,)``: the same dot product, summed in
        another order."""
        return self.slope64 * norms + self.intercept64

    def topk(self, reprs: np.ndarray, k: int,
             out: Optional[np.ndarray] = None) -> tuple:
        """``((B, k) ids, (B, k) float64 scores, (B,) certified)``.

        Rows where ``certified`` is False (non-finite representations,
        norms whose float32 products could overflow) hold garbage; the
        caller ranks them on the float64 path.  ``out`` may supply a
        reusable float32 ``(B, V)`` buffer.  Requires
        :meth:`certifies` ``(k)``.
        """
        reprs = np.asarray(reprs, dtype=np.float64)
        rows, vocab = reprs.shape[0], self.table.shape[0]
        chunks = vocab // CHUNK
        # Non-finite rows may overflow or turn NaN on the way; they are
        # marked uncertified, so their warnings carry no information.
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", reprs, reprs))
            # NaN norms fail both comparisons.
            fast = (norms < _SAFE32) & (norms * self.max_norm < _SAFE32)
            scores = np.matmul(reprs.astype(np.float32), self.table_t,
                               out=out)
            for col in self.masked_columns:
                scores[:, col] = -np.inf
            body = scores[:, :chunks * CHUNK].reshape(rows, chunks, CHUNK)
            cmax = body.max(axis=2)
            bound = np.partition(cmax, chunks - k, axis=1)[:, chunks - k]
            threshold = bound - 2.0 * self.error(norms)
            fast &= np.isfinite(threshold)
            # One float32 step below the rounded threshold is at or
            # below the threshold itself.  NaN keeps uncertified rows
            # out of every comparison.
            floor32 = np.where(fast, np.nextafter(
                threshold.astype(np.float32), np.float32(-np.inf)), np.nan)
        hot_row, hot_chunk = np.nonzero(cmax >= floor32[:, None])
        hit, offset = np.nonzero(body[hot_row, hot_chunk]
                                 >= floor32[hot_row, None])
        tail_row, tail_col = np.nonzero(
            scores[:, chunks * CHUNK:] >= floor32[:, None])
        row = np.concatenate([hot_row[hit], tail_row])
        col = np.concatenate([hot_chunk[hit] * CHUNK + offset,
                              tail_col + chunks * CHUNK])
        exact = np.einsum("ij,ij->i", self.table[col], reprs[row])
        order = np.lexsort((col, -exact, row))
        # Each certified row has >= K candidates (its K chunk maxima),
        # grouped in row order.
        first = np.searchsorted(row[order], np.flatnonzero(fast))
        picks = order[first[:, None] + np.arange(k)]
        top = np.zeros((rows, k), dtype=np.intp)
        values = np.zeros((rows, k), dtype=np.float64)
        top[fast], values[fast] = col[picks], exact[picks]
        return top, values, fast


def merge_topk(item_lists, score_lists, k: int):
    """Merge per-shard top-K candidate lists into the global top-K.

    Each shard contributes ``(items, scores)`` — *global* item ids with
    their scores, already restricted to that shard's best candidates.
    The merge re-ranks the union under the same ``(-score, index)``
    total order as :func:`topk_from_scores`, so as long as every shard
    submits at least its own top-``k`` (over the items it owns, ids
    disjoint across shards) the result is identical to running
    ``topk_from_scores`` over the unpartitioned score row — including
    tie groups that straddle shard boundaries, where the lowest ids win.
    Shards may also submit *fewer* than ``k`` candidates (short ANN
    probe lists); the merge is then bitwise-identical to the exact
    oracle restricted to the union of submitted candidates.

    Parameters
    ----------
    item_lists / score_lists:
        Equal-length sequences of 1-D arrays (one pair per shard).
    k:
        Number of entries to return (clamped to the candidate total).

    Returns
    -------
    (np.ndarray, np.ndarray)
        ``(items, scores)`` of the merged top-``k``, best first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(item_lists) != len(score_lists):
        raise ValueError("item_lists and score_lists must pair up "
                         f"({len(item_lists)} vs {len(score_lists)})")
    items = np.concatenate([np.asarray(a).reshape(-1) for a in item_lists])
    scores = np.concatenate([np.asarray(s).reshape(-1)
                             for s in score_lists])
    if items.shape != scores.shape:
        raise ValueError("per-shard items and scores differ in length")
    order = np.lexsort((items, -scores))[:min(k, items.size)]
    return items[order].astype(np.int64, copy=False), scores[order]
