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
"""

from __future__ import annotations

import numpy as np

#: Column chunk width of the top-K bound (see the module docstring).
CHUNK = 256


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
