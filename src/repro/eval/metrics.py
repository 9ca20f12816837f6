"""Ranking metrics: HR@K, NDCG@K, MRR@K (Sec. IV-A1).

All metrics are computed from each example's *rank* of the true next item
under full ranking over the item universe (no negative sampling, following
Krichene & Rendle's guidance cited by the paper).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
from ..nn.rng import resolve_rng


def ranks_from_scores(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rank (1-based) of each row's target item under descending scores.

    Ties are broken pessimistically (tied items count as ranked ahead),
    which avoids inflating metrics on degenerate constant scores.
    """
    # One fused comparison instead of separate ``>`` and ``==`` passes:
    # rank = #higher + #ties(excl. self) + 1 = #(scores >= target).  No
    # dtype upcast either — comparisons are exact at any float width.
    scores = np.asarray(scores)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2 or targets.ndim != 1 or len(scores) != len(targets):
        raise ValueError("scores must be (N, V), targets (N,)")
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    return (scores >= target_scores).sum(axis=1).astype(np.int64)


def recall_against_oracle(approx_items: np.ndarray,
                          exact_items: np.ndarray) -> float:
    """Mean per-row overlap fraction of an approximate top-K retrieval.

    ``exact_items`` is the oracle top-K (``topk_from_scores`` over the
    full catalog); ``approx_items`` the candidate lists under test (ANN
    probes — ``-1`` padding entries are ignored).  The retrieval gate in
    ``scripts/retrieval_smoke.py`` reports this as recall@k.
    """
    approx_items = np.asarray(approx_items)
    exact_items = np.asarray(exact_items)
    if approx_items.ndim != 2 or exact_items.ndim != 2 \
            or len(approx_items) != len(exact_items):
        raise ValueError("approx_items and exact_items must be (N, k) "
                         "with matching row counts")
    if not len(exact_items) or not exact_items.shape[1]:
        return 0.0
    hits = sum(np.intersect1d(a[a >= 0], e).size
               for a, e in zip(approx_items, exact_items))
    return float(hits) / float(exact_items.size)


def hit_ratio(ranks: np.ndarray, k: int) -> float:
    """HR@K: fraction of examples whose target ranks within the top K."""
    _check_k(k)
    ranks = np.asarray(ranks)
    return float((ranks <= k).mean()) if len(ranks) else 0.0


def ndcg(ranks: np.ndarray, k: int) -> float:
    """NDCG@K with a single relevant item: 1/log2(rank+1) inside top K."""
    _check_k(k)
    ranks = np.asarray(ranks, dtype=np.float64)
    if not len(ranks):
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr(ranks: np.ndarray, k: int | None = None) -> float:
    """MRR@K: mean reciprocal rank, zero outside the top K (None = unbounded)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if not len(ranks):
        return 0.0
    rr = 1.0 / ranks
    if k is not None:
        _check_k(k)
        rr = np.where(ranks <= k, rr, 0.0)
    return float(rr.mean())


def metric_report(ranks: np.ndarray,
                  ks: Sequence[int] = (5, 10, 20)) -> Dict[str, float]:
    """The paper's standard metric block: HR/N@{5,10,20} + MRR@20."""
    report: Dict[str, float] = {}
    for k in ks:
        report[f"HR@{k}"] = hit_ratio(ranks, k)
        report[f"N@{k}"] = ndcg(ranks, k)
    report["MRR"] = mrr(ranks, max(ks))
    return report


def improvement(ours: Dict[str, float], baseline: Dict[str, float]) -> float:
    """Average relative improvement (%) across shared metrics (Table III)."""
    shared = [m for m in ours if m in baseline and baseline[m] > 0]
    if not shared:
        return 0.0
    gains = [(ours[m] - baseline[m]) / baseline[m] for m in shared]
    return float(np.mean(gains) * 100.0)


def sampled_ranks(scores: np.ndarray, targets: np.ndarray,
                  num_negatives: int = 100,
                  rng: np.random.Generator | None = None,
                  exclude: np.ndarray | None = None) -> np.ndarray:
    """Ranks against ``num_negatives`` sampled items instead of all items.

    Provided for comparison only: the paper deliberately evaluates with
    **full ranking** because sampled metrics are biased estimators
    (Krichene & Rendle, KDD 2020, cited as [38]).  Use this to reproduce
    that bias, not to report results.

    Parameters
    ----------
    exclude:
        Optional boolean (N, V) array; True marks items never drawn as
        negatives (e.g. the user's history).  The padding column 0 is
        always excluded.
    """
    rng = resolve_rng(rng)
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    n, v = scores.shape
    if num_negatives < 1:
        raise ValueError("num_negatives must be >= 1")
    if num_negatives > v - 2:
        raise ValueError(
            f"cannot sample {num_negatives} negatives from {v - 1} items")
    ranks = np.empty(n, dtype=np.int64)
    for row in range(n):
        forbidden = {0, int(targets[row])}
        if exclude is not None:
            forbidden.update(np.flatnonzero(exclude[row]).tolist())
        negatives: list[int] = []
        while len(negatives) < num_negatives:
            draw = rng.integers(1, v, size=2 * num_negatives)
            negatives.extend(int(d) for d in draw if d not in forbidden)
        negatives = negatives[:num_negatives]
        candidate_scores = scores[row, negatives]
        target_score = scores[row, targets[row]]
        higher = int((candidate_scores > target_score).sum())
        ties = int((candidate_scores == target_score).sum())
        ranks[row] = higher + ties + 1
    return ranks


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
