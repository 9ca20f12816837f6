"""The per-element loop construction of the multi-relation graph: the oracle.

These are the original, readable constructions of Sec. III-A — one
Python iteration per event pair, edge or candidate, and dense ``U x U``
/ ``P x P`` arrays — kept only as the parity oracle for the vectorized
functions of :mod:`repro.graph.relations` (as :mod:`repro.nn.reference`
holds the unfused ops).  Nothing outside the tests calls them.  They
read :class:`~repro.data.dataset.InteractionDataset` lists only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from ..data.dataset import InteractionDataset
from ..data.preprocessing import popularity_split
from .multi_relation import GraphConfig, MultiRelationGraph, _active_users


def interaction_matrix(dataset: InteractionDataset) -> sparse.csr_matrix:
    """Matrix ``A`` with A[u, v] = number of times u interacted with v."""
    rows, cols = [], []
    for u, seq in enumerate(dataset.sequences):
        rows.extend([u] * len(seq))
        cols.extend(seq)
    data = np.ones(len(rows))
    return sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(dataset.num_users + 1, dataset.num_items + 1))


def build_transitional(dataset: InteractionDataset,
                       window: Optional[int] = None) -> sparse.csr_matrix:
    """Build the weighted directed transitional-relation matrix.

    Parameters
    ----------
    window:
        If given, only ordered pairs within this positional distance
        contribute (bounds the O(n^2) pair enumeration for long sequences).

    Returns
    -------
    A ``(num_items + 1, num_items + 1)`` CSR matrix ``W`` with
    ``W[i, j] = w_ij^+``; row/col 0 (padding) stay empty.
    """
    size = dataset.num_items + 1
    rows, cols, vals = [], [], []
    for seq in dataset.sequences[1:]:
        n = len(seq)
        if n < 2:
            continue
        limit = window if window is not None else n
        for a in range(n - 1):
            hi = min(n, a + 1 + limit)
            for b in range(a + 1, hi):
                if seq[a] == seq[b]:
                    continue  # self-transitions carry no relation signal
                rows.append(seq[a])
                cols.append(seq[b])
                vals.append((n - (b - a)) / n)
    if not rows:
        return sparse.csr_matrix((size, size))
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(size, size))
    return mat.tocsr()


def prune_top_k(matrix: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """Keep only each row's ``k`` heaviest edges (graph sparsification)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    matrix = matrix.tocsr()
    out = sparse.lil_matrix(matrix.shape)
    for row in range(matrix.shape[0]):
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        if start == stop:
            continue
        cols = matrix.indices[start:stop]
        vals = matrix.data[start:stop]
        if len(vals) > k:
            keep = np.argpartition(-vals, k)[:k]
            cols, vals = cols[keep], vals[keep]
        out[row, cols] = vals
    return out.tocsr()


def build_incompatible(transitional: sparse.csr_matrix,
                       popular_items: np.ndarray) -> sparse.csr_matrix:
    """Build the symmetric incompatible-relation matrix.

    Parameters
    ----------
    transitional:
        Directed transitional matrix from
        :func:`build_transitional`.
    popular_items:
        Ids of "head" items eligible for incompatible relations.

    Returns
    -------
    Symmetric CSR matrix of the same shape with ``W[i, j] = w_ij^-``.
    """
    size = transitional.shape[0]
    if transitional.shape[0] != transitional.shape[1]:
        raise ValueError("transitional matrix must be square")
    popular = np.asarray(popular_items, dtype=np.int64)
    if popular.size == 0:
        return sparse.csr_matrix((size, size))
    if popular.min() < 1 or popular.max() >= size:
        raise ValueError("popular item ids out of range")

    # Symmetrized transitional strength: s[i, k] = w_ik^+ + w_ki^+.
    sym = (transitional + transitional.T).tocsr()
    sub = sym[popular][:, :]  # rows restricted to popular items
    # common_strength[a, b] = sum_k (s[i_a, k] + s[j_b, k]) over common k.
    # Decompose: sum over common k of s[i,k] = (binary_j @ s_i) pattern:
    binary = (sub > 0).astype(np.float64)
    # For each popular pair (a, b): sum_k s[a,k] * 1[s[b,k]>0]  +
    #                               sum_k 1[s[a,k]>0] * s[b,k]
    left = sub @ binary.T   # (P, P): Σ_k s[a,k] over k adjacent to b
    right = binary @ sub.T  # (P, P): Σ_k s[b,k] over k adjacent to a
    weights = (left + right).toarray()
    has_common = (binary @ binary.T).toarray() > 0

    # Direct transitional relation between the pair disqualifies it.
    direct = sym[popular][:, popular].toarray() > 0

    eligible = has_common & ~direct
    np.fill_diagonal(eligible, False)

    rows_p, cols_p = np.nonzero(eligible)
    out = sparse.lil_matrix((size, size))
    out[popular[rows_p], popular[cols_p]] = weights[rows_p, cols_p]
    result = out.tocsr()
    # Symmetry is guaranteed by construction, but enforce exactly.
    return result.maximum(result.T)


def build_similar(interactions: sparse.csr_matrix,
                  active_users: np.ndarray | None = None) -> sparse.csr_matrix:
    """Build the symmetric similar-user matrix from interaction counts.

    Parameters
    ----------
    interactions:
        ``(num_users + 1, num_items + 1)`` matrix ``A`` (row 0 empty).
    active_users:
        Optional subset of user ids to consider (the paper's few-shot
        filtering keeps relation construction away from ultra-sparse
        users); others get no similar edges.
    """
    num_users = interactions.shape[0]
    A = interactions.tocsr().astype(np.float64)
    if active_users is not None:
        mask = np.zeros(num_users, dtype=bool)
        mask[np.asarray(active_users, dtype=np.int64)] = True
        keep = sparse.diags(mask.astype(np.float64))
        A = keep @ A

    binary = (A > 0).astype(np.float64)
    # numerator[i, j] = Σ_{common items k} (w_ik + w_jk)
    numer = (A @ binary.T) + (binary @ A.T)
    co = (binary @ binary.T)  # co-interaction indicator (count of common items)
    totals = np.asarray(A.sum(axis=1)).ravel()

    numer = numer.tocoo()
    rows, cols, vals = [], [], []
    for i, j, value in zip(numer.row, numer.col, numer.data):
        if i == j or co[i, j] == 0:
            continue
        denom = totals[i] + totals[j]
        if denom <= 0:
            continue
        rows.append(i)
        cols.append(j)
        vals.append(value / denom)
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(num_users, num_users)).tocsr()


def build_dissimilar(interactions: sparse.csr_matrix,
                     similar: sparse.csr_matrix) -> sparse.csr_matrix:
    """Build the symmetric dissimilar-user matrix.

    An edge (i, j) requires: no common items, and a nonempty common
    similar-user set ``U_k = {u_k : w_ik^+ * w_kj^+ != 0}``.
    Weight = Σ_{u_k} (w_ik^+ + w_kj^+).
    """
    num_users = interactions.shape[0]
    binary_items = (interactions > 0).astype(np.float64)
    co_items = (binary_items @ binary_items.T).toarray() > 0

    sim = similar.tocsr()
    sim_binary = (sim > 0).astype(np.float64)
    # weight[i, j] = Σ_k sim[i,k]·1[sim[k,j]>0] + 1[sim[i,k]>0]·sim[k,j]
    weights = (sim @ sim_binary.T + sim_binary @ sim.T).toarray()
    common_sim = (sim_binary @ sim_binary.T).toarray() > 0

    eligible = common_sim & ~co_items & ~(sim.toarray() > 0)
    np.fill_diagonal(eligible, False)
    rows, cols = np.nonzero(eligible)
    return sparse.coo_matrix(
        (weights[rows, cols], (rows, cols)),
        shape=(num_users, num_users)).tocsr()


def build_multi_relation_graph(dataset: InteractionDataset,
                               config: Optional[GraphConfig] = None
                               ) -> MultiRelationGraph:
    """The loop pipeline of all five relation types."""
    config = config or GraphConfig()
    interactions = interaction_matrix(dataset)

    transitional = build_transitional(dataset, window=config.transition_window)
    if config.max_neighbors:
        transitional = prune_top_k(transitional, config.max_neighbors)

    popular, _ = popularity_split(dataset, config.item_head_fraction)
    incompatible = build_incompatible(transitional, popular)
    if config.max_neighbors:
        incompatible = prune_top_k(incompatible, config.max_neighbors)
        incompatible = incompatible.maximum(incompatible.T)

    active_users = _active_users(interactions, config.user_head_fraction)
    similar = build_similar(interactions, active_users)
    if config.max_neighbors:
        similar = prune_top_k(similar, config.max_neighbors)
        similar = similar.maximum(similar.T)
    dissimilar = build_dissimilar(interactions, similar)
    if config.max_neighbors:
        dissimilar = prune_top_k(dissimilar, config.max_neighbors)
        dissimilar = dissimilar.maximum(dissimilar.T)

    return MultiRelationGraph(
        num_users=dataset.num_users, num_items=dataset.num_items,
        interactions=interactions, transitional=transitional,
        incompatible=incompatible, similar_users=similar,
        dissimilar_users=dissimilar, config=config)
