"""Stage 1 relation construction (Sec. III-A), vectorized over bounded windows.

Every function here reproduces, byte for byte, the per-element loops kept
in :mod:`repro.graph.reference` (same ``indptr``, ``indices`` and
``data``), without a Python loop per event, pair or edge and without a
dense ``U x U`` or ``P x P`` array:

* :func:`build_transitional` reads any
  :class:`~repro.data.dataset.SequenceView` — the in-memory
  ``InteractionDataset`` or the mmap ``InteractionStore`` — in windows
  of whole users (:func:`repro.data.dataset.user_windows`, as
  :func:`repro.data.dataset.interaction_matrix` does).  Within a window
  the transitional pairs are emitted in the loop's own ``(user, a, b)``
  order and summed by the same ``coo_matrix`` conversion, so a view
  that fits one window gives the loop's bytes; several windows are
  summed as CSR matrices (values then agree to rounding).
* The user-user and item-item relations are sparse products taken in
  row blocks of at most :data:`BLOCK_FLOPS` multiply-adds.  A CSR product
  computes every row on its own, so the blocking changes no bit; it
  bounds the resident intermediate, and lets :func:`build_similar` /
  :func:`build_dissimilar` prune each block to its top-k rows before
  the next one is built.
* :func:`prune_top_k` keeps ``np.argpartition`` (the loop's choice among
  tied weights) only on rows longer than ``k`` and assembles the CSR
  directly.

The relation definitions (weights, eligibility) are documented on each
function; ``docs/equations.md`` maps them to the paper's equations.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import sparse

from ..data.dataset import SequenceView, user_windows

#: Multiply-adds per row block of a sparse product (~50 MB of
#: intermediate at 12 bytes per output entry, usually far less).
BLOCK_FLOPS = 1 << 22


def _csr(rows, cols, vals, shape) -> sparse.csr_matrix:
    """The loops' constructor: a COO sum converted to canonical CSR."""
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


# ----------------------------------------------------------------------
# item transitional relations
def _transition_pairs(lengths: np.ndarray, items: np.ndarray,
                     window: Optional[int]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One window's ``(source, target, weight)`` transitional pairs.

    Every ordered pair ``a < b`` of one user's sequence with
    ``b - a <= window`` (any distance when ``window`` is None) and
    ``items[a] != items[b]`` contributes ``(n - (b - a)) / n``, emitted
    in ``(user, a, b)`` order: position ``a`` of the flat window owns a
    run of ``min(window, n - 1 - pos(a))`` consecutive distances.
    """
    n = np.repeat(lengths, lengths)                     # length per event
    pos = np.arange(items.shape[0]) - np.repeat(np.cumsum(lengths) - lengths,
                                                lengths)
    runs = n - 1 - pos
    if window is not None:
        runs = np.clip(runs, None, window)
    runs = np.maximum(runs, 0)
    a = np.repeat(np.arange(items.shape[0]), runs)
    dist = np.arange(1, a.shape[0] + 1) - np.repeat(np.cumsum(runs) - runs,
                                                    runs)
    source, target = items[a], items[a + dist]
    keep = source != target        # self-transitions carry no signal
    n_a = n[a[keep]]
    return source[keep], target[keep], (n_a - dist[keep]) / n_a


def build_transitional(view: SequenceView, window: Optional[int] = None
                       ) -> sparse.csr_matrix:
    """Build the weighted directed transitional-relation matrix.

    A directed edge ``v_i -> v_j`` exists iff ``v_j`` ever appears after
    ``v_i`` in some user's sequence; its weight sums, over every such
    occurrence, ``(n_u - Dis(v_i, v_j)) / n_u`` (closer pairs in shorter
    sequences contribute more).  ``window`` bounds the positional
    distance.  Returns a ``(num_items + 1, num_items + 1)`` CSR matrix
    with ``W[i, j] = w_ij^+``; row/col 0 (padding) stay empty.
    """
    size = view.num_items + 1
    total = None
    for _, lengths, items in user_windows(view):
        rows, cols, vals = _transition_pairs(lengths, items, window)
        if rows.shape[0]:
            part = _csr(rows, cols, vals, (size, size))
            total = part if total is None else total + part
    return sparse.csr_matrix((size, size)) if total is None else total


def prune_top_k(matrix: sparse.csr_matrix, k: int) -> sparse.csr_matrix:
    """Keep only each row's ``k`` heaviest edges (graph sparsification).

    Rows of at most ``k`` edges are kept whole; a longer row keeps the
    ``k`` entries ``np.argpartition`` picks, so ties break as the
    reference loop breaks them.  Explicit zeros are dropped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    matrix = matrix.tocsr()
    if not matrix.has_sorted_indices:
        matrix = matrix.sorted_indices()
    indptr, data = matrix.indptr, matrix.data
    keep = data != 0
    for row in np.flatnonzero(np.diff(indptr) > k):
        start, stop = indptr[row], indptr[row + 1]
        chosen = np.zeros(stop - start, dtype=bool)
        chosen[np.argpartition(-data[start:stop], k)[:k]] = True
        keep[start:stop] &= chosen
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(indptr))
    return _csr(rows[keep], matrix.indices[keep], data[keep], matrix.shape)


# ----------------------------------------------------------------------
# row-blocked sparse products
def _row_blocks(products) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` row ranges over which the products ``left @ right.T``
    of ``products`` (``(left, right)`` CSR pairs with equal row counts)
    take at most :data:`BLOCK_FLOPS` multiply-adds together (or one row that
    alone takes more).

    Row ``i`` of ``left @ right.T`` costs, over ``left``'s columns ``c``
    in row ``i``, the number of ``right``'s entries in column ``c``.
    """
    num_rows = products[0][0].shape[0]
    cost = np.zeros(num_rows + 1, dtype=np.int64)
    for left, right in products:
        per_entry = np.bincount(right.indices,
                                minlength=right.shape[1])[left.indices]
        running = np.zeros(per_entry.shape[0] + 1, dtype=np.int64)
        np.cumsum(per_entry, out=running[1:])
        cost += running[left.indptr]
    lo = 0
    while lo < num_rows:
        hi = int(np.searchsorted(cost, cost[lo] + BLOCK_FLOPS,
                                 side="right")) - 1
        hi = min(max(hi, lo + 1), num_rows)
        yield lo, hi
        lo = hi


def _without(matrix: sparse.csr_matrix,
             excluded: sparse.csr_matrix) -> sparse.csr_matrix:
    """``matrix`` minus every entry where the boolean ``excluded`` is set.

    Kept entries are bitwise unchanged (``w - 0 == w``, ``w * 1 == w``)
    and removed ones cancel exactly.
    """
    return matrix - matrix.multiply(excluded)


def _drop_diagonal(block: sparse.csr_matrix, lo: int) -> sparse.csr_matrix:
    """Remove entries ``(lo + r, lo + r)`` from a row block."""
    rows = np.repeat(np.arange(lo, lo + block.shape[0]),
                     np.diff(block.indptr))
    off = rows != block.indices
    if off.all():
        return block
    return _csr(rows[off] - lo, block.indices[off], block.data[off],
                block.shape)


def _collect(blocks, shape: Tuple[int, int],
             max_neighbors: Optional[int]) -> sparse.csr_matrix:
    """Stack ``(lo, block)`` row blocks into one CSR via the loops'
    constructor, pruning each block first when ``max_neighbors``."""
    rows, cols, vals = [], [], []
    for lo, block in blocks:
        if max_neighbors:
            block = prune_top_k(block, max_neighbors)
        rows.append(np.repeat(np.arange(lo, lo + block.shape[0]),
                              np.diff(block.indptr)))
        cols.append(block.indices)
        vals.append(block.data)
    if not rows:
        return _csr(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                    np.zeros(0), shape)
    return _csr(np.concatenate(rows), np.concatenate(cols),
                np.concatenate(vals), shape)


# ----------------------------------------------------------------------
# user relations (Sec. III-A2)
def build_similar(interactions: sparse.csr_matrix,
                  active_users: Optional[np.ndarray] = None,
                  max_neighbors: Optional[int] = None) -> sparse.csr_matrix:
    """Build the similar-user matrix from interaction counts.

    Similar users co-interacted with at least one item; the weight is
    the paper's weighted Jaccard, (sum of both users' weights on common
    items) / (sum of both users' total interaction weights).  Only
    ``active_users`` (when given: the few-shot filter that keeps
    relation construction away from ultra-sparse users) get edges.
    ``max_neighbors`` applies :func:`prune_top_k` block by block, which
    equals pruning the finished matrix (pruning is per row).
    """
    num_users = interactions.shape[0]
    A = interactions.tocsr().astype(np.float64)
    if active_users is not None:
        mask = np.zeros(num_users, dtype=bool)
        mask[np.asarray(active_users, dtype=np.int64)] = True
        A = sparse.diags(mask.astype(np.float64)) @ A
    binary = (A > 0).astype(np.float64)
    A_t, binary_t = A.T.tocsr(), binary.T.tocsr()
    totals = np.asarray(A.sum(axis=1)).ravel()

    def blocks():
        for lo, hi in _row_blocks([(A, binary), (binary, A),
                                   (binary, binary)]):
            # numer[i, j] = sum over common items k of (w_ik + w_jk)
            numer = A[lo:hi] @ binary_t + binary[lo:hi] @ A_t
            common = binary[lo:hi] @ binary_t
            numer = _drop_diagonal(numer.multiply(common != 0).tocsr(), lo)
            rows = np.repeat(np.arange(lo, hi), np.diff(numer.indptr))
            denom = totals[rows] + totals[numer.indices]
            keep = denom > 0
            yield lo, _csr(rows[keep] - lo, numer.indices[keep],
                           numer.data[keep] / denom[keep],
                           (hi - lo, num_users))

    return _collect(blocks(), (num_users, num_users), max_neighbors)


def build_dissimilar(interactions: sparse.csr_matrix,
                     similar: sparse.csr_matrix,
                     max_neighbors: Optional[int] = None) -> sparse.csr_matrix:
    """Build the dissimilar-user matrix.

    An edge ``(i, j)`` requires no common item, no similar edge between
    them, and a nonempty common similar-user set
    ``U_k = {u_k : w_ik^+ * w_kj^+ != 0}``; its weight sums
    ``w_ik^+ + w_kj^+`` over ``U_k``.  Similar weights are positive, so
    the weight's sparsity pattern is exactly the common-similar set.  The
    co-interaction test runs only against users that have a similar
    edge (the only possible partners).
    """
    num_users = interactions.shape[0]
    items = (interactions > 0).astype(np.float64).tocsr()
    sim = similar.tocsr()
    sim_binary = (sim > 0).astype(np.float64)
    sim_t, sim_binary_t = sim.T.tocsr(), sim_binary.T.tocsr()
    partners = sparse.diags((np.diff(sim.indptr) > 0).astype(np.float64))
    partner_items = partners @ items
    partner_items_t = partner_items.T.tocsr()

    def blocks():
        for lo, hi in _row_blocks([(sim, sim_binary), (sim_binary, sim),
                                   (items, partner_items)]):
            weights = sim[lo:hi] @ sim_binary_t + sim_binary[lo:hi] @ sim_t
            weights = _without(weights, (items[lo:hi] @ partner_items_t) > 0)
            weights = _without(weights, sim[lo:hi] > 0)
            yield lo, _drop_diagonal(weights.tocsr(), lo)

    return _collect(blocks(), (num_users, num_users), max_neighbors)


# ----------------------------------------------------------------------
# item incompatible relations (Sec. III-A1)
def build_incompatible(transitional: sparse.csr_matrix,
                       popular_items: np.ndarray) -> sparse.csr_matrix:
    """Build the symmetric incompatible-relation matrix.

    Two *popular* items are incompatible iff they share at least one
    common transitional neighbor
    (``V_k = {v_k : (w_ik^+ + w_ki^+) * (w_jk^+ + w_kj^+) != 0}``) and
    have no transitional relation in either direction.  The weight sums
    ``w_ik^+ + w_ki^+ + w_jk^+ + w_kj^+`` over ``V_k``.  Long-tail items
    are excluded to avoid unreliable relations (MGIR's 20/80 rule).
    Returns a CSR matrix of the transitional matrix's shape with
    ``W[i, j] = w_ij^-``.
    """
    size = transitional.shape[0]
    if transitional.shape[0] != transitional.shape[1]:
        raise ValueError("transitional matrix must be square")
    popular = np.asarray(popular_items, dtype=np.int64)
    if popular.size == 0:
        return sparse.csr_matrix((size, size))
    if popular.min() < 1 or popular.max() >= size:
        raise ValueError("popular item ids out of range")

    # Symmetrized strength s[i, k] = w_ik^+ + w_ki^+, rows in popularity
    # order; weight[a, b] = sum over common k of s[a, k] + s[b, k].
    sym = (transitional + transitional.T).tocsr()
    sub = sym[popular]
    binary = (sub > 0).astype(np.float64)
    sub_t, binary_t = sub.T.tocsr(), binary.T.tocsr()
    direct = sub[:, popular]

    def blocks():
        for lo, hi in _row_blocks([(sub, binary), (binary, sub)]):
            weights = sub[lo:hi] @ binary_t + binary[lo:hi] @ sub_t
            weights = _without(weights, direct[lo:hi] > 0)
            yield lo, _drop_diagonal(weights.tocsr(), lo)

    by_rank = _collect(blocks(), (popular.size, popular.size), None)
    rows = np.repeat(popular, np.diff(by_rank.indptr))
    result = _csr(rows, popular[by_rank.indices], by_rank.data, (size, size))
    return result.maximum(result.T)
