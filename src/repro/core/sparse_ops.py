"""Autograd-aware sparse operations bridging scipy.sparse and repro.nn.

The global relation encoder aggregates neighbor embeddings through fixed
(non-learnable) sparse relation matrices.  ``sparse_matmul`` provides the
single primitive needed: ``A @ X`` where ``A`` is a constant sparse matrix,
wrapped once in a :class:`SparseRelation`, and ``X`` a dense
parameter-dependent tensor.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..nn.tensor import Tensor, ensure_tensor


class SparseRelation:
    """A constant sparse operator in CSR form with its transpose built
    once, for :func:`sparse_matmul`'s backward (``matrix.T @ grad``)."""

    def __init__(self, matrix: sparse.spmatrix):
        self.matrix = matrix.tocsr()
        self.transposed = self.matrix.T.tocsr()

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


def sparse_matmul(relation: SparseRelation, x: Tensor) -> Tensor:
    """Differentiable ``relation.matrix @ x`` with a constant sparse
    operator.

    Gradient w.r.t. ``x`` is ``relation.transposed @ grad``; the
    operator itself never receives gradients (relation weights are
    data, not parameters).
    """
    x = ensure_tensor(x)
    if relation.shape[1] != x.shape[0]:
        raise ValueError(
            f"shape mismatch: {relation.shape} @ {x.shape}")
    out_data = relation.matrix @ x.data
    transposed = relation.transposed

    def backward(grad):
        return (transposed @ grad,)

    return Tensor._make(np.asarray(out_data), (x,), backward)


def row_normalize(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """L1-normalize each row (rows summing to zero stay zero)."""
    csr = matrix.tocsr().astype(np.float64)
    sums = np.asarray(np.abs(csr).sum(axis=1)).ravel()
    inv = np.where(sums > 0, 1.0 / np.maximum(sums, 1e-12), 0.0)
    return sparse.diags(inv) @ csr


def symmetric_normalize(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """LightGCN-style D^-1/2 A D^-1/2 normalization for bipartite propagation."""
    csr = matrix.tocsr().astype(np.float64)
    row_deg = np.asarray(csr.sum(axis=1)).ravel()
    col_deg = np.asarray(csr.sum(axis=0)).ravel()
    row_inv = np.where(row_deg > 0, 1.0 / np.sqrt(np.maximum(row_deg, 1e-12)), 0.0)
    col_inv = np.where(col_deg > 0, 1.0 / np.sqrt(np.maximum(col_deg, 1e-12)), 0.0)
    return sparse.diags(row_inv) @ csr @ sparse.diags(col_inv)
