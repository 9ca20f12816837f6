"""Tests for autograd-aware sparse operations."""

import numpy as np
import pytest
from scipy import sparse

from repro.core import row_normalize, sparse_matmul, symmetric_normalize
from repro.core.sparse_ops import SparseRelation
from repro.nn import Tensor

RNG = np.random.default_rng(31)


class TestSparseMatmul:
    def test_value(self):
        A = sparse.random(5, 4, density=0.5, random_state=0, format="csr")
        X = Tensor(RNG.normal(size=(4, 3)))
        out = sparse_matmul(SparseRelation(A), X)
        np.testing.assert_allclose(out.data, A.toarray() @ X.data)

    def test_gradient(self):
        A = sparse.random(5, 4, density=0.5, random_state=0, format="csr")
        X = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        weights = RNG.normal(size=(5, 3))
        (sparse_matmul(SparseRelation(A), X)
         * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(X.grad, A.toarray().T @ weights, atol=1e-12)

    def test_shape_mismatch(self):
        A = sparse.identity(3, format="csr")
        with pytest.raises(ValueError):
            sparse_matmul(SparseRelation(A), Tensor(np.zeros((4, 2))))

    def test_prebuilt_relation_is_byte_equal_and_not_retransposed(
            self, monkeypatch):
        """Byte-equal to converting and transposing ``A`` per call."""
        A = sparse.random(6, 5, density=0.4, random_state=1, format="coo")
        relation = SparseRelation(A)
        weights = RNG.normal(size=(6, 3))
        data = RNG.normal(size=(5, 3))
        X = Tensor(data.copy(), requires_grad=True)
        out = sparse_matmul(relation, X)
        (out * Tensor(weights)).sum().backward()
        assert out.data.tobytes() == (A.tocsr() @ data).tobytes()
        assert X.grad.tobytes() == (A.tocsr().T.tocsr() @ weights).tobytes()
        # A relation's product converts nothing: no CSR copy, no
        # transpose.
        for cls in (sparse.csr_matrix, sparse.csc_matrix):
            monkeypatch.setattr(cls, "tocsr", None)
        sparse_matmul(relation, Tensor(data))
        with pytest.raises(TypeError):
            relation.matrix.tocsr()


class TestNormalization:
    def test_row_normalize_sums(self):
        A = sparse.csr_matrix(np.array([[1.0, 3.0], [0.0, 0.0]]))
        out = row_normalize(A)
        np.testing.assert_allclose(out.toarray(), [[0.25, 0.75], [0, 0]])

    def test_row_normalize_negative_weights(self):
        A = sparse.csr_matrix(np.array([[-1.0, 1.0]]))
        out = row_normalize(A).toarray()
        np.testing.assert_allclose(np.abs(out).sum(), 1.0)

    def test_symmetric_normalize(self):
        A = sparse.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        out = symmetric_normalize(A).toarray()
        np.testing.assert_allclose(out, [[0, 1], [1, 0]])
