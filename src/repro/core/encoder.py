"""Stage 1: the global relation encoder (Sec. III-B, III-C; Eqs. 1-8).

Encodes the five relation types of the multi-relation graph into
multi-relation representations ``h_v`` (items) and ``h_u`` (users):

* item-transitional (Eq. 2-3): a 2-way attention weighs incoming vs
  outgoing transitional neighbors, followed by the paper's stride-1
  ``2 x 1``-filter convolution merging the aggregate with the item's own
  embedding;
* item-incompatible (Eq. 4): same convolution, undirected neighbors;
* user-item interactional (Eq. 5): LightGCN-style lightweight propagation;
* user-similar / user-dissimilar (Eq. 6-7);
* fusion (Eq. 8): two feed-forward layers per node type.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.multi_relation import MultiRelationGraph
from ..nn import Embedding, Linear, Module, Tensor
from ..nn import functional as F
from ..nn.module import Parameter
from .sparse_ops import SparseRelation, row_normalize, sparse_matmul
from ..nn.rng import resolve_rng


class PairConv(Module):
    """The paper's "convolution operator with stride 1 and filter size 2x1".

    Applied to the 2 x d stack ``[aggregate ; self]``, a 2x1 filter sliding
    over the d positions is exactly a learned elementwise combination
    ``w_a * aggregate + w_b * self + bias``.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.w_agg = Parameter(np.full(1, 0.5) + rng.normal(0, 0.01, 1))
        self.w_self = Parameter(np.full(1, 0.5) + rng.normal(0, 0.01, 1))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, aggregate: Tensor, self_repr: Tensor) -> Tensor:
        return aggregate * self.w_agg + self_repr * self.w_self + self.bias


class GlobalRelationEncoder(Module):
    """Produce multi-relation representations for every user and item.

    The relation matrices are fixed data (row-normalized); only the
    embeddings, attention projections, PairConv filters, and fusion FFNs
    are learned.
    """

    def __init__(self, graph: MultiRelationGraph, dim: int = 32,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.num_users = graph.num_users
        self.num_items = graph.num_items
        self.rng = resolve_rng(rng)

        # Eq. 1: embedding look-up tables (id 0 = padding).
        self.item_embedding = Embedding(graph.num_items + 1, dim,
                                        padding_idx=0, rng=self.rng)
        self.user_embedding = Embedding(graph.num_users + 1, dim,
                                        padding_idx=0, rng=self.rng)

        # Fixed, normalized relation operators (each with its transpose
        # for the backward, built once here).
        def relation(matrix):
            return SparseRelation(row_normalize(matrix))

        self._trans_in = relation(graph.transitional.T)    # agg incoming
        self._trans_out = relation(graph.transitional)     # agg outgoing
        self._incomp = relation(graph.incompatible)
        self._uv = relation(graph.interactions)            # user->items
        self._vu = relation(graph.interactions.T)          # item->users
        self._uu_sim = relation(graph.similar_users)
        self._uu_dis = relation(graph.dissimilar_users)

        # Eq. 2: attention projections for incoming/outgoing aggregates.
        self.attn_in = Linear(dim, dim, bias=False, rng=self.rng)
        self.attn_out = Linear(dim, dim, bias=False, rng=self.rng)

        # Eq. 3/4/6/7: PairConv operators (separate parameters each).
        self.conv_trans = PairConv(dim, rng=self.rng)
        self.conv_incomp = PairConv(dim, rng=self.rng)
        self.conv_sim = PairConv(dim, rng=self.rng)
        self.conv_dis = PairConv(dim, rng=self.rng)

        # Eq. 8: fusion — two feed-forward layers per node type.
        self.fuse_item_1 = Linear(3 * dim, dim, rng=self.rng)
        self.fuse_item_2 = Linear(dim, dim, rng=self.rng)
        self.fuse_user_1 = Linear(3 * dim, dim, rng=self.rng)
        self.fuse_user_2 = Linear(dim, dim, rng=self.rng)

    # ------------------------------------------------------------------
    def item_relation_representations(self) -> Tuple[Tensor, Tensor, Tensor]:
        """Return ``(h_v^+, h_v^-, h_v^{u->v})`` for all items, (V+1, d)."""
        items = self.item_embedding.weight
        users = self.user_embedding.weight
        agg_in = sparse_matmul(self._trans_in, items)
        agg_out = sparse_matmul(self._trans_out, items)
        # Eq. 2: per-item 2-way attention over the two aggregates.
        score_in = (self.attn_in(items).relu() * agg_in).sum(
            axis=-1, keepdims=True) * (1.0 / np.sqrt(self.dim))
        score_out = (self.attn_out(items).relu() * agg_out).sum(
            axis=-1, keepdims=True) * (1.0 / np.sqrt(self.dim))
        alpha = F.softmax(Tensor.concat([score_in, score_out], axis=1), axis=1)
        mixed = agg_in * alpha[:, 0:1] + agg_out * alpha[:, 1:2]
        h_trans = self.conv_trans(mixed, items)                       # Eq. 3
        h_incomp = self.conv_incomp(
            sparse_matmul(self._incomp, items), items)                # Eq. 4
        h_from_users = sparse_matmul(self._vu, users)                 # Eq. 5
        return h_trans, h_incomp, h_from_users

    def user_relation_representations(self) -> Tuple[Tensor, Tensor, Tensor]:
        """Return ``(h_u^+, h_u^-, h_u^{v->u})`` for all users, (U+1, d)."""
        items = self.item_embedding.weight
        users = self.user_embedding.weight
        h_sim = self.conv_sim(sparse_matmul(self._uu_sim, users), users)  # Eq. 6
        h_dis = self.conv_dis(sparse_matmul(self._uu_dis, users), users)  # Eq. 7
        h_from_items = sparse_matmul(self._uv, items)                     # Eq. 5
        return h_sim, h_dis, h_from_items

    def forward(self) -> Tuple[Tensor, Tensor]:
        """Multi-relation representations ``(h_v, h_u)`` for all nodes (Eq. 8)."""
        v_plus, v_minus, v_inter = self.item_relation_representations()
        u_plus, u_minus, u_inter = self.user_relation_representations()
        h_v = self.fuse_item_2(
            self.fuse_item_1(
                Tensor.concat([v_plus, v_minus, v_inter], axis=1)).relu())
        h_u = self.fuse_user_2(
            self.fuse_user_1(
                Tensor.concat([u_plus, u_minus, u_inter], axis=1)).relu())
        # Residual on the raw embeddings keeps ids distinguishable even for
        # isolated nodes (no relations -> zero aggregates).
        return h_v + self.item_embedding.weight, h_u + self.user_embedding.weight
