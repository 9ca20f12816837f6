"""DCRec (Yang et al., WWW 2023): debiased contrastive sequential
recommendation.

DCRec is the paper's *debiased* comparator: it does not remove items but
disentangles genuine interest from conformity.  Two views of each user are
encoded — the temporal sequence (a causal Transformer) and an item
co-occurrence graph view (embedding propagation over the transition
graph) — and aligned with a contrastive (InfoNCE) loss whose per-example
weight reflects *conformity*: interactions with very popular items are
down-weighted as more likely conformity-driven than interest-driven.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from ..core.sparse_ops import row_normalize, sparse_matmul
from ..data.batching import Batch
from ..data.dataset import PAD_ID, InteractionDataset
from ..graph.relations import build_transitional
from ..models.sasrec import SASRec
from ..nn import Linear, Tensor
from ..nn import functional as F
from .base import SequenceDenoiser
from ..nn.rng import resolve_rng


class DCRec(SequenceDenoiser):
    """Debiased contrastive recommender (implicit; keeps all items)."""

    explicit = False

    def __init__(self, num_items: int, dim: int = 32, max_len: int = 50,
                 dataset: Optional[InteractionDataset] = None,
                 contrastive_weight: float = 0.2, temperature: float = 0.2,
                 num_layers: int = 2, dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_items = num_items
        self.dim = dim
        self.max_len = max_len
        self.contrastive_weight = contrastive_weight
        self.temperature = temperature
        self.rng = resolve_rng(rng)
        self.backbone = SASRec(num_items=num_items, dim=dim, max_len=max_len,
                               num_layers=num_layers, dropout=dropout,
                               rng=self.rng)
        self.graph_proj = Linear(dim, dim, rng=self.rng)
        if dataset is not None:
            adjacency = build_transitional(dataset, window=5)
            adjacency = adjacency + adjacency.T
            self._adjacency = row_normalize(adjacency)
            popularity = dataset.item_popularity().astype(np.float64)
        else:
            size = num_items + 1
            self._adjacency = sparse.identity(size, format="csr")
            popularity = np.ones(num_items + 1)
        # Conformity weight: popular targets -> lower weight (debiasing).
        pop = popularity / max(popularity.max(), 1.0)
        self._conformity = 1.0 / (1.0 + np.exp(4.0 * (pop - 0.5)))

    # ------------------------------------------------------------------
    def _graph_view(self, items: np.ndarray, mask: np.ndarray) -> Tensor:
        """Sequence representation from the co-occurrence graph view."""
        table = self.backbone.item_embedding.weight
        propagated = sparse_matmul(self._adjacency, table)  # (V+1, d)
        states = propagated.take(items.reshape(-1), axis=0).reshape(
            (*items.shape, self.dim))
        weights = np.asarray(mask, np.float64)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        pooled = (states * Tensor(weights[:, :, None])).sum(axis=1) / Tensor(denom)
        return self.graph_proj(pooled)

    def forward(self, items: np.ndarray,
                mask: Optional[np.ndarray] = None) -> Tensor:
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        return self.backbone.score(self.backbone.encode(items, mask))

    def loss(self, batch: Batch) -> Tensor:
        seq_rep = self.backbone.encode(batch.items, batch.mask)  # (B, d)
        logits = self.backbone.score(seq_rep)
        rec = F.cross_entropy(logits, batch.targets)
        # Debiased contrastive alignment of the two views.
        graph_rep = self._graph_view(batch.items, batch.mask)
        contrast = self._info_nce(seq_rep, graph_rep,
                                  self._conformity[batch.targets])
        return rec + self.contrastive_weight * contrast

    def _info_nce(self, a: Tensor, b: Tensor, weights: np.ndarray) -> Tensor:
        """Weighted InfoNCE: positives on the diagonal, in-batch negatives."""
        a_norm = a / ((a * a).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        b_norm = b / ((b * b).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        sim = (a_norm @ b_norm.transpose()) / self.temperature  # (B, B)
        logp = F.log_softmax(sim, axis=-1)
        diag = logp[np.arange(sim.shape[0]), np.arange(sim.shape[0])]
        w = Tensor(np.asarray(weights, np.float64))
        return -(diag * w).sum() / max(float(w.data.sum()), 1e-8)
