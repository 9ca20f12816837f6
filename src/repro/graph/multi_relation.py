"""The multi-relation graph ``G`` (Sec. III-A, Fig. 3).

``G = (N, E)`` has user and item nodes and five edge types:

* ``E_vv_plus``  — directed transitional item relations,
* ``E_vv_minus`` — undirected incompatible item relations (popular items),
* ``E_uv``       — user-item interactions weighted by count,
* ``E_uu_plus``  — undirected similar-user relations,
* ``E_uu_minus`` — undirected dissimilar-user relations.

:func:`build_multi_relation_graph` derives all five from any
:class:`~repro.data.dataset.SequenceView` — the in-memory
``InteractionDataset`` or the mmap ``InteractionStore`` — in a purely
data-driven way (no labels, no side features), exactly as the paper
requires.  The relations are built by the vectorized functions of
:mod:`repro.graph.relations`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

import networkx as nx
import numpy as np
from scipy import sparse

from ..data.dataset import SequenceView, interaction_matrix
from ..data.preprocessing import split_by_count
from .relations import (build_dissimilar, build_incompatible, build_similar,
                        build_transitional, prune_top_k)

#: Dissimilar pairs whose item rows :meth:`MultiRelationGraph.validate`
#: gathers at a time for the co-interaction check.
VALIDATE_BLOCK_PAIRS = 1 << 18


@dataclass
class GraphConfig:
    """Hyper-parameters of graph construction.

    ``item_head_fraction`` / ``user_head_fraction`` implement the paper's
    few-shot ratios (Sec. IV-A3: items 0.8, users 0.9 — interpreted as the
    fraction of *most active* ids eligible for negative-relation
    construction, following the 20/80 principle of MGIR).
    """

    item_head_fraction: float = 0.2
    user_head_fraction: float = 0.2
    transition_window: Optional[int] = 10
    max_neighbors: Optional[int] = 30


@dataclass
class MultiRelationGraph:
    """Container for the five relation matrices (all id-indexed, row 0 empty)."""

    num_users: int
    num_items: int
    interactions: sparse.csr_matrix        # E_uv  (U+1, V+1)
    transitional: sparse.csr_matrix        # E_vv+ (V+1, V+1), directed
    incompatible: sparse.csr_matrix        # E_vv- (V+1, V+1), symmetric
    similar_users: sparse.csr_matrix       # E_uu+ (U+1, U+1), symmetric
    dissimilar_users: sparse.csr_matrix    # E_uu- (U+1, U+1), symmetric
    config: GraphConfig = field(default_factory=GraphConfig)

    def relation_counts(self) -> Dict[str, int]:
        """Number of edges per relation type (directed counts)."""
        return {
            "interacted": self.interactions.nnz,
            "transitional": self.transitional.nnz,
            "incompatible": self.incompatible.nnz,
            "similar": self.similar_users.nnz,
            "dissimilar": self.dissimilar_users.nnz,
        }

    def validate(self) -> None:
        """Check the structural invariants promised by Sec. III-A.

        Raises ``AssertionError`` (explicitly, so ``python -O`` keeps
        the checks) naming the first offending pair when

        * an incompatible pair also has a transitional edge,
        * the incompatible matrix is not symmetric, or
        * a dissimilar pair co-interacted with an item.

        Every check is a sparse elementwise op; the co-interaction test
        gathers both users' item rows for :data:`VALIDATE_BLOCK_PAIRS`
        dissimilar pairs at a time, so no ``U x U`` product is formed.
        """
        sym_t = self.transitional + self.transitional.T
        clash = self.incompatible.multiply(sym_t != 0).tocoo()
        if clash.nnz:
            raise AssertionError(
                f"incompatible pair ({clash.row[0]},{clash.col[0]}) also "
                f"has a transitional edge")
        diff = self.incompatible - self.incompatible.T
        if not abs(diff).sum() < 1e-9:
            raise AssertionError("incompatible matrix must be symmetric")
        dis = self.dissimilar_users.tocoo()
        items = (self.interactions > 0).astype(np.float64).tocsr()
        for lo in range(0, dis.nnz, VALIDATE_BLOCK_PAIRS):
            rows = dis.row[lo:lo + VALIDATE_BLOCK_PAIRS]
            cols = dis.col[lo:lo + VALIDATE_BLOCK_PAIRS]
            shared = items[rows].multiply(items[cols]).getnnz(axis=1)
            if shared.any():
                at = int(np.flatnonzero(shared)[0])
                raise AssertionError(
                    f"dissimilar pair ({rows[at]},{cols[at]}) "
                    f"co-interacted with an item")

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export to a NetworkX multigraph for inspection/analysis.

        Nodes are ``("user", id)`` / ``("item", id)``; edges carry a
        ``relation`` attribute in {transitional, incompatible, interacted,
        similar, dissimilar} and a ``weight``.
        """
        graph = nx.MultiDiGraph()
        graph.add_nodes_from(("user", u) for u in range(1, self.num_users + 1))
        graph.add_nodes_from(("item", v) for v in range(1, self.num_items + 1))

        def add(matrix, kind, src, dst, symmetric):
            coo = matrix.tocoo()
            for i, j, w in zip(coo.row, coo.col, coo.data):
                if symmetric and i > j:
                    continue
                graph.add_edge((src, int(i)), (dst, int(j)),
                               relation=kind, weight=float(w))

        add(self.transitional, "transitional", "item", "item", False)
        add(self.incompatible, "incompatible", "item", "item", True)
        add(self.interactions, "interacted", "user", "item", False)
        add(self.similar_users, "similar", "user", "user", True)
        add(self.dissimilar_users, "dissimilar", "user", "user", True)
        return graph


def build_multi_relation_graph(view: SequenceView,
                               config: Optional[GraphConfig] = None,
                               timings: Optional[Dict[str, float]] = None
                               ) -> MultiRelationGraph:
    """Construct all five relation types from raw interaction data.

    ``view`` is read in windows of whole users holding at most
    :data:`~repro.data.dataset.DEFAULT_CHUNK_EVENTS` events; a view that
    fits one window yields exactly the reference loops' matrices (:mod:`repro.graph.reference`).  When
    given, ``timings`` receives each relation's build seconds (pruning
    and symmetrization included), keyed like :meth:`relation_counts`.
    """
    config = config or GraphConfig()
    k = config.max_neighbors

    with _timed(timings, "interacted"):
        interactions = interaction_matrix(view)
    with _timed(timings, "transitional"):
        transitional = build_transitional(view, config.transition_window)
        if k:
            transitional = prune_top_k(transitional, k)
    with _timed(timings, "incompatible"):
        counts = np.asarray(interactions.sum(axis=0)).ravel()
        popular, _ = split_by_count(counts.astype(np.int64),
                                    config.item_head_fraction)
        incompatible = build_incompatible(transitional, popular)
        if k:
            incompatible = prune_top_k(incompatible, k)
            incompatible = incompatible.maximum(incompatible.T)
    with _timed(timings, "similar"):
        active_users = _active_users(interactions, config.user_head_fraction)
        similar = build_similar(interactions, active_users, max_neighbors=k)
        if k:
            similar = similar.maximum(similar.T)
    with _timed(timings, "dissimilar"):
        dissimilar = build_dissimilar(interactions, similar, max_neighbors=k)
        if k:
            dissimilar = dissimilar.maximum(dissimilar.T)

    return MultiRelationGraph(
        num_users=view.num_users,
        num_items=view.num_items,
        interactions=interactions,
        transitional=transitional,
        incompatible=incompatible,
        similar_users=similar,
        dissimilar_users=dissimilar,
        config=config,
    )


@contextmanager
def _timed(timings: Optional[Dict[str, float]], name: str):
    """Record the block's seconds as ``timings[name]`` (when given)."""
    start = time.perf_counter()
    yield
    if timings is not None:
        timings[name] = time.perf_counter() - start


def _active_users(interactions: sparse.csr_matrix,
                  head_fraction: float) -> np.ndarray:
    """Ids of the most active users (head of the activity distribution)."""
    activity = np.asarray(interactions.sum(axis=1)).ravel()
    users = np.argsort(-activity[1:]) + 1
    cut = max(1, int(round(head_fraction * (interactions.shape[0] - 1))))
    return users[:cut]
