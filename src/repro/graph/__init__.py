"""``repro.graph`` — multi-relation graph construction (Sec. III-A)."""

from ..data.dataset import interaction_matrix
from .multi_relation import (GraphConfig, MultiRelationGraph,
                             build_multi_relation_graph)
from .relations import (build_dissimilar, build_incompatible, build_similar,
                        build_transitional, prune_top_k)

__all__ = [
    "GraphConfig", "MultiRelationGraph", "build_multi_relation_graph",
    "build_transitional", "prune_top_k", "build_incompatible",
    "build_similar", "build_dissimilar", "interaction_matrix",
]
