"""``repro.core`` — the SSDRec framework (the paper's primary contribution)."""

from .augmentation import (AugmentationResult, InconsistencyScorer,
                           SelfAugmentation)
from .encoder import GlobalRelationEncoder, PairConv
from .gates import GATES, SparseAttentionGate, ThresholdGate
from .hierarchical import DenoisingResult, HierarchicalDenoising
from .sparse_ops import (SparseRelation, row_normalize, sparse_matmul,
                         symmetric_normalize)
from .ssdrec import SSDRec, SSDRecConfig

__all__ = [
    "SSDRec", "SSDRecConfig",
    "GlobalRelationEncoder", "PairConv",
    "SelfAugmentation", "InconsistencyScorer", "AugmentationResult",
    "HierarchicalDenoising", "DenoisingResult",
    "GATES", "SparseAttentionGate", "ThresholdGate",
    "SparseRelation", "sparse_matmul", "row_normalize", "symmetric_normalize",
]
