"""Graph-free inference engine: frozen forward plans + batched serving.

``freeze(model)`` compiles a trained recommender into a pure-NumPy
executor (no autograd graph construction — enforced by the
``serve-graph-free`` lint rule); :class:`RecommendService` serves
micro-batched top-K requests on top of it, and :class:`ClusterService`
shards users across N worker processes for horizontal scale (the
``worker-boundary`` lint rule keeps the pipe protocol to plain NumPy +
primitives).  See docs/performance.md ("Serving", "Sharded serving")
for the design and ``repro.cli serve-bench`` / ``load-bench`` plus
``scripts/perf_smoke.py`` / ``scripts/load_smoke.py`` /
``scripts/retrieval_smoke.py`` for the numbers.
"""

from .ann import ANNIndex, DEFAULT_NPROBE, build_ann_index
from .cluster import ClusterService, ClusterStats, PlanSwapError
from .plan import (FallbackPlan, FrozenPlan, attach_ann_index, freeze)
from .quant import (QuantizedArray, QuantizedPlan, dequantize_array,
                    max_abs_error, quantize_array, quantize_plan)
from .retrieval import merge_topk, topk_from_scores
from .router import Router, shard_of
from .service import Recommendation, RecommendService, ServiceStats

__all__ = [
    "ANNIndex",
    "DEFAULT_NPROBE",
    "build_ann_index",
    "attach_ann_index",
    "ClusterService",
    "ClusterStats",
    "PlanSwapError",
    "FallbackPlan",
    "FrozenPlan",
    "freeze",
    "QuantizedArray",
    "QuantizedPlan",
    "quantize_array",
    "quantize_plan",
    "dequantize_array",
    "max_abs_error",
    "merge_topk",
    "topk_from_scores",
    "Router",
    "shard_of",
    "Recommendation",
    "RecommendService",
    "ServiceStats",
]
