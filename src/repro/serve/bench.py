"""Serving benchmark: graph vs frozen inference, latency and throughput.

Measures, per (model, dataset profile):

* ``graph_seconds`` / ``frozen_seconds`` — serving the same top-K
  request workload through the ``no_grad`` Tensor path (one
  ``forward_batch`` per request: without the engine there is no
  micro-batching, no frozen plan) vs :class:`RecommendService`'s
  micro-batched frozen path.  ``speedup`` is their ratio — the gate
  metric: it measures what the serving engine actually delivers.
* ``eval_graph_seconds`` / ``eval_frozen_seconds`` — one batched
  full-ranking pass over the test split, graph vs a pre-compiled plan
  (``Evaluator.ranks_frozen``); ``eval_speedup`` is their ratio.  This
  isolates the executor itself from the batching win; at toy scales both
  sides are ufunc-dispatch-bound so the ratio is modest.
* ``freeze_seconds`` — plan compilation cost, reported separately
  (paid once per weight snapshot, amortized over every request).
* ``latency_p50_ms`` / ``latency_p95_ms`` — *steady-state*
  single-request latency of
  :class:`~repro.serve.service.RecommendService.recommend` (cache
  disabled, so every request pays a full encode): the service is warmed
  up first and every request is sampled over multiple passes, so
  one-time startup costs never land in the percentiles.
* ``throughput_users_per_s`` — micro-batched throughput of
  ``recommend_many`` over the same requests.

Untrained (randomly initialised) weights are used by default: wall-clock
cost is what matters here, and it does not depend on the parameter
values.  Pass ``trained=True`` to restore trained weights from the
shared :class:`~repro.runs.RunStore` instead (training on first use) —
useful when the recommendation *outputs* of the benchmarked service are
inspected too.

This module is exempt from the ``serve-graph-free`` lint rule — it
deliberately exercises the Tensor path as the baseline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..eval import Evaluator
from ..experiments.common import prepare
from ..experiments.config import Scale, default_scale
from ..registry import build, model_spec
from .ann import DEFAULT_NPROBE
from .plan import attach_ann_index, freeze
from .service import RecommendService

DEFAULT_MODELS = ("SASRec", "SSDRec")
DEFAULT_PROFILES = ("ml-100k", "beauty")


def _best(fn, rounds: int) -> float:
    """Best-of-``rounds`` wall-clock seconds (one untimed warmup)."""
    fn()
    return min(_timed(fn) for _ in range(max(1, rounds)))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _graph_serve(model, reqs, max_len: int, k: int) -> None:
    """Serve ``reqs`` through the ``no_grad`` Tensor path, one at a time.

    This is the pre-engine baseline: no frozen plan, no micro-batching —
    each request pads its own sequence, runs a batch-of-one
    ``forward_batch`` through the graph, and extracts top-K.
    """
    from ..data.batching import Batch, pad_sequences
    from ..nn import no_grad
    from .retrieval import topk_from_scores

    batch_forward = getattr(model, "forward_batch", None)
    was_training = getattr(model, "training", False)
    model.eval()
    try:
        with no_grad():
            for user, seq in reqs:
                items, mask, lengths = pad_sequences([list(seq)], max_len)
                if batch_forward is not None:
                    logits = batch_forward(Batch(
                        users=np.array([user]), items=items, mask=mask,
                        lengths=lengths,
                        targets=np.zeros(1, dtype=np.int64)))
                else:
                    logits = model.forward(items, mask)
                topk_from_scores(np.asarray(logits.data), k)
    finally:
        if was_training:
            model.train()


def bench_model(model, prepared, scale: Scale, rounds: int = 3,
                requests: int = 128, k: int = 10,
                workers: int = 1, retrieval: str = "exact",
                nprobe: int = DEFAULT_NPROBE) -> Dict[str, float]:
    """Benchmark one model on one prepared dataset.

    ``retrieval="ann"`` serves the frozen path through the clustered
    MIPS index at the given ``nprobe`` (the graph baseline stays exact —
    the speedup then includes the approximate-retrieval win).
    """
    evaluator = Evaluator(prepared.split.test, batch_size=scale.batch_size,
                          max_len=prepared.max_len)

    freeze_s = _best(lambda: freeze(model), rounds)
    plan = freeze(model)
    ann_ok = retrieval == "ann" and plan.supports_encode
    if ann_ok:
        attach_ann_index(plan)
    serve_kwargs = {"retrieval": "ann", "nprobe": nprobe} if ann_ok else {}

    eval_graph_s = _best(lambda: evaluator.ranks(model), rounds)
    eval_frozen_s = _best(lambda: evaluator.ranks_frozen(plan), rounds)

    examples = list(prepared.split.test)
    reqs = [(ex.user, tuple(ex.sequence))
            for ex in (examples * (requests // len(examples) + 1))[:requests]]

    graph_s = _best(lambda: _graph_serve(model, reqs, prepared.max_len, k),
                    rounds)

    # Steady-state single-request latency: warm the service first (the
    # first flush pays one-time costs — allocator warmup, lazy imports —
    # that belong to startup, not to the p95), then sample every request
    # across ``rounds`` full passes.
    service = RecommendService(plan, k=k, cache_size=0, **serve_kwargs)
    for user, seq in reqs[:8]:
        service.recommend(user, seq)
    latencies = np.array([_timed(lambda r=r: service.recommend(*r))
                          for _ in range(max(1, rounds)) for r in reqs])

    service = RecommendService(plan, k=k, cache_size=0, **serve_kwargs)
    frozen_s = _best(lambda: service.recommend_many(reqs), rounds)

    metrics = {
        "graph_seconds": graph_s,
        "frozen_seconds": frozen_s,
        "speedup": graph_s / frozen_s if frozen_s > 0 else float("inf"),
        "eval_graph_seconds": eval_graph_s,
        "eval_frozen_seconds": eval_frozen_s,
        "eval_speedup": (eval_graph_s / eval_frozen_s
                         if eval_frozen_s > 0 else float("inf")),
        "freeze_seconds": freeze_s,
        "latency_p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "latency_p95_ms": float(np.percentile(latencies, 95) * 1e3),
        "throughput_users_per_s": (len(reqs) / frozen_s if frozen_s > 0
                                   else float("inf")),
        "requests": len(reqs),
        "latency_rounds": max(1, rounds),
        "retrieval": "ann" if ann_ok else "exact",
    }
    if ann_ok:
        metrics["nprobe"] = int(nprobe)
    if workers > 1:
        from .cluster import ClusterService

        with ClusterService(plan, num_workers=workers, k=k,
                            cache_size=0, **serve_kwargs) as cluster:
            cluster_s = _best(lambda: cluster.recommend_many(reqs), rounds)
        metrics.update({
            "cluster_workers": workers,
            "cluster_seconds": cluster_s,
            "cluster_throughput_users_per_s": (
                len(reqs) / cluster_s if cluster_s > 0 else float("inf")),
        })
    return metrics


def run_serve_bench(models: Sequence[str] = DEFAULT_MODELS,
                    profiles: Sequence[str] = DEFAULT_PROFILES,
                    scale: Optional[Scale] = None, seed: int = 0,
                    rounds: int = 3, requests: int = 128, k: int = 10,
                    trained: bool = False, workers: int = 1,
                    retrieval: str = "exact",
                    nprobe: int = DEFAULT_NPROBE) -> Dict[str, dict]:
    """Full benchmark grid; returns ``{model: {profile: metrics}}``.

    ``trained=True`` restores each model from the run store (training it
    on a cache miss) instead of benchmarking random weights.
    ``workers > 1`` additionally times a :class:`~repro.serve.cluster.
    ClusterService` with that many shard workers over the same requests
    (``cluster_*`` keys; ``scripts/load_smoke.py`` is the full
    sustained-load harness).
    """
    scale = scale or default_scale()
    results: Dict[str, dict] = {}
    for profile in profiles:
        prepared = prepare(profile, scale, seed=seed)
        for name in models:
            if trained:
                from ..runs import default_store, run_spec
                store = default_store()
                spec = run_spec(profile, scale, model_spec(name), seed=seed)
                model = store.load_model(spec)
                prepared = store.prepared(spec)
            else:
                model = build(model_spec(name), prepared, scale, rng=seed)
            results.setdefault(name, {})[profile] = bench_model(
                model, prepared, scale, rounds=rounds, requests=requests,
                k=k, workers=workers, retrieval=retrieval, nprobe=nprobe)
    return results


def render(results: Dict[str, dict]) -> str:
    lines: List[str] = ["Serving benchmark — graph vs frozen inference "
                        "(serve: per-request graph vs micro-batched frozen; "
                        "eval: batched full-ranking pass)"]
    header = (f"{'model':<10}{'profile':<10}{'graph_s':>9}{'frozen_s':>9}"
              f"{'speedup':>9}{'eval_spd':>9}{'p50_ms':>8}{'p95_ms':>8}"
              f"{'users/s':>9}")
    lines.append(header)
    for name, per_profile in results.items():
        for profile, m in per_profile.items():
            lines.append(
                f"{name:<10}{profile:<10}{m['graph_seconds']:>9.3f}"
                f"{m['frozen_seconds']:>9.3f}{m['speedup']:>8.2f}x"
                f"{m['eval_speedup']:>8.2f}x"
                f"{m['latency_p50_ms']:>8.2f}{m['latency_p95_ms']:>8.2f}"
                f"{m['throughput_users_per_s']:>9.1f}"
                + (f"  cluster[{m['cluster_workers']}w] "
                   f"{m['cluster_throughput_users_per_s']:,.1f} users/s"
                   if "cluster_workers" in m else ""))
    return "\n".join(lines)
