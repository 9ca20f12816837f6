#!/usr/bin/env python
"""Retrieval gate: ANN recall against exact top-K speed, and quantized plans.

Exercises the clustered ANN index (``repro.serve.ann``) on a >= 100k-item
synthetic catalog with mixture structure, sweeping ``nprobe`` and
recording recall@10 (against the exact ``topk_from_scores`` oracle)
against the speedup over the exact serving path — the certified float32
score-and-select of ``FrozenPlan.topk``, the path an exact
``RecommendService`` runs.  The gate demands some ``nprobe`` reach
``RECALL_TARGET`` recall at ``SPEEDUP_TARGET``x.  It also checks that
int8/fp16-quantized frozen plans reproduce the fp64 eval metrics on
ml-100k within ``QUANT_METRIC_TOL``.  Results land in
``BENCH_retrieval.json`` (this script writes no other file); exits
nonzero when a gate fails:

    PYTHONPATH=src python scripts/retrieval_smoke.py [--rounds N]
        [--json BENCH_retrieval.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import finish, write_json_report  # noqa: E402

# Some swept nprobe must reach this recall@10 at this speedup over the
# exact path on the synthetic catalog.
RECALL_TARGET = 0.95
SPEEDUP_TARGET = 3.0
CATALOG = 120_000
DIM = 32
QUERIES = 256
NPROBES = (1, 2, 4, 8, 16, 32)
K = 10

# Quantized plans must reproduce fp64 eval metrics within this absolute
# tolerance on the gate profile.
QUANT_METRIC_TOL = 0.05
QUANT_MODES = ("int8", "fp16")
QUANT_PROFILE = "ml-100k"


def best_time(fn, rounds: int) -> float:
    fn()  # warmup (also catches errors before timing)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def synthetic_catalog(seed: int = 0):
    """A >= 100k-item catalog with mixture-of-Gaussians structure.

    Real item-embedding tables are clustered (genre, popularity band,
    co-purchase community), which is exactly what the index exploits;
    isotropic Gaussian noise is the worst case for any clustered index
    and does not model trained embeddings.  Queries are drawn around
    the same component centers.
    """
    rng = np.random.default_rng(seed)
    components = 64
    centers = rng.normal(size=(components, DIM)) * 3.0
    table = centers[rng.integers(0, components, size=CATALOG)] \
        + rng.normal(size=(CATALOG, DIM)) * 0.6
    queries = centers[rng.integers(0, components, size=QUERIES)] \
        + rng.normal(size=(QUERIES, DIM)) * 0.6
    return table, queries


def ann_section(rounds: int) -> tuple:
    """The recall-vs-speedup sweep; ``(report, failures)``."""
    from repro.eval import recall_against_oracle
    from repro.serve import topk_from_scores
    from repro.serve.ann import build_ann_index
    from repro.serve.plan import FrozenPlan

    failures = []
    table, queries = synthetic_catalog()
    # A bare plan over the catalog: the exact path a service serves.
    plan = FrozenPlan(table, max_len=1, masked_columns=())
    oracle = topk_from_scores(queries @ table.T, K)
    if not np.array_equal(plan.topk(queries, K)[0], oracle):
        failures.append("retrieval:exact-path-differs-from-oracle")

    start = time.perf_counter()
    index = build_ann_index(table, seed=0)
    build_s = time.perf_counter() - start

    buffer = np.empty((QUERIES, CATALOG), dtype=np.float32)
    exact_s = best_time(lambda: plan.topk(queries, K, out=buffer), rounds)
    float64_s = best_time(
        lambda: topk_from_scores(plan.score(queries), K), rounds)
    print(f"  catalog {CATALOG:,} x {DIM}, {index.num_clusters} clusters "
          f"(built in {build_s:.2f}s); exact top-{K} {exact_s*1e3:.1f} ms "
          f"(float64 score + select {float64_s*1e3:.1f} ms) / "
          f"{QUERIES} queries")

    sweep = []
    gate_met = False
    for nprobe in NPROBES:
        items, _ = index.search(queries, K, nprobe)
        ann_s = best_time(lambda n=nprobe: index.search(queries, K, n),
                          rounds)
        recall = recall_against_oracle(items, oracle)
        speedup = exact_s / ann_s
        ok = recall >= RECALL_TARGET and speedup >= SPEEDUP_TARGET
        gate_met = gate_met or ok
        sweep.append({"nprobe": nprobe, "recall_at_10": round(recall, 4),
                      "ann_ms": round(ann_s * 1e3, 3),
                      "speedup": round(speedup, 2),
                      "meets_gate": ok})
        print(f"  nprobe={nprobe:<3d} recall@10={recall:.4f} "
              f"{ann_s*1e3:7.1f} ms  {speedup:5.2f}x"
              f"{'  << gate point' if ok else ''}")
    if not gate_met:
        failures.append(f"retrieval:no-nprobe-reaches-{RECALL_TARGET}-"
                        f"recall-at-{SPEEDUP_TARGET}x")
    report = {
        "catalog_items": CATALOG,
        "dim": DIM,
        "queries": QUERIES,
        "num_clusters": index.num_clusters,
        "build_seconds": round(build_s, 3),
        "exact_path": "FrozenPlan.topk (certified float32)",
        "exact_ms": round(exact_s * 1e3, 3),
        "exact_float64_ms": round(float64_s * 1e3, 3),
        "recall_target": RECALL_TARGET,
        "speedup_target": SPEEDUP_TARGET,
        "sweep": sweep,
    }
    return report, failures


def quant_section() -> tuple:
    """Quantized-plan metric parity on the gate profile;
    ``(report, failures)``."""
    os.environ.setdefault("REPRO_SCALE", "smoke")
    from repro.eval import Evaluator, metric_report
    from repro.experiments.common import prepare
    from repro.experiments.config import SCALES
    from repro.registry import build, model_spec
    from repro.serve import freeze, quantize_plan

    failures = []
    scale = SCALES["smoke"]
    prepared = prepare(QUANT_PROFILE, scale, seed=0)
    model = build(model_spec("SASRec"), prepared, scale, rng=0)
    plan = freeze(model)
    evaluator = Evaluator(prepared.split.test,
                          batch_size=scale.batch_size,
                          max_len=prepared.max_len)
    exact_metrics = metric_report(evaluator.ranks_frozen(plan), ks=(10,))
    quant = {"profile": QUANT_PROFILE, "model": "SASRec",
             "tolerance": QUANT_METRIC_TOL, "fp64": exact_metrics,
             "modes": {}}
    for mode in QUANT_MODES:
        quantized = quantize_plan(plan, mode)
        restored = quantized.dequantize(verify=True)
        metrics = metric_report(evaluator.ranks_frozen(restored), ks=(10,))
        drift = max(abs(metrics[key] - exact_metrics[key])
                    for key in exact_metrics)
        fp64_bytes = sum(
            int(np.prod(qa.shape, dtype=np.int64)) * 8
            for qa in quantized.weights().values())
        quant["modes"][mode] = {
            "metrics": metrics, "max_abs_drift": round(drift, 5),
            "weight_bytes": quantized.nbytes(),
            "fp64_weight_bytes": fp64_bytes,
        }
        print(f"  {mode}: HR@10 {metrics['HR@10']:.4f} "
              f"(fp64 {exact_metrics['HR@10']:.4f}), max metric drift "
              f"{drift:.4f}, {quantized.nbytes():,} weight bytes "
              f"(fp64: {fp64_bytes:,})")
        if drift > QUANT_METRIC_TOL:
            failures.append(f"retrieval:{mode}-metric-drift-"
                            f"{drift:.4f}>{QUANT_METRIC_TOL}")
    return quant, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per path (best-of)")
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "BENCH_retrieval.json")
    args = parser.parse_args()

    print("ANN retrieval benchmark (recall@10 vs exact top-K speedup)...")
    report, failures = ann_section(args.rounds)
    print("\nquantized plans (eval metrics vs fp64)...")
    report["quantization"], quant_failures = quant_section()
    failures += quant_failures
    write_json_report(args.json, report)
    return finish(
        ok=not failures,
        ok_message="retrieval gate passed",
        fail_message=f"retrieval gate failures: {', '.join(failures)}")


if __name__ == "__main__":
    raise SystemExit(main())
