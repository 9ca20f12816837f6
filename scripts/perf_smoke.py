#!/usr/bin/env python
"""Perf smoke gate: fused substrate kernels must beat their unfused forms.

Times every fused op in the ``repro.nn`` fusion layer against its unfused
Tensor-op composition (``repro.nn.reference``) with a small min-of-N
budget, writes machine-readable results to ``BENCH_substrate.json``, and
exits nonzero if any fused op is slower than the composition it replaced.
Runnable locally and in CI alongside tier-1 tests:

    PYTHONPATH=src python scripts/perf_smoke.py [--rounds N] [--no-epoch]

``--json`` changes the output path; ``--no-epoch`` skips the end-to-end
epoch timing (the micro gate alone takes a few seconds).

Also runs the frozen-plan serving benchmark (``repro.serve.bench``),
writes ``BENCH_serve.json``, and fails if graph-free inference is not at
least ``SERVE_TARGET_SPEEDUP``x faster than the ``no_grad`` Tensor path
on the ml-100k profile.  ``--no-serve`` skips that section.

The run-store section (``repro.runs``) trains one smoke-scale run into
a throwaway cache, replays the same spec, and fails unless the replay
is a pure cache hit with bitwise-identical metrics.  The cold vs
cached timings and hit/miss counts land in the report under
``runstore``.  ``--no-runstore`` skips it.

The data section (``--no-data`` skips it) exercises the out-of-core
substrate end-to-end at full scale in a child process: generate a
>= 1M-user synthetic profile chunk-wise straight to an mmap store,
out-of-core 5-core filter, streaming leave-one-out split, one training
epoch (GRU4Rec + sampled cross-entropy through the streaming loader),
and chunked streaming evaluation.  The child self-reports its peak RSS
(``resource.getrusage``); the gate fails if it exceeds
``DATA_RSS_GATE_MB`` — a small multiple of the pipeline's bounded
working set (generation chunk + scoring block), far below what
materializing the dataset in RAM would need.  Results, including the
recorded (never silent) eval cap, land in ``BENCH_data.json``.

Finally, the retrieval section exercises the clustered ANN index
(``repro.serve.ann``) on a >= 100k-item synthetic catalog with mixture
structure, sweeping ``nprobe`` and recording recall@10 (vs the exact
``topk_from_scores`` oracle) against the scoring speedup — the gate
demands some ``nprobe`` reach ``RETRIEVAL_RECALL_TARGET`` recall at
``RETRIEVAL_SPEEDUP_TARGET``x — and checks that int8/fp16-quantized
frozen plans reproduce the fp64 eval metrics on ml-100k within
``QUANT_METRIC_TOL``.  Results land in ``BENCH_retrieval.json``;
``--no-retrieval`` skips the section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import finish, write_json_report  # noqa: E402
from repro.nn import (GRU, LSTM, LayerNorm, Tensor,  # noqa: E402
                      reference, scaled_dot_product_attention)
from repro.nn import functional as F  # noqa: E402

# Speedups at or above this mark a benchmark as meeting the PR-1
# acceptance bar; the hard *gate* is only >= 1.0 (never slower).
TARGET_SPEEDUP = 1.5

# The frozen-plan serving gate is a hard bar: graph-free inference must
# be at least this much faster than the no_grad Tensor path on the gate
# profile (ml-100k) for both gate models.
SERVE_TARGET_SPEEDUP = 2.0
SERVE_GATE_PROFILE = "ml-100k"
SERVE_MODELS = ("SASRec", "SSDRec")
SERVE_PROFILES = ("ml-100k", "beauty")

# ANN retrieval gate: some swept nprobe must reach this recall@10 at
# this speedup over exact scoring on the synthetic catalog.
RETRIEVAL_RECALL_TARGET = 0.95
RETRIEVAL_SPEEDUP_TARGET = 3.0
RETRIEVAL_CATALOG = 120_000
RETRIEVAL_DIM = 32
RETRIEVAL_QUERIES = 256
RETRIEVAL_NPROBES = (1, 2, 4, 8, 16, 32)

# Quantized plans must reproduce fp64 eval metrics within this absolute
# tolerance on the gate profile.
QUANT_METRIC_TOL = 0.05
QUANT_MODES = ("int8", "fp16")

# --- out-of-core data substrate gate ---------------------------------
# Peak child-process RSS allowed for the full-scale pipeline.  The
# pipeline's working set is bounded: a generation chunk (~100k users of
# event matrices), one store window (~chunk_events * 17 B), and one
# scoring block (score_chunk x vocab float64, ~230 MB at scale-1m) —
# the gate is a small multiple of that, and several times below the
# multi-GB footprint of materializing the same dataset as Python lists
# plus whole-split representation matrices.
DATA_RSS_GATE_MB = 1536
DATA_PROFILE = "scale-1m"
DATA_MIN_USERS = 1_000_000        # the profile must actually be full-scale
DATA_K_CORE = 5
DATA_MAX_LEN = 30
DATA_BATCH = 1024
DATA_DIM = 8
DATA_NEGATIVES = 128
# Full-vocab streaming eval is capped (and the cap recorded — never
# silent) so the gate stays minutes, not hours, on one CPU.
DATA_EVAL_CAP = 20_000
DATA_SCORE_CHUNK = 256            # 256 x 120k float64 ~= 235 MB / block


def best_time(fn, rounds: int) -> float:
    fn()  # warmup (also catches errors before timing)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def softmax_pair():
    x = Tensor(np.random.default_rng(0).normal(size=(256, 2000)),
               requires_grad=True)

    def fused():
        x.grad = None
        F.softmax(x).sum().backward()

    def unfused():
        x.grad = None
        reference.softmax_unfused(x).sum().backward()

    return fused, unfused


def log_softmax_pair():
    x = Tensor(np.random.default_rng(0).normal(size=(256, 2000)),
               requires_grad=True)

    def fused():
        x.grad = None
        F.log_softmax(x).sum().backward()

    def unfused():
        x.grad = None
        reference.log_softmax_unfused(x).sum().backward()

    return fused, unfused


def masked_softmax_pair():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(256, 500)), requires_grad=True)
    mask = rng.random((256, 500)) > 0.3

    def fused():
        x.grad = None
        F.masked_softmax(x, mask).sum().backward()

    def unfused():
        x.grad = None
        reference.masked_softmax_unfused(x, mask).sum().backward()

    return fused, unfused


def cross_entropy_pair():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(256, 2000)), requires_grad=True)
    targets = rng.integers(0, 2000, size=256)

    def fused():
        logits.grad = None
        F.cross_entropy(logits, targets).backward()

    def unfused():
        logits.grad = None
        reference.cross_entropy_unfused(logits, targets).backward()

    return fused, unfused


def linear_pair():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(256, 50, 32)), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 64)), requires_grad=True)
    b = Tensor(rng.normal(size=(64,)), requires_grad=True)

    def fused():
        x.grad = w.grad = b.grad = None
        F.linear(x, w, b).sum().backward()

    def unfused():
        x.grad = w.grad = b.grad = None
        reference.linear_unfused(x, w, b).sum().backward()

    return fused, unfused


def attention_pair():
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    k = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    v = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    mask = np.tril(np.ones((50, 50), dtype=bool))

    def fused():
        q.grad = k.grad = v.grad = None
        scaled_dot_product_attention(q, k, v, attn_mask=mask).sum().backward()

    def unfused():
        q.grad = k.grad = v.grad = None
        reference.attention_unfused(q, k, v, attn_mask=mask).sum().backward()

    return fused, unfused


def lstm_pair():
    lstm = LSTM(32, 32, rng=np.random.default_rng(0))
    cell = lstm.cell
    x = Tensor(np.random.default_rng(3).normal(size=(256, 50, 32)),
               requires_grad=True)

    def fused():
        lstm.zero_grad()
        x.grad = None
        outs, _ = lstm(x)
        outs.sum().backward()

    def unfused():
        lstm.zero_grad()
        x.grad = None
        h = Tensor(np.zeros((256, 32)))
        c = Tensor(np.zeros((256, 32)))
        outs = []
        for t in range(50):
            h, c = reference.lstm_step_unfused(x[:, t, :], h, c, cell.w_ih,
                                               cell.w_hh, cell.bias, 32)
            outs.append(h)
        Tensor.stack(outs, axis=1).sum().backward()

    return fused, unfused


def gru_pair():
    gru = GRU(32, 32, rng=np.random.default_rng(0))
    cell = gru.cell
    x = Tensor(np.random.default_rng(3).normal(size=(256, 50, 32)),
               requires_grad=True)

    def fused():
        gru.zero_grad()
        x.grad = None
        outs, _ = gru(x)
        outs.sum().backward()

    def unfused():
        gru.zero_grad()
        x.grad = None
        h = Tensor(np.zeros((256, 32)))
        outs = []
        for t in range(50):
            h = reference.gru_step_unfused(x[:, t, :], h, cell.w_ih,
                                           cell.w_hh, cell.b_ih, cell.b_hh,
                                           32)
            outs.append(h)
        Tensor.stack(outs, axis=1).sum().backward()

    return fused, unfused


def layer_norm_pair():
    norm = LayerNorm(64)
    x = Tensor(np.random.default_rng(4).normal(size=(256, 50, 64)),
               requires_grad=True)

    def fused():
        norm.zero_grad()
        x.grad = None
        norm(x).sum().backward()

    def unfused():
        norm.zero_grad()
        x.grad = None
        reference.layer_norm_unfused(x, norm.gamma, norm.beta,
                                     norm.eps).sum().backward()

    return fused, unfused


# name -> (pair factory, rounds multiplier for cheap cases)
BENCHES = {
    "softmax": softmax_pair,
    "log_softmax": log_softmax_pair,
    "masked_softmax": masked_softmax_pair,
    "cross_entropy": cross_entropy_pair,
    "linear": linear_pair,
    "attention_fwd_bwd": attention_pair,
    "lstm_recurrence": lstm_pair,
    "gru_recurrence": gru_pair,
    "layer_norm": layer_norm_pair,
}


def time_epoch(scale: str) -> dict:
    """End-to-end per-epoch training seconds (Table VI harness)."""
    import os

    os.environ["REPRO_SCALE"] = scale
    from repro.experiments import default_scale, table6_efficiency

    results = table6_efficiency.run(default_scale())
    return {
        "scale": scale,
        "training_seconds_per_epoch": results["training"],
        "inference_seconds": results["inference"],
    }


def serve_section(rounds: int) -> tuple:
    """Frozen-plan serving benchmark + its speedup gate.

    Returns ``(results, failures)``: the ``run_serve_bench`` grid and the
    list of gate models whose frozen path missed ``SERVE_TARGET_SPEEDUP``
    on the gate profile.
    """
    import os

    os.environ.setdefault("REPRO_SCALE", "smoke")
    from repro.experiments.config import SCALES
    from repro.serve.bench import render, run_serve_bench

    results = run_serve_bench(models=SERVE_MODELS, profiles=SERVE_PROFILES,
                              scale=SCALES["smoke"], rounds=rounds,
                              requests=64)
    print(render(results))
    failures = []
    for model in SERVE_MODELS:
        speedup = results[model][SERVE_GATE_PROFILE]["speedup"]
        if speedup < SERVE_TARGET_SPEEDUP:
            failures.append(
                f"serve:{model}@{SERVE_GATE_PROFILE} "
                f"({speedup:.2f}x < {SERVE_TARGET_SPEEDUP}x)")
    return results, failures


def runstore_section() -> tuple:
    """Cold-vs-cached run-store timing + cache-correctness gate.

    Returns ``(report_dict, failures)``.  Fails if the replay misses the
    cache or returns different metrics than the cold run.
    """
    import os
    import tempfile

    from repro.runs import RunStore, run_spec
    from repro.registry import model_spec

    os.environ.setdefault("REPRO_SCALE", "smoke")
    from repro.experiments.config import SCALES

    failures = []
    with tempfile.TemporaryDirectory(prefix="runstore-bench-") as root:
        store = RunStore(root)
        spec = run_spec("beauty", SCALES["smoke"], model_spec("GRU4Rec"))

        start = time.perf_counter()
        cold = store.run(spec)
        cold_s = time.perf_counter() - start
        cold_stats = store.stats()

        store.reset_stats()
        start = time.perf_counter()
        cached = store.run(spec)
        cached_s = time.perf_counter() - start
        cached_stats = store.stats()

        if cold.cached or cold_stats["misses"] != 1:
            failures.append("runstore:cold-run-was-not-a-miss")
        if not cached.cached or cached_stats["hits"] != 1 \
                or cached_stats["misses"] != 0:
            failures.append("runstore:replay-was-not-a-hit")
        if cached.test_metrics != cold.test_metrics:
            failures.append("runstore:cached-metrics-differ")

        speedup = cold_s / max(cached_s, 1e-9)
        print(f"  run {spec.content_hash()}: cold {cold_s:.2f}s "
              f"(train+persist), cached {cached_s*1e3:.1f}ms, "
              f"{speedup:.0f}x; hits={cached_stats['hits']} "
              f"misses={cold_stats['misses']}")
        report = {
            "run": spec.content_hash(),
            "cold_seconds": round(cold_s, 4),
            "cached_seconds": round(cached_s, 6),
            "speedup": round(speedup, 1),
            "cold_stats": cold_stats,
            "cached_stats": cached_stats,
        }
    return report, failures


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
    centers = rng.normal(size=(components, RETRIEVAL_DIM)) * 3.0
    table = centers[rng.integers(0, components, size=RETRIEVAL_CATALOG)] \
        + rng.normal(size=(RETRIEVAL_CATALOG, RETRIEVAL_DIM)) * 0.6
    queries = centers[rng.integers(0, components,
                                   size=RETRIEVAL_QUERIES)] \
        + rng.normal(size=(RETRIEVAL_QUERIES, RETRIEVAL_DIM)) * 0.6
    return table, queries


def retrieval_section(rounds: int) -> tuple:
    """ANN recall-vs-speedup sweep + quantized-plan metric parity.

    Returns ``(report_dict, failures)``.  Fails unless some swept
    ``nprobe`` reaches ``RETRIEVAL_RECALL_TARGET`` recall@10 at
    ``RETRIEVAL_SPEEDUP_TARGET``x over exact scoring, and unless every
    quantization mode stays within ``QUANT_METRIC_TOL`` of the fp64
    metrics on the gate profile.
    """
    import os

    from repro.eval import metric_report, recall_against_oracle
    from repro.serve import topk_from_scores
    from repro.serve.ann import build_ann_index

    failures = []
    table, queries = synthetic_catalog()

    start = time.perf_counter()
    index = build_ann_index(table, seed=0)
    build_s = time.perf_counter() - start

    def exact():
        return topk_from_scores(queries @ table.T, 10)

    oracle = exact()
    exact_s = best_time(exact, rounds)
    print(f"  catalog {RETRIEVAL_CATALOG:,} x {RETRIEVAL_DIM}, "
          f"{index.num_clusters} clusters (built in {build_s:.2f}s); "
          f"exact scoring {exact_s*1e3:.1f} ms / "
          f"{RETRIEVAL_QUERIES} queries")

    sweep = []
    gate_met = False
    for nprobe in RETRIEVAL_NPROBES:
        items, _ = index.search(queries, 10, nprobe)
        ann_s = best_time(lambda n=nprobe: index.search(queries, 10, n),
                          rounds)
        recall = recall_against_oracle(items, oracle)
        speedup = exact_s / ann_s
        ok = recall >= RETRIEVAL_RECALL_TARGET \
            and speedup >= RETRIEVAL_SPEEDUP_TARGET
        gate_met = gate_met or ok
        sweep.append({"nprobe": nprobe, "recall_at_10": round(recall, 4),
                      "ann_ms": round(ann_s * 1e3, 3),
                      "speedup": round(speedup, 2),
                      "meets_gate": ok})
        print(f"  nprobe={nprobe:<3d} recall@10={recall:.4f} "
              f"{ann_s*1e3:7.1f} ms  {speedup:5.2f}x"
              f"{'  << gate point' if ok else ''}")
    if not gate_met:
        failures.append(
            f"retrieval:no-nprobe-reaches-"
            f"{RETRIEVAL_RECALL_TARGET}-recall-at-"
            f"{RETRIEVAL_SPEEDUP_TARGET}x")

    # --- quantized-plan metric parity on the gate profile -------------
    os.environ.setdefault("REPRO_SCALE", "smoke")
    from repro.eval import Evaluator
    from repro.experiments.common import prepare
    from repro.experiments.config import SCALES
    from repro.registry import build, model_spec
    from repro.serve import freeze, quantize_plan

    scale = SCALES["smoke"]
    prepared = prepare(SERVE_GATE_PROFILE, scale, seed=0)
    model = build(model_spec("SASRec"), prepared, scale, rng=0)
    plan = freeze(model)
    evaluator = Evaluator(prepared.split.test,
                          batch_size=scale.batch_size,
                          max_len=prepared.max_len)
    exact_metrics = metric_report(evaluator.ranks_frozen(plan), ks=(10,))
    quant = {"profile": SERVE_GATE_PROFILE, "model": "SASRec",
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

    report = {
        "catalog_items": RETRIEVAL_CATALOG,
        "dim": RETRIEVAL_DIM,
        "queries": RETRIEVAL_QUERIES,
        "num_clusters": index.num_clusters,
        "build_seconds": round(build_s, 3),
        "exact_ms": round(exact_s * 1e3, 3),
        "recall_target": RETRIEVAL_RECALL_TARGET,
        "speedup_target": RETRIEVAL_SPEEDUP_TARGET,
        "sweep": sweep,
        "quantization": quant,
    }
    return report, failures


def data_worker(profile: str, root: Path) -> int:
    """Child-process body of the data gate: run the full out-of-core
    pipeline and print a single JSON line (timings, counts, metrics,
    peak RSS) as the last stdout line."""
    import resource

    from repro.data import (generate_to_store, leave_one_out_split,
                            stream_k_core_filter)
    from repro.eval import Evaluator
    from repro.models import GRU4Rec
    from repro.train import TrainConfig, Trainer

    timings = {}
    start = time.perf_counter()
    raw = generate_to_store(profile, root / "raw", seed=0)
    timings["generate_seconds"] = round(time.perf_counter() - start, 2)

    start = time.perf_counter()
    core = stream_k_core_filter(raw, root / f"core{DATA_K_CORE}",
                                min_seq_len=DATA_K_CORE,
                                min_item_freq=DATA_K_CORE)
    timings["k_core_seconds"] = round(time.perf_counter() - start, 2)

    split = leave_one_out_split(core, max_len=DATA_MAX_LEN)
    model = GRU4Rec(split.num_items, dim=DATA_DIM, max_len=DATA_MAX_LEN,
                    rng=np.random.default_rng(0))
    evaluator = Evaluator(split.valid.take(DATA_EVAL_CAP),
                          batch_size=DATA_BATCH, max_len=DATA_MAX_LEN,
                          score_chunk=DATA_SCORE_CHUNK)
    config = TrainConfig(epochs=1, batch_size=DATA_BATCH, seed=0,
                         patience=1)
    trainer = Trainer(
        model, split, config,
        loss_fn=lambda b: model.sampled_loss(b, DATA_NEGATIVES),
        evaluator=evaluator)
    start = time.perf_counter()
    result = trainer.fit()
    timings["epoch_plus_eval_seconds"] = round(
        time.perf_counter() - start, 2)
    timings["train_seconds_per_epoch"] = round(
        result.train_seconds_per_epoch, 2)

    payload = {
        "profile": profile,
        "raw": {"users": raw.num_users, "items": raw.num_items,
                "events": int(raw.indptr[-1]),
                "store_bytes": raw.nbytes()},
        "core": {"users": core.num_users, "items": core.num_items,
                 "events": int(core.indptr[-1]),
                 "store_bytes": core.nbytes()},
        "train_examples": len(split.train),
        "eval_cap": DATA_EVAL_CAP,
        "eval_examples": len(split.valid.take(DATA_EVAL_CAP)),
        "score_chunk": DATA_SCORE_CHUNK,
        "loss": "sampled_cross_entropy",
        "num_negatives": DATA_NEGATIVES,
        "timings": timings,
        "valid_metrics": result.history[0] if result.history else {},
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(payload))
    return 0


def data_section(profile: str) -> tuple:
    """Full-scale out-of-core pipeline gate, isolated in a subprocess.

    Returns ``(report_dict, failures)``.  The child runs the whole
    pipeline and self-reports ``ru_maxrss``, so the parent's own memory
    (other benchmark sections) cannot contaminate the measurement.
    """
    import shutil
    import subprocess

    root = REPO_ROOT / ".benchmarks" / "data-gate"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    failures = []
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--data-worker", "--data-profile", profile,
             "--data-root", str(root)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            return ({"profile": profile, "error": "worker failed"},
                    [f"data:worker-exit-{proc.returncode}"])
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(root, ignore_errors=True)

    report["rss_gate_mb"] = DATA_RSS_GATE_MB
    peak = report["peak_rss_mb"]
    print(f"  {profile}: {report['raw']['users']:,} users, "
          f"{report['raw']['items']:,} items, "
          f"{report['raw']['events']:,} events "
          f"({report['raw']['store_bytes'] / 2**20:.0f} MB on disk)")
    print(f"  generate {report['timings']['generate_seconds']}s, "
          f"{DATA_K_CORE}-core {report['timings']['k_core_seconds']}s "
          f"-> {report['core']['users']:,} users / "
          f"{report['core']['events']:,} events")
    print(f"  epoch+eval {report['timings']['epoch_plus_eval_seconds']}s "
          f"({report['train_examples']:,} train examples, eval capped at "
          f"{report['eval_cap']:,})")
    print(f"  peak RSS {peak:.0f} MB (gate {DATA_RSS_GATE_MB} MB)")
    if report["raw"]["users"] < DATA_MIN_USERS:
        failures.append(f"data:profile-not-full-scale-"
                        f"{report['raw']['users']}-users")
    if peak > DATA_RSS_GATE_MB:
        failures.append(f"data:peak-rss-{peak:.0f}MB"
                        f">{DATA_RSS_GATE_MB}MB")
    return report, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=15,
                        help="timing rounds per op (best-of)")
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "BENCH_substrate.json")
    parser.add_argument("--serve-json", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json")
    parser.add_argument("--no-epoch", action="store_true",
                        help="skip the end-to-end epoch timing")
    parser.add_argument("--no-serve", action="store_true",
                        help="skip the frozen-plan serving benchmark/gate")
    parser.add_argument("--no-runstore", action="store_true",
                        help="skip the run-store cold/cached benchmark/gate")
    parser.add_argument("--no-retrieval", action="store_true",
                        help="skip the ANN retrieval + quantization gate")
    parser.add_argument("--retrieval-json", type=Path,
                        default=REPO_ROOT / "BENCH_retrieval.json")
    parser.add_argument("--epoch-scale", default="smoke",
                        help="REPRO_SCALE for the epoch timing (smoke/quick)")
    parser.add_argument("--baseline-epoch-json", type=Path, default=None,
                        help="epoch timings from the pre-fusion tree (same "
                             "harness and scale); embedded for comparison")
    parser.add_argument("--no-data", action="store_true",
                        help="skip the full-scale out-of-core data gate")
    parser.add_argument("--data-json", type=Path,
                        default=REPO_ROOT / "BENCH_data.json")
    parser.add_argument("--data-profile", default=DATA_PROFILE,
                        help="full-scale profile for the data gate")
    parser.add_argument("--data-worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--data-root", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.data_worker:
        return data_worker(args.data_profile, args.data_root)

    baseline = None
    if args.baseline_epoch_json is not None:
        # Read up front so a bad path fails before minutes of timing.
        baseline = json.loads(args.baseline_epoch_json.read_text())

    report = {"rounds": args.rounds, "target_speedup": TARGET_SPEEDUP,
              "micro": {}}
    failures = []
    print(f"{'op':<20} {'fused ms':>10} {'unfused ms':>11} {'speedup':>8}")
    for name, factory in BENCHES.items():
        fused, unfused = factory()
        fused_s = best_time(fused, args.rounds)
        unfused_s = best_time(unfused, args.rounds)
        speedup = unfused_s / fused_s
        report["micro"][name] = {
            "fused_ms": round(fused_s * 1e3, 4),
            "unfused_ms": round(unfused_s * 1e3, 4),
            "speedup": round(speedup, 3),
            "meets_target": speedup >= TARGET_SPEEDUP,
        }
        flag = "" if speedup >= 1.0 else "  << SLOWER THAN UNFUSED"
        print(f"{name:<20} {fused_s*1e3:>10.2f} {unfused_s*1e3:>11.2f} "
              f"{speedup:>7.2f}x{flag}")
        if speedup < 1.0:
            failures.append(name)

    if not args.no_epoch:
        print("\ntiming one training epoch per method (Table VI harness)...")
        report["epoch"] = time_epoch(args.epoch_scale)
        if baseline is not None:
            report["epoch"]["baseline"] = baseline
        for method, per in report["epoch"]["training_seconds_per_epoch"].items():
            for dataset, seconds in per.items():
                line = f"  {method:<8} {dataset:<12} {seconds:.3f}s/epoch"
                if baseline is not None:
                    ref = baseline["training_seconds_per_epoch"][method][dataset]
                    line += f"  (baseline {ref:.3f}s, {ref / seconds:.2f}x)"
                print(line)

    write_json_report(args.json, report)

    if not args.no_serve:
        print("\nfrozen-plan serving benchmark (graph-free inference)...")
        serve_results, serve_failures = serve_section(rounds=3)
        write_json_report(args.serve_json, {
            "target_speedup": SERVE_TARGET_SPEEDUP,
            "gate_profile": SERVE_GATE_PROFILE,
            "results": serve_results,
        })
        failures.extend(serve_failures)

    if not args.no_runstore:
        print("\nrun-store cache benchmark (cold train vs cached replay)...")
        runstore_report, runstore_failures = runstore_section()
        report["runstore"] = runstore_report
        failures.extend(runstore_failures)
        write_json_report(args.json, report)

    if not args.no_retrieval:
        print("\nANN retrieval benchmark (recall@10 vs scoring speedup)...")
        retrieval_report, retrieval_failures = retrieval_section(rounds=3)
        write_json_report(args.retrieval_json, retrieval_report)
        failures.extend(retrieval_failures)

    if not args.no_data:
        print(f"\nout-of-core data gate ({args.data_profile}, "
              f"subprocess peak-RSS measurement)...")
        data_report, data_failures = data_section(args.data_profile)
        write_json_report(args.data_json, data_report)
        failures.extend(data_failures)

    met = sum(1 for r in report["micro"].values() if r["meets_target"])
    return finish(
        ok=not failures,
        ok_message=(f"all fused ops at least break even; "
                    f"{met}/{len(report['micro'])} exceed {TARGET_SPEEDUP}x; "
                    f"frozen serving gate "
                    f"{'skipped' if args.no_serve else 'passed'}"),
        fail_message=f"perf gate failures: {', '.join(failures)}")


if __name__ == "__main__":
    raise SystemExit(main())
