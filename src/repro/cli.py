"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``datasets``
    Print the Table II statistics of all synthetic datasets.
``train``
    Train one model (a backbone, a denoiser, or SSDRec) on one dataset
    profile and report test metrics; optionally save a checkpoint.  Runs
    go through the content-addressed run store (``benchmarks/runs/``), so
    repeating a command restores the cached result instead of retraining
    (disable with ``--no-cache``).
``experiment``
    Run a named paper experiment (table2..table6, fig1, fig4, fig5).
``generate``
    Generate a synthetic profile chunk-wise straight into an mmap
    interaction store (full-scale profiles like ``scale-1m`` never
    exist in RAM); optionally follow with the out-of-core k-core.
``ingest``
    Stream a raw interaction file (ML-100K ``u.data``, Amazon ratings
    CSV, Yelp ``review.json``) into an mmap store with the out-of-core
    two-pass group-by.
``explain``
    Train SSDRec briefly and print per-user three-stage traces.
``serve-bench``
    Benchmark frozen-plan (graph-free) inference against the ``no_grad``
    Tensor path: evaluator speedup, request latency, batched throughput.
    ``--workers N`` also times the sharded multi-process cluster.
``load-bench``
    Sustained-load benchmark of the sharded serving cluster: seeded Zipf
    traffic, open-loop QPS ramp, saturation throughput for 1/2/4
    workers, and a worker-kill chaos burst (``--gates`` enforces the
    load gates, as ``scripts/load_smoke.py`` does).
``lint``
    Run the AST static checker (:mod:`repro.analysis.lint`) over the
    installed ``repro`` package: thin wrapper over ``run_lint`` honoring
    ``--rules``/``--json``; exits non-zero on violations.
    ``scripts/static_check.py`` is the fuller CI gate (report file,
    scripts sweep, plan footprints).

Examples
--------
::

    python -m repro.cli datasets
    python -m repro.cli train --model SSDRec --dataset beauty --epochs 10
    python -m repro.cli train --model GRU4Rec --dataset scale-1m \
        --backend stream --epochs 1
    python -m repro.cli generate --profile scale-1m --out stores/1m --k-core 5
    python -m repro.cli ingest data/ml-100k/u.data --format ml-100k \
        --out stores/ml100k
    python -m repro.cli train --model SASRec --dataset ml-100k --save out.npz
    python -m repro.cli experiment table5 --scale smoke
    python -m repro.cli explain --dataset ml-100k --users 3
    python -m repro.cli serve-bench --models SASRec SSDRec --json bench.json
    python -m repro.cli serve-bench --models SASRec --workers 4
    python -m repro.cli load-bench --dataset ml-100k --gates
    python -m repro.cli lint --rules dtype-discipline atomic-persistence
"""

from __future__ import annotations

import argparse
import shutil
import sys
from typing import Optional

from .data import generate
from .experiments import SCALES
from .experiments import (ext_noise_sweep, fig1_oup, fig4_case_study,
                          fig5_tau, significance_runs, table2_datasets,
                          table3_backbones, table4_denoisers,
                          table5_ablation, table6_efficiency)
from .registry import available_models, model_spec
from .resilience import install_env_plan
from .runs import default_store, run_spec

EXPERIMENTS = {
    "table2": table2_datasets,
    "table3": table3_backbones,
    "table4": table4_denoisers,
    "table5": table5_ablation,
    "table6": table6_efficiency,
    "fig1": fig1_oup,
    "fig4": fig4_case_study,
    "fig5": fig5_tau,
    "significance": significance_runs,
    "noise-sweep": ext_noise_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SSDRec reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print dataset statistics (Table II)")

    train = sub.add_parser("train", help="train one model on one dataset")
    train.add_argument("--model", required=True,
                       choices=list(available_models()))
    train.add_argument("--dataset", default="beauty",
                       choices=["ml-100k", "ml-1m", "beauty", "sports",
                                "yelp", "scale-1m", "scale-2m", "scale-4m"])
    train.add_argument("--backend", default="memory",
                       choices=["memory", "stream"],
                       help="data substrate: in-memory lists or the mmap "
                            "store + streaming pipeline (required for the "
                            "full-scale scale-* profiles)")
    train.add_argument("--dim", type=int, default=32)
    train.add_argument("--max-len", type=int, default=20)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--scale", type=float, default=0.5,
                       help="synthetic dataset size multiplier")
    train.add_argument("--save", default=None,
                       help="write a checkpoint (.npz) after training")
    train.add_argument("--no-cache", action="store_true",
                       help="retrain even if this run is already in the "
                            "run store")
    train.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from its last "
                            "completed epoch (the run store keeps a "
                            "crash-resume point; final metrics are "
                            "bitwise-identical to an uninterrupted run)")
    train.add_argument("--profile", action="store_true",
                       help="print per-op substrate timings after training "
                            "(implies --no-cache)")
    train.add_argument("--sanitize", action="store_true",
                       help="train under the autograd sanitizer (version "
                            "counters, NaN/Inf and broadcast-grad checks, "
                            "dead-gradient report; implies --no-cache)")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", default="quick",
                            choices=sorted(SCALES))
    experiment.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate",
                         help="generate a synthetic profile straight to an "
                              "mmap interaction store")
    gen.add_argument("--profile", default="scale-1m",
                     help="any named profile (beauty, ..., scale-1m/2m/4m)")
    gen.add_argument("--out", required=True, help="store directory to write")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0,
                     help="multiplier on the profile's user count")
    gen.add_argument("--noise-rate", type=float, default=None)
    gen.add_argument("--chunk-users", type=int, default=100_000,
                     help="users generated per chunk (bounds peak memory)")
    gen.add_argument("--k-core", type=int, default=None, metavar="K",
                     help="also write the out-of-core K-core filtered "
                          "store to <out>-core<K>")
    gen.add_argument("--verify", action="store_true",
                     help="re-hash all columns against the manifest after "
                          "writing")

    ingest = sub.add_parser("ingest",
                            help="stream a raw interaction file into an "
                                 "mmap interaction store")
    ingest.add_argument("source", help="raw file (u.data / ratings CSV / "
                                       "review.json)")
    ingest.add_argument("--format", required=True, dest="fmt",
                        choices=["ml-100k", "amazon", "yelp"])
    ingest.add_argument("--out", required=True,
                        help="store directory to write")
    ingest.add_argument("--k-core", type=int, default=None, metavar="K",
                        help="also write the out-of-core K-core filtered "
                             "store to <out>-core<K>")
    ingest.add_argument("--verify", action="store_true")

    evlog = sub.add_parser("eventlog",
                           help="append-only event log: append events, "
                                "verify the digest chain, replay into an "
                                "mmap store")
    evlog.add_argument("log", help="event-log directory")
    evlog.add_argument("action", choices=["append", "verify", "replay"])
    evlog.add_argument("--events", default=None, metavar="CSV",
                       help="CSV of user,item[,timestamp] rows to append "
                            "as one segment (append)")
    evlog.add_argument("--out", default=None,
                       help="store directory to write (replay)")
    evlog.add_argument("--name", default=None,
                       help="store name (replay; default: the log name)")

    explain = sub.add_parser("explain", help="three-stage traces (Fig. 4)")
    explain.add_argument("--dataset", default="ml-100k")
    explain.add_argument("--users", type=int, default=3)
    explain.add_argument("--epochs", type=int, default=8)
    explain.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve-bench",
                           help="frozen-plan vs graph inference benchmark")
    serve.add_argument("--models", nargs="+", default=["SASRec", "SSDRec"],
                       help="model names (backbones or SSDRec)")
    serve.add_argument("--datasets", nargs="+",
                       default=["ml-100k", "beauty"],
                       choices=["ml-100k", "ml-1m", "beauty", "sports",
                                "yelp"])
    serve.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    serve.add_argument("--trained", action="store_true",
                       help="benchmark trained weights restored from the "
                            "run store (training on first use) instead of "
                            "random initialisation")
    serve.add_argument("--rounds", type=int, default=3,
                       help="timing rounds per measurement (best-of)")
    serve.add_argument("--requests", type=int, default=128,
                       help="single-item requests for latency/throughput")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=1,
                       help="also time a sharded ClusterService with this "
                            "many worker processes (cluster_* keys)")
    serve.add_argument("--retrieval", default="exact",
                       choices=["exact", "ann"],
                       help="serving retrieval path: exact full-table "
                            "scoring or the clustered MIPS index")
    serve.add_argument("--nprobe", type=int, default=8,
                       help="clusters probed per request with "
                            "--retrieval ann")
    serve.add_argument("--json", default=None,
                       help="also write the result grid to this path")

    load = sub.add_parser("load-bench",
                          help="sustained-load benchmark of the sharded "
                               "serving cluster (Zipf traffic, QPS ramp, "
                               "saturation sweep, chaos)")
    load.add_argument("--dataset", default="ml-100k",
                      choices=["ml-100k", "ml-1m", "beauty", "sports",
                               "yelp"])
    load.add_argument("--model", default="SASRec")
    load.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--gates", action="store_true",
                      help="evaluate the load gates and exit nonzero on "
                           "failure (what scripts/load_smoke.py does)")
    load.add_argument("--retrieval", default="exact",
                      choices=["exact", "ann"],
                      help="per-worker retrieval path (the chaos and "
                           "parity gates apply unchanged)")
    load.add_argument("--nprobe", type=int, default=8,
                      help="clusters probed per request with "
                           "--retrieval ann")
    load.add_argument("--json", default=None,
                      help="also write the full report to this path")

    lint = sub.add_parser("lint",
                          help="run the AST static checker over the "
                               "repro package")
    lint.add_argument("--rules", nargs="*", default=None, metavar="RULE",
                      help="subset of rules to run (default: all); an "
                           "empty list is an error")
    lint.add_argument("--json", default=None,
                      help="also write the violation list to this path")
    return parser


def cmd_datasets(_args) -> int:
    from .data import PROFILES
    print(f"{'profile':<10}{'users':>8}{'items':>8}{'actions':>10}"
          f"{'avg_len':>9}{'sparsity':>10}")
    for name in PROFILES:
        stats = generate(name, seed=0).statistics()
        print(f"{name:<10}{stats['users']:>8}{stats['items']:>8}"
              f"{stats['actions']:>10}{stats['avg_len']:>9}"
              f"{stats['sparsity']:>10}")
    return 0


def cmd_train(args) -> int:
    store = default_store()
    if args.dataset.startswith("scale-") and args.backend != "stream":
        print(f"{args.dataset} is a full-scale profile; pass "
              f"--backend stream", file=sys.stderr)
        return 2
    spec = run_spec(
        args.dataset, "quick", model_spec(args.model, dim=args.dim),
        train={"epochs": args.epochs, "batch_size": args.batch_size,
               "learning_rate": args.lr},
        seed=args.seed, dataset_scale=args.scale, max_len=args.max_len,
        backend=args.backend)
    # Profiling/sanitizing only produce output on a fresh training run.
    force = args.no_cache or args.profile or args.sanitize
    print(f"training {args.model} on {args.dataset} "
          f"(run {spec.content_hash()})")
    outcome = store.run(spec, force=force, verbose=True,
                        profile=args.profile, sanitize=args.sanitize,
                        resume=args.resume)
    if outcome.cached:
        print(f"restored cached run from {outcome.checkpoint.parent}")
    print(f"{args.model}: {outcome.num_parameters:,} parameters")
    result = outcome.result
    if args.profile and result.profile_table:
        print(result.profile_table)
    if args.sanitize:
        report = result.sanitizer_report or []
        if report:
            print(f"sanitizer: {len(report)} anomalies")
            for anomaly in report:
                print(f"  [{anomaly['kind']}] op={anomaly['op']} "
                      f"{anomaly['detail']}")
        else:
            print("sanitizer: clean run (no anomalies recorded)")
    print("test:", {k: round(v, 4) for k, v in outcome.test_metrics.items()})
    if args.save:
        shutil.copyfile(outcome.checkpoint, args.save)
        print(f"checkpoint written to {args.save}")
    return 0


def _print_store_stats(store) -> None:
    stats = store.statistics()
    print(f"{store.name}: {stats['users']} users, {stats['items']} items, "
          f"{stats['actions']} actions, avg_len={stats['avg_len']}, "
          f"sparsity={stats['sparsity']}")


def _maybe_k_core(store, out: str, k: Optional[int], verify: bool):
    if k is None:
        return store
    from .data import stream_k_core_filter
    filtered = stream_k_core_filter(store, f"{out}-core{k}",
                                    min_seq_len=k, min_item_freq=k,
                                    verify=verify)
    print(f"{k}-core store written to {out}-core{k}")
    return filtered


def cmd_generate(args) -> int:
    from .data import generate_to_store, profile_by_name
    profile = profile_by_name(args.profile)
    store = generate_to_store(profile, args.out, seed=args.seed,
                              noise_rate=args.noise_rate, scale=args.scale,
                              chunk_users=args.chunk_users,
                              verify=args.verify)
    print(f"store written to {args.out}")
    _print_store_stats(store)
    if args.k_core is not None:
        _print_store_stats(_maybe_k_core(store, args.out, args.k_core,
                                         args.verify))
    return 0


def cmd_ingest(args) -> int:
    from .data import ingest_amazon_csv, ingest_ml100k, ingest_yelp_json
    ingester = {"ml-100k": ingest_ml100k, "amazon": ingest_amazon_csv,
                "yelp": ingest_yelp_json}[args.fmt]
    store = ingester(args.source, args.out, verify=args.verify)
    print(f"store written to {args.out}")
    _print_store_stats(store)
    if args.k_core is not None:
        _print_store_stats(_maybe_k_core(store, args.out, args.k_core,
                                         args.verify))
    return 0


def cmd_eventlog(args) -> int:
    import numpy as np
    from .data import open_event_log, replay_to_store
    log = open_event_log(args.log)
    if args.action == "append":
        if args.events is None:
            raise SystemExit("eventlog append requires --events CSV")
        rows = np.loadtxt(args.events, delimiter=",", dtype=np.int64,
                          ndmin=2)
        stamps = rows[:, 2] if rows.shape[1] >= 3 else None
        record = log.append(rows[:, 0], rows[:, 1], timestamps=stamps)
        print(f"appended {record['count']} events as {record['name']}; "
              f"chain head {log.chain_head[:16]}…")
        return 0
    if args.action == "verify":
        total = log.verify()
        print(f"{log.num_segments} segment(s), {total} events verified; "
              f"chain head {log.chain_head[:16]}…")
        return 0
    if args.out is None:
        raise SystemExit("eventlog replay requires --out STORE_DIR")
    store = replay_to_store(log, args.out, args.name or log.name)
    print(f"store written to {args.out}")
    _print_store_stats(store)
    return 0


def cmd_experiment(args) -> int:
    module = EXPERIMENTS[args.name]
    scale = SCALES[args.scale]
    import inspect
    kwargs = ({"seed": args.seed}
              if "seed" in inspect.signature(module.run).parameters else {})
    result = module.run(scale, **kwargs)
    print(module.render(result))
    return 0


def cmd_explain(args) -> int:
    store = default_store()
    spec = run_spec(args.dataset, "quick", model_spec("SSDRec"),
                    train={"epochs": args.epochs}, seed=args.seed)
    model = store.load_model(spec)
    prepared = store.prepared(spec)
    lengths = [(len(s), u) for u, s in enumerate(prepared.dataset.sequences)
               if s]
    for _, user in sorted(lengths, reverse=True)[:args.users]:
        seq = prepared.dataset.sequences[user]
        trace = model.explain(seq[:-1], user=user, target=seq[-1])
        print(f"\nuser {user}: raw={trace['raw_score']:+.3f} "
              f"augmented={trace.get('augmented_score', float('nan')):+.3f} "
              f"denoised={trace['denoised_score']:+.3f} "
              f"removed={trace['removed_items']}")
    return 0


def cmd_serve_bench(args) -> int:
    from .analysis.report import write_json_report
    from .serve.bench import render, run_serve_bench

    results = run_serve_bench(models=tuple(args.models),
                              profiles=tuple(args.datasets),
                              scale=SCALES[args.scale], seed=args.seed,
                              rounds=args.rounds, requests=args.requests,
                              k=args.k, trained=args.trained,
                              workers=args.workers,
                              retrieval=args.retrieval,
                              nprobe=args.nprobe)
    print(render(results))
    if args.json:
        write_json_report(args.json, {"scale": args.scale,
                                      "results": results})
        print(f"report written to {args.json}")
    return 0


def cmd_load_bench(args) -> int:
    from .analysis.report import write_json_report
    from .serve.load import (LoadConfig, evaluate_gates, render,
                             run_load_bench)

    config = LoadConfig(profile=args.dataset, model=args.model,
                        seed=args.seed, retrieval=args.retrieval,
                        nprobe=args.nprobe)
    report = run_load_bench(config, SCALES[args.scale])
    print(render(report))
    failures = evaluate_gates(report, config) if args.gates else []
    if failures:
        report["gate_failures"] = failures
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
    if args.json:
        write_json_report(args.json, report)
        print(f"report written to {args.json}")
    return 1 if failures else 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis.lint import RULES, run_lint
    from .analysis.report import write_json_report

    if args.rules is not None and not args.rules:
        print(f"--rules given with no rule names; available rules: "
              f"{', '.join(sorted(RULES))}", file=sys.stderr)
        return 2
    package_root = Path(__file__).resolve().parent
    tests_root = package_root.parent.parent / "tests"
    try:
        violations = run_lint(
            package_root,
            tests_root=tests_root if tests_root.is_dir() else None,
            rules=args.rules)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    rules_run = sorted(args.rules if args.rules is not None else RULES)
    print(f"lint over {package_root} ({len(rules_run)} rules)")
    for v in violations:
        print(f"  {v}")
    if args.json:
        write_json_report(args.json, {
            "src_root": str(package_root), "rules": rules_run,
            "violations": [v.as_dict() for v in violations]})
        print(f"report written to {args.json}")
    print("OK: no violations" if not violations
          else f"FAIL: {len(violations)} violations")
    return 1 if violations else 0


COMMANDS = {
    "datasets": cmd_datasets,
    "train": cmd_train,
    "experiment": cmd_experiment,
    "generate": cmd_generate,
    "ingest": cmd_ingest,
    "eventlog": cmd_eventlog,
    "explain": cmd_explain,
    "serve-bench": cmd_serve_bench,
    "load-bench": cmd_load_bench,
    "lint": cmd_lint,
}


def main(argv: Optional[list] = None) -> int:
    # Chaos-harness hook: arm the fault plan serialized in
    # REPRO_FAULT_PLAN, if any (no-op otherwise), so subprocess crash
    # tests can drive the real user surface.
    install_env_plan()
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
