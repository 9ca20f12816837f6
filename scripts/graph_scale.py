#!/usr/bin/env python
"""Stage 1 graph construction at scale, straight from the mmap store.

Generates the ``scale-1m`` synthetic profile chunk-wise into an
:class:`~repro.data.store.InteractionStore` (5-core filtered, as the
``train-stream`` benchmark workload does), then builds the paper's
multi-relation graph from the store with
:func:`repro.graph.build_multi_relation_graph` — reading users in
bounded windows, never a dense ``U x U`` or ``P x P`` array — and checks
the Sec. III-A invariants with :meth:`MultiRelationGraph.validate`.

Each relation's build seconds are recorded over ``--repeats`` builds
(median, min, max and interquartile range), with the edge counts and
the process's peak resident memory, in ``BENCH_graph.json``.  Exits
nonzero when the peak RSS reaches ``--rss-bound-mb`` (2 GB by default)
or an invariant fails:

    PYTHONPATH=src python scripts/graph_scale.py [--scale 0.1]
        [--repeats 3] [--seed 0] [--json BENCH_graph.json]
"""

from __future__ import annotations

import argparse
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import finish, write_json_report  # noqa: E402
from repro.data import generate_to_store, stream_k_core_filter  # noqa: E402
from repro.graph import GraphConfig, build_multi_relation_graph  # noqa: E402

RELATIONS = ("interacted", "transitional", "incompatible", "similar",
             "dissimilar")


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(samples) -> dict:
    values = np.asarray(samples, dtype=np.float64)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"seconds": [round(float(v), 4) for v in values],
            "median_s": round(float(median), 4),
            "min_s": round(float(values.min()), 4),
            "max_s": round(float(values.max()), 4),
            "iqr_s": round(float(q3 - q1), 4)}


def run(scale: float, repeats: int, seed: int, workdir: Path) -> dict:
    start = time.perf_counter()
    raw = generate_to_store("scale-1m", workdir / "raw", seed=seed,
                            scale=scale)
    store = stream_k_core_filter(raw, workdir / "core5", min_seq_len=5,
                                 min_item_freq=5)
    data_s = time.perf_counter() - start
    config = GraphConfig()
    samples = {name: [] for name in RELATIONS + ("total",)}
    graph = None
    for _ in range(repeats):
        timings = {}
        start = time.perf_counter()
        graph = build_multi_relation_graph(store, config, timings=timings)
        samples["total"].append(time.perf_counter() - start)
        for name in RELATIONS:
            samples[name].append(timings[name])
        print(f"build {len(samples['total'])}/{repeats}: "
              f"{samples['total'][-1]:.2f}s "
              + " ".join(f"{n}={timings[n]:.2f}" for n in RELATIONS),
              flush=True)
    start = time.perf_counter()
    graph.validate()
    validate_s = time.perf_counter() - start
    return {
        "profile": "scale-1m",
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "users": store.num_users,
        "items": store.num_items,
        "events": store.num_events,
        "config": {"transition_window": config.transition_window,
                   "max_neighbors": config.max_neighbors,
                   "item_head_fraction": config.item_head_fraction,
                   "user_head_fraction": config.user_head_fraction},
        "data_s": round(data_s, 3),
        "build": {name: spread(values) for name, values in samples.items()},
        "validate_s": round(validate_s, 3),
        "edges": graph.relation_counts(),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "hardware": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.1,
                        help="multiplier on the scale-1m profile (0.1: "
                             "~99k users, 12k items, 1.2M events)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rss-bound-mb", type=float, default=2048.0)
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "BENCH_graph.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    with tempfile.TemporaryDirectory(prefix="repro-graph-scale-") as tmp:
        report = run(args.scale, args.repeats, args.seed, Path(tmp))
    report["rss_bound_mb"] = args.rss_bound_mb
    write_json_report(args.json, report)
    peak = report["peak_rss_mb"]
    return finish(peak < args.rss_bound_mb,
                  f"graph of {report['users']} users / {report['items']} "
                  f"items built in {report['build']['total']['median_s']}s "
                  f"(median of {args.repeats}), peak RSS {peak} MB",
                  f"peak RSS {peak} MB reached the {args.rss_bound_mb} MB "
                  f"bound")


if __name__ == "__main__":
    sys.exit(main())
