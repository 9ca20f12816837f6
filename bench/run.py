"""Run the repository benchmark and print every metric with its unit.

Usage (from the repository root)::

    python bench/run.py --seed 0                      # all four workloads
    python bench/run.py --workload serve-cold --seed 3 --seconds 10
    python bench/run.py --seed 0 --runs 5 --out bench/results/A.json
    python bench/run.py --workload train-stream --seed 0 --trace 1

Each workload run happens in a fresh child process pinned to one BLAS
thread; all load comes from that process (serving clusters add their own
worker processes).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace 1``.
With several workloads or runs the metrics are medians keyed
``<workload>.<metric>``.  ``--out`` writes the full record: host facts,
every run, and per-metric median and quartiles; ``bench/compare.py``
compares two such records.

The program under test is imported from ``src/`` next to this directory;
without it the command fails before running anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: a child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 175.0


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and first/third quartile, as ``statistics.quantiles`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# host facts
def _blas() -> Optional[str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):        # NumPy older than 1.26
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha() -> Optional[str]:
    """HEAD's commit from ``.git`` files (no git process is started)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import numpy as np

    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    return {"nproc": nproc, "loadavg_before": list(load),
            "contended": load[0] >= nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "threads": {var: "1" for var in THREAD_VARS},
            "platform": platform.platform(), "git_sha": _git_sha()}


# ----------------------------------------------------------------------
# child side
def child_main(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.workloads import run_workload

    scratch = Path(os.environ["TMPDIR"]).parent
    spans = (SPANS_DIR / f"spans-{args.child}-s{args.seed}.jsonl"
             if args.trace else None)
    record = run_workload(args.child, args.seed, args.seconds,
                          bool(args.trace), args.size, scratch, spans)
    record["correct"] = record["failed"] == 0 and not record["checks"]
    print(json.dumps(record))
    return 0


def run_child(workload: str, seed: int, args) -> dict:
    scratch = SCRATCH / f"{os.getpid()}-{workload}-{seed}"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp),
               **{var: "1" for var in THREAD_VARS})
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (seed {seed}) exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    spec = load_spec() if SPEC_PATH.exists() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; run i of --runs uses seed + i")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else 10,
                        help="measured seconds per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--out", type=Path, help="write the full record")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if spec is None or not (ROOT / "src" / "repro").is_dir():
        print(f"error: run from a repository checkout; {ROOT / 'src'} "
              "and BENCHMARK.json are required", file=sys.stderr)
        return 2

    from bench.workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; options: {WORKLOADS}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = layer_units if args.trace else units

    host = host_facts()
    started = time.time()
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for run in range(args.runs):
        for name in names:
            record = run_child(name, args.seed + run, args)
            runs[name].append(record)
            print(f"{name}  seed={record['seed']}  "
                  f"{'correct' if record['correct'] else 'INCORRECT'}  "
                  f"attempted={record['attempted']} "
                  f"failed={record['failed']}")
            for check in record["checks"]:
                print(f"  check failed: {check}")
            for metric, unit in units.items():
                print(f"  {metric:<36} {record['metrics'][metric]:.6g} "
                      f"{unit}")
            for metric, unit in (layer_units.items() if args.trace else ()):
                print(f"  {metric:<36} {record['layers'][metric]:.6g} "
                      f"{unit}")
            sys.stdout.flush()

    bad = []
    summaries: Dict[str, dict] = {}
    for name, records in runs.items():
        summary = {}
        for metric, unit in {**units,
                             **(layer_units if args.trace else {})}.items():
            source = "layers" if metric in layer_units else "metrics"
            values = [r[source].get(metric) for r in records]
            if any(v is None or not math.isfinite(v) for v in values) or (
                    source == "metrics" and min(values) <= 0):
                bad.append(f"{name}: {metric} = {values}")
                continue
            summary[metric] = dict(quartiles(values), unit=unit)
        summaries[name] = summary
    if bad:
        print("error: metrics missing, non-finite or not positive: "
              + "; ".join(bad), file=sys.stderr)
        return 1

    host["loadavg_after"] = list(os.getloadavg())
    correct = all(r["correct"] for rs in runs.values() for r in rs)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "runs": args.runs,
                       "seconds": args.seconds, "trace": args.trace,
                       "size": args.size, "host": host,
                       "wall_s": time.time() - started,
                       "workloads": {name: {"summary": summaries[name],
                                            "runs": runs[name]}
                                     for name in names}},
                      fh, indent=1)
            fh.write("\n")
    single = len(names) == 1 and args.runs == 1
    metrics = {}
    for name in names:
        for metric, unit in reported.items():
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": summaries[name][metric]["median"],
                            "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    # A terminated parent exits through SystemExit, so subprocess.run
    # kills and reaps the running child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
