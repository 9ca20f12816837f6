"""Compare two benchmark records: ``python bench/compare.py A.json B.json``.

``A`` is the parent (or baseline), ``B`` the change.  For every workload
and end-to-end metric in both records it prints each side's median and
interquartile range, then a verdict, using the bounds in
``BENCHMARK.json``:

* ``unresolved`` — either side's spread (IQR as a share of its median)
  exceeds the bound, unless every run of B reads better than every run of
  A (then ``better``);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the spread;
* ``unchanged`` — otherwise.

Exits 1 if any verdict is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: dict, b: dict, a_values: List[float], b_values: List[float],
            better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is B's relative worsening of the
    median (negative when B is better)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    if sign > 0:
        dominates = max(b_values) < min(a_values)
    else:
        dominates = min(b_values) > max(a_values)
    if spread > bound:
        return ("better" if dominates else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > spread:
        return "better", change
    return "unchanged", change


def _values(record: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]
            for run in record["workloads"][workload]["runs"]]


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sa = a["workloads"][workload]["summary"].get(name)
            sb = b["workloads"][workload]["summary"].get(name)
            if sa is None or sb is None:
                continue
            result, change = verdict(sa, sb, _values(a, workload, name),
                                     _values(b, workload, name),
                                     metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "a": sa, "b": sb,
                         "bound": metric["bound"], "change": change,
                         "verdict": result})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="baseline record")
    parser.add_argument("b", type=Path, help="changed record")
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    records = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    rows = compare(records[0], records[1], spec)
    print(f"{'workload':<14}{'metric':<18}{'A median (IQR)':>26}"
          f"{'B median (IQR)':>26}{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        cells = []
        for side in (row["a"], row["b"]):
            cells.append(f"{side['median']:.4g} "
                         f"({side['q3'] - side['q1']:.2g}) {row['unit']}")
        print(f"{row['workload']:<14}{row['metric']:<18}{cells[0]:>26}"
              f"{cells[1]:>26}{100 * row['change']:>+8.1f}%"
              f"{100 * row['bound']:>6.0f}%  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
