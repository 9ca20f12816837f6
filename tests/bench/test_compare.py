"""Verdict logic of ``bench/compare.py``."""

import pytest

from bench.compare import compare, verdict


def _summary(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3, "n": 5}


@pytest.mark.parametrize("a, b, better, expected", [
    # lower is better: 20% slower against a 15% bound
    ((10.0, 9.9, 10.1), (12.0, 11.9, 12.1), "lower", "worse"),
    # 5% slower is inside the bound
    ((10.0, 9.9, 10.1), (10.5, 10.4, 10.6), "lower", "unchanged"),
    # 10% faster, beyond a 2% spread
    ((10.0, 9.9, 10.1), (9.0, 8.9, 9.1), "lower", "better"),
    # 1% faster is within the spread
    ((10.0, 9.8, 10.2), (9.9, 9.7, 10.1), "lower", "unchanged"),
    # spread wider than the bound
    ((10.0, 8.0, 12.0), (12.0, 10.0, 14.0), "lower", "unresolved"),
    # higher is better: throughput dropped 20%
    ((100.0, 99.0, 101.0), (80.0, 79.0, 81.0), "higher", "worse"),
    ((100.0, 99.0, 101.0), (120.0, 119.0, 121.0), "higher", "better"),
])
def test_verdict(a, b, better, expected):
    result, _ = verdict(_summary(*a), _summary(*b), [a[0]], [b[0]],
                        better, 0.15)
    assert result == expected


def test_wide_spread_is_better_only_when_every_run_is_better():
    wide = _summary(10.0, 8.0, 12.0)
    result, _ = verdict(wide, _summary(5.0, 4.0, 6.0), [9, 10, 11],
                        [4, 5, 6], "lower", 0.15)
    assert result == "better"
    result, _ = verdict(wide, _summary(5.0, 4.0, 6.0), [9, 10, 11],
                        [4, 5, 10], "lower", 0.15)
    assert result == "unresolved"


def test_compare_walks_every_shared_workload_and_metric():
    spec = {"end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    def record(p50, rate):
        runs = [{"metrics": {"p50_ms": p50, "throughput_per_s": rate}}]
        summary = {"p50_ms": _summary(p50, p50, p50),
                   "throughput_per_s": _summary(rate, rate, rate)}
        return {"workloads": {"w": {"summary": summary, "runs": runs}}}

    rows = compare(record(2.0, 100.0), record(3.0, 100.0), spec)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("p50_ms", "worse"), ("throughput_per_s", "unchanged")]
