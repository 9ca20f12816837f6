"""``scripts/graph_scale.py`` runs end to end at a tiny scale.

The script builds the Stage 1 multi-relation graph from an mmap store
and writes ``BENCH_graph.json``; this keeps it from rotting by running
it on a ~2k-user store and checking every field of the report.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "graph_scale.py"
RELATIONS = ("interacted", "transitional", "incompatible", "similar",
             "dissimilar")


def test_graph_scale_writes_report(tmp_path):
    report = tmp_path / "BENCH_graph.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--scale", "0.002", "--repeats", "3",
         "--json", str(report)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout

    payload = json.loads(report.read_text())
    assert payload["profile"] == "scale-1m" and payload["repeats"] == 3
    assert payload["users"] > 0 and payload["items"] > 0
    assert payload["events"] > payload["users"]
    for name in RELATIONS + ("total",):
        timing = payload["build"][name]
        assert len(timing["seconds"]) == 3
        assert timing["min_s"] <= timing["median_s"] <= timing["max_s"]
        assert timing["iqr_s"] >= 0
    assert set(payload["edges"]) == set(RELATIONS)
    assert payload["edges"]["interacted"] > 0
    assert payload["edges"]["transitional"] > 0
    assert 0 < payload["peak_rss_mb"] < payload["rss_bound_mb"]
    assert payload["validate_s"] >= 0
