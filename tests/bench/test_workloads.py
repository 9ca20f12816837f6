"""Short runs of every benchmark workload and of its output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench.workloads import LAYER_METRICS, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_workloads_and_layer_metrics_the_code_produces():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


def test_traced_smoke_run_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--size", "smoke", "--seconds",
         "0.6", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    expected = {(m["name"], m["unit"])
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    blocks = {}
    current = None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith(" "):
            current = line.split()[0]
            blocks[current] = set()
        elif not line.strip().startswith("check failed"):
            name, _, unit = line.split()
            blocks[current].add((name, unit))
    assert set(blocks) == set(WORKLOADS)
    for workload, printed in blocks.items():
        assert printed == expected, workload
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    assert set(final["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                     for m in SPEC["per_layer"]}
    record = json.loads(out.read_text())
    assert record["host"]["nproc"] >= 1
    for workload in WORKLOADS:
        layers = record["workloads"][workload]["runs"][0]["layers"]
        assert layers["trace.child_coverage_pct"] >= 90.0, workload


def test_permuted_scores_count_as_failures(tmp_path, monkeypatch):
    from repro.serve.plan import FrozenPlan

    score = FrozenPlan.score
    perm = np.random.default_rng(0).permutation

    def permuted(self, reprs, out=None):
        logits = score(self, reprs, out=out)
        return logits[:, perm(logits.shape[1])]

    monkeypatch.setattr(FrozenPlan, "score", permuted)
    record = run_workload("serve-cold", 0, 0.4, False, "smoke", tmp_path)
    assert record["failed"] > 0
    assert record["checks"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_counts_as_failure(tmp_path, monkeypatch):
    from repro.models.base import SequentialRecommender

    sampled = SequentialRecommender.sampled_loss
    monkeypatch.setattr(SequentialRecommender, "sampled_loss",
                        lambda self, batch, n=128:
                        sampled(self, batch, n) * float("nan"))
    record = run_workload("train-stream", 0, 0.4, False, "smoke", tmp_path)
    assert record["failed"] == record["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
