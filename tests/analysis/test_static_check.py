"""Tests for the AST-based framework linter and its CLI gate.

Includes the tier-1 smoke test that executes the linter on the live
source tree (must be clean), seeded-violation fixtures for every rule,
and subprocess checks of ``scripts/static_check.py`` exit codes.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, Violation, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
SCRIPT = REPO_ROOT / "scripts" / "static_check.py"


def write_tree(root: Path, files: dict) -> Path:
    """Materialize a {relpath: source} mini package tree."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


class TestLiveTree:
    def test_live_tree_is_clean(self):
        violations = run_lint(PACKAGE_ROOT, tests_root=REPO_ROOT / "tests")
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_all_rules_registered(self):
        assert set(RULES) == {"unseeded-rng", "fused-oracle",
                              "eval-no-grad", "bare-parameter",
                              "serve-graph-free", "worker-boundary",
                              "experiments-via-registry",
                              "atomic-persistence", "dtype-discipline",
                              "buffer-aliasing", "exact-oracle",
                              "bounded-memory"}

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            run_lint(PACKAGE_ROOT, rules=["no-such-rule"])


class TestUnseededRngRule:
    def test_flags_unseeded_and_direct_sampling(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"models/bad.py": """
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                noise = np.random.rand(3)
                return rng, noise
        """})
        violations = run_lint(root, rules=["unseeded-rng"])
        assert [v.line for v in violations] == [5, 6]
        assert all(v.rule == "unseeded-rng" for v in violations)

    def test_allows_seeded_types_and_helper_module(self, tmp_path):
        root = write_tree(tmp_path / "repro", {
            "models/good.py": """
                import numpy as np

                def sample(rng: np.random.Generator, seed: int):
                    return np.random.default_rng(seed).normal()
            """,
            "nn/rng.py": """
                import numpy as np

                def default_generator():
                    return np.random.default_rng()
            """,
        })
        assert run_lint(root, rules=["unseeded-rng"]) == []


class TestFusedOracleRule:
    FUSED = """
        from .tensor import Tensor

        def my_kernel(x):
            return Tensor._make(x.data, (x,), lambda g: (g,))

        def _private_kernel(x):
            return Tensor._make(x.data, (x,), lambda g: (g,))
    """

    def test_flags_missing_oracle_and_test(self, tmp_path):
        root = write_tree(tmp_path / "repro",
                          {"nn/functional.py": self.FUSED,
                           "nn/reference.py": "\n"})
        tests = write_tree(tmp_path / "tests",
                           {"nn/test_fused_ops.py": "\n"})
        violations = run_lint(root, tests_root=tests,
                              rules=["fused-oracle"])
        messages = [v.message for v in violations]
        assert len(violations) == 2  # private kernel is exempt
        assert any("my_kernel_unfused" in m for m in messages)
        assert any("not exercised" in m for m in messages)

    def test_clean_when_oracle_and_test_exist(self, tmp_path):
        root = write_tree(tmp_path / "repro", {
            "nn/functional.py": self.FUSED,
            "nn/reference.py": "def my_kernel_unfused(x):\n    return x\n",
        })
        tests = write_tree(tmp_path / "tests", {
            "nn/test_fused_ops.py": "def test_my_kernel():\n    pass\n"})
        assert run_lint(root, tests_root=tests,
                        rules=["fused-oracle"]) == []


class TestEvalNoGradRule:
    def test_flags_forward_without_no_grad(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"eval/scorer.py": """
            class Scorer:
                def score(self, model, batch):
                    return model.forward(batch)
        """})
        violations = run_lint(root, rules=["eval-no-grad"])
        assert len(violations) == 1
        assert "Scorer" in violations[0].message

    def test_clean_with_no_grad_block(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"eval/scorer.py": """
            from ..nn import no_grad

            class Scorer:
                def score(self, model, batch):
                    with no_grad():
                        return model.forward_batch(batch)
        """})
        assert run_lint(root, rules=["eval-no-grad"]) == []


class TestBareParameterRule:
    def test_flags_bare_trainable_tensor_in_module(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/bad_layer.py": """
            from .module import Module
            from .tensor import Tensor, randn

            class Base(Module):
                pass

            class BadLayer(Base):
                def __init__(self):
                    super().__init__()
                    self.w = Tensor([1.0], requires_grad=True)
                    self.v = randn((3,), requires_grad=True)
        """})
        violations = run_lint(root, rules=["bare-parameter"])
        assert len(violations) == 2  # transitive Module subclass caught
        assert all("Parameter" in v.message for v in violations)

    def test_clean_with_parameter_registration(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/good_layer.py": """
            from .module import Module, Parameter
            from .tensor import Tensor

            class GoodLayer(Module):
                def __init__(self):
                    super().__init__()
                    self.w = Parameter([1.0])
                    self.buffer = Tensor([0.0])  # non-trainable: fine

            class NotAModule:
                def __init__(self):
                    self.w = Tensor([1.0], requires_grad=True)
        """})
        assert run_lint(root, rules=["bare-parameter"]) == []


class TestServeGraphFreeRule:
    def test_flags_tensor_calls_and_graph_imports(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/executor.py": """
            from ..nn import Tensor, no_grad

            def encode(x):
                wrapped = Tensor(x)
                raw = ensure_tensor(x)
                node = Tensor._make(x, (), lambda g: ())
                return wrapped, raw, node
        """})
        violations = run_lint(root, rules=["serve-graph-free"])
        assert [v.line for v in violations] == [2, 5, 6, 7]
        assert all(v.rule == "serve-graph-free" for v in violations)

    def test_allows_numpy_and_no_grad(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/executor.py": """
            import numpy as np

            from ..nn import inference_mode, no_grad

            def encode(x):
                with no_grad():
                    return np.zeros(3) + np.asarray(x)
        """})
        assert run_lint(root, rules=["serve-graph-free"]) == []

    def test_bench_module_is_exempt(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/bench.py": """
            from ..nn import Tensor

            def baseline(x):
                return Tensor(x)
        """})
        assert run_lint(root, rules=["serve-graph-free"]) == []

    def test_other_packages_untouched(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"models/net.py": """
            from ..nn import Tensor

            def forward(x):
                return Tensor(x)
        """})
        assert run_lint(root, rules=["serve-graph-free"]) == []


class TestWorkerBoundaryRule:
    def test_flags_objects_shipped_over_the_pipe(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/cluster.py": """
            def dispatch(conn, plan, model, fn):
                conn.send(plan)
                conn.send((1, model))
                conn.send(lambda batch: fn(batch))
        """})
        violations = run_lint(root, rules=["worker-boundary"])
        assert [v.line for v in violations] == [3, 4, 5]
        assert "worker process boundary" in violations[0].message

    def test_flags_process_args_and_nn_imports(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/cluster.py": """
            from ..nn import no_grad

            def spawn(ctx, conn, model):
                return ctx.Process(target=work,
                                   args=(0, model.freeze(), conn))
        """})
        violations = run_lint(root, rules=["worker-boundary"])
        assert len(violations) == 3   # import + .freeze() + model name
        assert any("repro.nn" in v.message for v in violations)

    def test_clean_for_paths_primitives_and_arrays(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/cluster.py": """
            import numpy as np

            def dispatch(ctx, conn, plan_path, config, service):
                conn.send((0, plan_path, dict(config)))
                conn.send(("stats", service.stats.as_dict()))
                conn.send(np.zeros(3))
                return ctx.Process(target=work,
                                   args=(0, plan_path, conn))
        """})
        assert run_lint(root, rules=["worker-boundary"]) == []

    def test_other_serve_modules_untouched(self, tmp_path):
        # Only the boundary modules are constrained: service.py holds a
        # live plan object by design, it never crosses a process.
        root = write_tree(tmp_path / "repro", {"serve/service.py": """
            def run(conn, plan):
                conn.send(plan)
        """})
        assert run_lint(root, rules=["worker-boundary"]) == []


class TestExperimentsViaRegistryRule:
    def test_flags_direct_and_subscript_construction(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"experiments/bad.py": """
            from ..core import SSDRec
            from ..models import BACKBONES

            def run(prepared, scale):
                wrapped = SSDRec(prepared.dataset)
                plain = BACKBONES["SASRec"](num_items=10, dim=4, max_len=8)
                return wrapped, plain
        """})
        violations = run_lint(root, rules=["experiments-via-registry"])
        assert [v.line for v in violations] == [6, 7]
        assert "registry.build" in violations[0].message

    def test_clean_when_using_registry(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"experiments/good.py": """
            from ..registry import build, model_spec

            def run(prepared, scale):
                return build(model_spec("SSDRec"), prepared, scale, rng=0)
        """})
        assert run_lint(root, rules=["experiments-via-registry"]) == []

    def test_other_packages_untouched(self, tmp_path):
        # Direct construction outside experiments/ (e.g. the registry
        # itself, tests, serve) is exactly where classes SHOULD be called.
        root = write_tree(tmp_path / "repro", {"registry.py": """
            from .core import SSDRec

            def build(spec, prepared, scale, rng=None):
                return SSDRec(prepared.dataset, rng=rng)
        """})
        assert run_lint(root, rules=["experiments-via-registry"]) == []


class TestAtomicPersistenceRule:
    def test_flags_inplace_writes_in_persistence_modules(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"runs.py": """
            import json
            import numpy as np

            def persist(entry, spec, ranks):
                (entry / "spec.json").write_text(json.dumps(spec))
                np.save(entry / "ranks.npy", ranks)
                with open(entry / "metrics.json", "w") as fh:
                    fh.write("{}")
        """})
        violations = run_lint(root, rules=["atomic-persistence"])
        assert [v.line for v in violations] == [6, 7, 8]
        assert all(v.rule == "atomic-persistence" for v in violations)

    def test_clean_with_atomic_helpers_and_reads(self, tmp_path):
        root = write_tree(tmp_path / "repro", {
            "runs.py": """
                import json
                import numpy as np

                from .resilience.atomic import atomic_write_text, npy_bytes

                def persist(entry, spec):
                    atomic_write_text(entry / "spec.json", json.dumps(spec))

                def load(entry):
                    with open(entry / "metrics.json") as fh:
                        return json.load(fh), np.load(entry / "ranks.npy")
            """,
            "train/checkpoint.py": """
                from ..resilience.atomic import atomic_save_npz

                def save(path, arrays):
                    return atomic_save_npz(path, arrays)
            """,
        })
        assert run_lint(root, rules=["atomic-persistence"]) == []

    def test_other_modules_untouched(self, tmp_path):
        # In-place writes outside the persistence modules (reports,
        # benchmarks) are fine — the rule targets run-store artifacts.
        root = write_tree(tmp_path / "repro", {"analysis/report.py": """
            def write(path, text):
                path.write_text(text)
        """})
        assert run_lint(root, rules=["atomic-persistence"]) == []


class TestEventLogAtomicRule:
    """The event log and online fine-tune store are persistence modules
    too: the same ``atomic-persistence`` rule covers them."""

    def test_flags_inplace_writes_in_eventlog_modules(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"data/eventlog.py": """
            import json

            def publish(path, manifest, payload):
                (path / "segment-000000.npy").write_bytes(payload)
                (path / "manifest.json").write_text(json.dumps(manifest))
        """})
        violations = run_lint(root, rules=["atomic-persistence"])
        assert [v.line for v in violations] == [5, 6]
        assert all(v.rule == "atomic-persistence" for v in violations)

    def test_clean_with_atomic_helpers(self, tmp_path):
        root = write_tree(tmp_path / "repro", {
            "data/eventlog.py": """
                import json

                from ..resilience.atomic import (atomic_write_bytes,
                                                 atomic_write_text)

                def publish(path, manifest, payload):
                    atomic_write_bytes(path / "segment-000000.npy", payload)
                    atomic_write_text(path / "manifest.json",
                                      json.dumps(manifest))

                def load(path):
                    return json.loads((path / "manifest.json").read_text())
            """,
            "train/online.py": """
                from ..resilience.atomic import atomic_write_text

                def commit(entry, text):
                    return atomic_write_text(entry / "metrics.json", text)
            """,
        })
        assert run_lint(root, rules=["atomic-persistence"]) == []


class TestDtypeDisciplineRule:
    def test_flags_dtypeless_allocations_and_rogue_pins(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/alloc.py": """
            import numpy as np

            def make(n):
                a = np.zeros(n)
                b = np.full(n, 1.0)
                c = np.float64(0.0)
                return a, b, c
        """})
        violations = run_lint(root, rules=["dtype-discipline"])
        assert [v.line for v in violations] == [5, 6, 7]
        messages = [v.message for v in violations]
        assert any("explicit dtype" in m for m in messages)
        assert any("FLOAT64_POLICY" in m for m in messages)

    def test_clean_with_explicit_dtypes_in_policy_module(self, tmp_path):
        # nn/tensor.py is in FLOAT64_POLICY, so its pins are exempt.
        root = write_tree(tmp_path / "repro", {"nn/tensor.py": """
            import numpy as np

            def make(n):
                a = np.zeros(n, dtype=np.float64)
                b = np.empty(n, "float64")
                return a, b
        """})
        assert run_lint(root, rules=["dtype-discipline"]) == []

    def test_non_substrate_modules_untouched(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"data/gen.py": """
            import numpy as np

            def make(n):
                return np.zeros(n), np.float64(0.0)
        """})
        assert run_lint(root, rules=["dtype-discipline"]) == []


class TestBufferAliasingRule:
    def test_flags_aliasing_rebinding_and_scratch_returns(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/optim.py": """
            import numpy as np

            class SGD:
                def step(self):
                    for p in self.params:
                        p.data = p.data - p.grad

            def square(x):
                np.matmul(x, x, out=x)
                return x

            class Kernel:
                def forward(self, x):
                    np.multiply(x, x, out=x)
                    return self._buf_out
        """})
        violations = run_lint(root, rules=["buffer-aliasing"])
        assert [v.line for v in violations] == [7, 10, 16]
        messages = [v.message for v in violations]
        assert any("augmented assignment" in m for m in messages)
        assert any("aliases input" in m for m in messages)
        assert any("scratch buffer" in m for m in messages)

    def test_clean_with_inplace_update_and_fresh_out(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/optim.py": """
            import numpy as np

            class SGD:
                def step(self):
                    for p in self.params:
                        p.data -= p.grad

            def project(x, w, out):
                np.matmul(x, w, out=out)
                return out.copy()
        """})
        assert run_lint(root, rules=["buffer-aliasing"]) == []


class TestExactOracleRule:
    ANN_USER = """
        from .ann import build_ann_index

        def serve(plan, reprs, k):
            return plan.ann_topk(reprs, k)
    """

    def test_flags_ann_use_without_oracle_anchored_test(self, tmp_path):
        root = write_tree(tmp_path / "repro",
                          {"serve/service.py": self.ANN_USER})
        tests = write_tree(tmp_path / "tests", {"serve/test_service.py": """
            def test_ann_runs():
                pass
        """})
        violations = run_lint(root, tests_root=tests,
                              rules=["exact-oracle"])
        assert len(violations) == 1
        assert violations[0].rule == "exact-oracle"
        assert "topk_from_scores" in violations[0].message

    def test_clean_when_a_test_pins_ann_to_the_exact_oracle(self, tmp_path):
        root = write_tree(tmp_path / "repro",
                          {"serve/service.py": self.ANN_USER})
        tests = write_tree(tmp_path / "tests", {"serve/test_ann.py": """
            from repro.serve import build_ann_index, topk_from_scores

            def test_full_probe_matches_exact():
                pass
        """})
        assert run_lint(root, tests_root=tests,
                        rules=["exact-oracle"]) == []

    def test_tree_without_ann_is_clean(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"serve/service.py": """
            def serve(plan, reprs, k):
                return plan.score(reprs)
        """})
        tests = write_tree(tmp_path / "tests",
                           {"serve/test_service.py": "x = 1\n"})
        assert run_lint(root, tests_root=tests,
                        rules=["exact-oracle"]) == []

    def test_source_only_tree_skips_the_rule(self, tmp_path):
        root = write_tree(tmp_path / "repro",
                          {"serve/service.py": self.ANN_USER})
        assert run_lint(root, rules=["exact-oracle"]) == []


class TestProjectRobustness:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"nn/broken.py": "def f(:\n"})
        violations = run_lint(root, rules=["unseeded-rng"])
        assert len(violations) == 1
        assert violations[0].rule == "parse-error"
        assert "broken.py" in violations[0].path

    def test_empty_modules_run_clean_under_every_rule(self, tmp_path):
        root = write_tree(tmp_path / "repro", {
            "nn/empty.py": "", "serve/empty.py": "", "eval/empty.py": "",
            "experiments/empty.py": "", "runs.py": "",
        })
        assert run_lint(root) == []


class TestStaticCheckScript:
    def _run(self, *extra_args):
        return subprocess.run(
            [sys.executable, str(SCRIPT), *extra_args],
            capture_output=True, text=True, cwd=REPO_ROOT)

    def test_exit_zero_on_clean_tree(self, tmp_path):
        report = tmp_path / "report.json"
        proc = self._run("--json", str(report))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK" in proc.stdout
        payload = json.loads(report.read_text())
        assert payload["violations"] == []
        # The report carries the float64 exemption table and per-plan
        # abstract memory footprints.
        exemptions = payload["dtype_exemptions"]
        assert "serve/plan.py" in exemptions
        assert exemptions["serve/plan.py"]["reason"]
        assert exemptions["serve/plan.py"]["float64_sites"] > 0
        footprints = payload["plan_footprints"]
        assert {f["model"] for f in footprints} >= {"SASRec", "GRU4Rec"}
        assert all(f["weight_bytes"] > 0 for f in footprints)
        assert all("1" in f["activations"] and "64" in f["activations"]
                   for f in footprints)

    def test_empty_rules_list_fails_loudly(self):
        proc = self._run("--rules")
        assert proc.returncode == 2
        assert "no rule names" in proc.stderr
        assert "dtype-discipline" in proc.stderr  # lists valid rules

    def test_unknown_rule_fails_loudly(self):
        proc = self._run("--rules", "no-such-rule")
        assert proc.returncode == 2
        assert "unknown rules: no-such-rule" in proc.stderr
        assert "atomic-persistence" in proc.stderr

    def test_scripts_root_swept_for_unseeded_rng(self, tmp_path):
        src = write_tree(tmp_path / "repro", {"models/ok.py": "x = 1\n"})
        scripts = write_tree(tmp_path / "scripts", {"tool.py": """
            import numpy as np

            def main():
                return np.random.rand(3)
        """})
        report = tmp_path / "report.json"
        proc = self._run("--src-root", str(src),
                         "--tests-root", str(tmp_path / "missing"),
                         "--scripts-root", str(scripts),
                         "--rules", "unseeded-rng",
                         "--json", str(report))
        assert proc.returncode == 1
        payload = json.loads(report.read_text())
        assert len(payload["violations"]) == 1
        assert payload["violations"][0]["rule"] == "unseeded-rng"
        assert "tool.py" in payload["violations"][0]["path"]

    def test_exit_nonzero_on_seeded_violation(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"models/bad.py": """
            import numpy as np

            def sample():
                return np.random.default_rng().normal()
        """})
        report = tmp_path / "report.json"
        proc = self._run("--src-root", str(root),
                         "--tests-root", str(tmp_path / "missing"),
                         "--json", str(report))
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr
        payload = json.loads(report.read_text())
        assert payload["violations"][0]["rule"] == "unseeded-rng"

    def test_violation_dict_round_trips(self):
        v = Violation(rule="unseeded-rng", path="x.py", line=3,
                      message="m")
        assert v.as_dict() == {"rule": "unseeded-rng", "path": "x.py",
                               "line": 3, "message": "m"}
        assert str(v) == "x.py:3: [unseeded-rng] m"


class TestBoundedMemoryRule:
    def test_flags_whole_column_materializations(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"data/store.py": """
            import numpy as np

            def bad(store):
                a = store.items.tolist()
                b = list(store.indptr)
                c = np.asarray(store.timestamps)
                return a, b, c
        """})
        violations = run_lint(root, rules=["bounded-memory"])
        assert [v.line for v in violations] == [5, 6, 7]
        assert all(v.rule == "bounded-memory" for v in violations)

    def test_windowed_slices_are_clean(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"data/stream.py": """
            import numpy as np

            def good(store, lo, hi):
                window = store.items[lo:hi]
                counts = np.asarray(store.items[lo:hi], dtype=np.int64)
                return window, counts
        """})
        assert run_lint(root, rules=["bounded-memory"]) == []

    def test_other_modules_untouched(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"models/free.py": """
            def fine(dataset):
                return dataset.items.tolist()
        """})
        assert run_lint(root, rules=["bounded-memory"]) == []

    def test_covers_the_split_and_loader(self):
        import inspect

        from repro.analysis.lint import STREAMING_MODULES
        from repro.data import DataLoader, ExampleStream, leave_one_out_split
        from repro.graph import build_transitional, interaction_matrix
        for obj in (leave_one_out_split, ExampleStream, DataLoader,
                    build_transitional, interaction_matrix):
            path = Path(inspect.getsourcefile(obj))
            assert path.relative_to(PACKAGE_ROOT).as_posix() in \
                STREAMING_MODULES, obj.__name__

    def test_flags_the_graph_module(self, tmp_path):
        root = write_tree(tmp_path / "repro", {"graph/relations.py": """
            def bad(store):
                return store.items.tolist()
        """})
        violations = run_lint(root, rules=["bounded-memory"])
        assert [(v.path.endswith("graph/relations.py"), v.line)
                for v in violations] == [(True, 3)]


class TestCliLintSubcommand:
    def _run(self, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *extra_args],
            capture_output=True, text=True, cwd=REPO_ROOT, env=env)

    def test_clean_tree_exits_zero(self, tmp_path):
        report = tmp_path / "report.json"
        proc = self._run("--json", str(report))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK: no violations" in proc.stdout
        assert json.loads(report.read_text())["violations"] == []

    def test_rule_subset_runs(self):
        proc = self._run("--rules", "unseeded-rng", "atomic-persistence")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 rules" in proc.stdout

    def test_empty_rules_list_fails_loudly(self):
        proc = self._run("--rules")
        assert proc.returncode == 2
        assert "available rules" in proc.stderr

    def test_unknown_rule_fails_loudly(self):
        proc = self._run("--rules", "no-such-rule")
        assert proc.returncode == 2
        assert "unknown lint rules" in proc.stderr
