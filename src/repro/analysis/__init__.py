"""``repro.analysis`` — dataset analysis and static framework checks.

Three halves:

* :mod:`repro.analysis.datasets` — the original dataset/relation-graph
  statistics (re-exported here so ``from repro.analysis import
  gini_coefficient`` keeps working);
* :mod:`repro.analysis.lint` + :mod:`repro.analysis.report` — the
  AST-based framework linter behind ``scripts/static_check.py`` and the
  report helpers it shares with ``scripts/perf_smoke.py``;
* :mod:`repro.analysis.dataflow` — the FrozenPlan verifier run at
  ``freeze()`` time, which executes the same step programs that serve
  on small probe batches, and memory footprints measured from those
  runs.
"""

from .dataflow import (PlanVerificationError, default_plan_footprints,
                       memory_footprint, verify_plan)
from .datasets import (GraphReport, compare_datasets, gini_coefficient,
                       graph_report, length_histogram, noise_report,
                       popularity_report, short_sequence_fraction)
from .lint import (FLOAT64_POLICY, RULES, Project, Rule, Violation,
                   dtype_policy_report, run_lint)
from .report import finish, write_json_report

__all__ = [
    "GraphReport", "compare_datasets", "gini_coefficient", "graph_report",
    "length_histogram", "noise_report", "popularity_report",
    "short_sequence_fraction",
    "FLOAT64_POLICY", "RULES", "Project", "Rule", "Violation",
    "dtype_policy_report", "run_lint",
    "finish", "write_json_report",
    "PlanVerificationError", "default_plan_footprints", "memory_footprint",
    "verify_plan",
]
