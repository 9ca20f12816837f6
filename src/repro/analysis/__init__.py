"""``repro.analysis`` — dataset analysis and static framework checks.

Three halves:

* :mod:`repro.analysis.datasets` — the original dataset/relation-graph
  statistics (re-exported here so ``from repro.analysis import
  gini_coefficient`` keeps working);
* :mod:`repro.analysis.lint` + :mod:`repro.analysis.report` — the
  AST-based framework linter behind ``scripts/static_check.py`` and the
  report helpers it shares with ``scripts/perf_smoke.py``;
* :mod:`repro.analysis.signatures` + :mod:`repro.analysis.dataflow` —
  the abstract shape/dtype interpreter: per-op transfer functions, the
  FrozenPlan verifier run at ``freeze()`` time over the same step
  programs that serve, and abstract memory-footprint estimates.
"""

from .dataflow import (PlanVerificationError, default_plan_footprints,
                       memory_footprint, run_program, verify_plan)
from .datasets import (GraphReport, compare_datasets, gini_coefficient,
                       graph_report, length_histogram, noise_report,
                       popularity_report, short_sequence_fraction)
from .lint import (RULES, Project, Rule, Violation, dtype_policy_report,
                   run_lint)
from .report import finish, write_json_report
from .signatures import (FLOAT64_POLICY, SIGNATURES, AbstractValue,
                         SignatureError, aval, signature)

__all__ = [
    "GraphReport", "compare_datasets", "gini_coefficient", "graph_report",
    "length_histogram", "noise_report", "popularity_report",
    "short_sequence_fraction",
    "RULES", "Project", "Rule", "Violation", "dtype_policy_report",
    "run_lint",
    "finish", "write_json_report",
    "AbstractValue", "FLOAT64_POLICY", "SIGNATURES", "SignatureError",
    "aval", "signature",
    "PlanVerificationError", "default_plan_footprints", "memory_footprint",
    "run_program", "verify_plan",
]
