#!/usr/bin/env python
"""Static framework lint gate: enforce ``repro`` invariants before they train.

Runs the AST checker in :mod:`repro.analysis.lint` over the source tree
(seeded RNG discipline, fused-op parity oracles, no_grad in eval paths,
Parameter registration, substrate dtype discipline, buffer aliasing,
atomic persistence), plus an ``unseeded-rng`` sweep over
``scripts/``, prints a human summary, writes a machine-readable report
to ``LINT_report.json`` (including the float64 exemption table and
per-plan memory-footprint estimates from the dataflow analyzer), and
exits non-zero on any violation.  Runnable locally and in CI alongside
tier-1 tests:

    PYTHONPATH=src python scripts/static_check.py [--rules name ...]

``--src-root``/``--tests-root`` point the checker at another tree (used
by the test-suite to lint deliberately-broken fixtures);
``--scripts-root`` points the scripts sweep elsewhere (pass a
non-existent path to skip); ``--json`` changes the report path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.lint import (  # noqa: E402
    Project, RULES, dtype_policy_report, run_lint)
from repro.analysis.report import finish, write_json_report  # noqa: E402

#: Rules that make sense for standalone scripts (no package layout).
SCRIPTS_RULES = ("unseeded-rng",)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src-root", type=Path,
                        default=REPO_ROOT / "src" / "repro",
                        help="package root to lint (the directory "
                             "containing nn/, eval/, ...)")
    parser.add_argument("--tests-root", type=Path,
                        default=REPO_ROOT / "tests",
                        help="tests directory (for fused-op coverage "
                             "checks); pass a non-existent path to skip")
    parser.add_argument("--scripts-root", type=Path,
                        default=REPO_ROOT / "scripts",
                        help="scripts directory swept with the "
                             f"{'/'.join(SCRIPTS_RULES)} rule(s); pass a "
                             "non-existent path to skip")
    parser.add_argument("--rules", nargs="*", default=None,
                        metavar="RULE",
                        help=f"subset of rules to run "
                             f"(default: all of {sorted(RULES)})")
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "LINT_report.json")
    args = parser.parse_args()

    if args.rules is not None:
        if not args.rules:
            parser.error("--rules given with no rule names; "
                         f"available rules: {', '.join(sorted(RULES))}")
        unknown = sorted(set(args.rules) - set(RULES))
        if unknown:
            parser.error(f"unknown rules: {', '.join(unknown)}; "
                         f"available rules: {', '.join(sorted(RULES))}")

    tests_root = args.tests_root if args.tests_root.is_dir() else None
    violations = run_lint(args.src_root, tests_root=tests_root,
                          rules=args.rules)

    rules_run = args.rules if args.rules is not None else sorted(RULES)
    scripts_rules = [r for r in SCRIPTS_RULES if r in rules_run]
    if args.scripts_root.is_dir() and scripts_rules:
        violations.extend(run_lint(args.scripts_root, rules=scripts_rules))

    print(f"static check over {args.src_root} "
          f"({len(rules_run)} rules: {', '.join(rules_run)})")
    for v in violations:
        print(f"  {v}")

    report = {
        "src_root": str(args.src_root),
        "scripts_root": (str(args.scripts_root)
                         if args.scripts_root.is_dir() else None),
        "rules": list(rules_run),
        "violations": [v.as_dict() for v in violations],
        "dtype_exemptions": dtype_policy_report(
            Project(args.src_root, tests_root=tests_root)),
        "plan_footprints": _plan_footprints(),
    }
    write_json_report(args.json, report)

    by_rule = {}
    for v in violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    detail = ", ".join(f"{rule}={count}"
                       for rule, count in sorted(by_rule.items()))
    return finish(
        ok=not violations,
        ok_message=f"no violations across {len(rules_run)} rules",
        fail_message=f"{len(violations)} lint violations ({detail})")


def _plan_footprints() -> dict:
    """Memory footprints for every registered backbone's plan.

    Measured by running each plan's forward program on probe batches
    (:func:`repro.analysis.dataflow.memory_footprint`); small reference
    hyperparameters keep this cheap enough for every lint invocation.
    """
    from repro.analysis.dataflow import default_plan_footprints
    return default_plan_footprints()


if __name__ == "__main__":
    raise SystemExit(main())
