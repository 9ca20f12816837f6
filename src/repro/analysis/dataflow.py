"""Abstract interpretation over FrozenPlan programs.

A compiled :class:`~repro.serve.plan.FrozenPlan` *is* its step
programs: ``plan.programs`` maps ``"encode"``, ``"score"`` and the
optional ``"tight"`` / ``"append"`` / ``"readout"`` to step lists
(``{"op", "in", "out", "params"}``) whose params hold the live weight
arrays, and :mod:`repro.serve.program` runs exactly those steps to
serve.  This module executes the same programs **symbolically** — every
value is a :class:`~repro.analysis.signatures.AbstractValue`
``(shape, dtype)`` lattice point with the batch axis symbolic (``"B"``)
— by applying the per-op transfer functions registered in
:mod:`repro.analysis.signatures`.  The verified program is the program
that runs.

Two clients:

* :func:`verify_plan` — walk every program and raise a structured
  :class:`PlanVerificationError` (plan name, step index, op) on any
  shape/dtype mismatch between a step and its weights.
  ``freeze(model)`` calls this by default, so a drifted weight layout
  fails at compile time, not inside a serving worker.
* :func:`memory_footprint` — concretize the inferred shapes at chosen
  batch sizes and report per-step/peak activation bytes plus resident
  weight bytes (the building block for the mmap-substrate bounded-RSS
  gate; surfaced in ``LINT_report.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .signatures import SIGNATURES, AbstractValue, SignatureError

__all__ = [
    "PlanVerificationError", "StepTrace", "plan_inputs", "run_program",
    "verify_plan", "memory_footprint", "default_plan_footprints",
]


class PlanVerificationError(ValueError):
    """A plan program failed abstract interpretation.

    Carries the plan name, the 0-based step index, and the op so callers
    (tests, spool loaders, CLI surfaces) can report the exact step
    without parsing the message.
    """

    def __init__(self, message: str, plan: str = "?",
                 step_index: Optional[int] = None,
                 op: Optional[str] = None):
        location = plan if step_index is None else (
            f"{plan} step {step_index} ({op})")
        super().__init__(f"[{location}] {message}")
        self.plan = plan
        self.step_index = step_index
        self.op = op


@dataclass
class StepTrace:
    """One interpreted step: the op plus its abstract inputs/outputs."""

    index: int
    op: str
    inputs: List[AbstractValue]
    outputs: List[AbstractValue]


def plan_inputs(plan, length: Optional[int] = None
                ) -> Dict[str, AbstractValue]:
    """Initial abstract environment for one padded forward.

    The batch axis is the symbol ``"B"``; the sequence axis is concrete
    (``plan.max_len`` — the canonical ``padding="model"`` layout).
    ``users`` is always present; plans that ignore it never read it.
    """
    max_len = int(plan.max_len if length is None else length)
    return {
        "items": AbstractValue(("B", max_len), "int64"),
        "mask": AbstractValue(("B", max_len), "bool"),
        "users": AbstractValue(("B",), "int64"),
    }


def run_program(program: List[dict], env: Dict[str, AbstractValue],
                plan_name: str = "plan"
                ) -> Tuple[Dict[str, AbstractValue], List[StepTrace]]:
    """Symbolically execute ``program`` from ``env``.

    Returns the final environment and the per-step trace; raises
    :class:`PlanVerificationError` on an unknown op, an undefined input
    name, or a transfer-function rejection.
    """
    env = dict(env)
    trace: List[StepTrace] = []
    for index, step in enumerate(program):
        op = step.get("op")
        transfer = SIGNATURES.get(op)
        if transfer is None:
            raise PlanVerificationError(
                f"unknown op {op!r}: no transfer function is registered "
                f"in repro.analysis.signatures",
                plan=plan_name, step_index=index, op=op)
        inputs = []
        for name in step.get("in", ()):
            value = env.get(name)
            if value is None:
                raise PlanVerificationError(
                    f"input {name!r} is not produced by any earlier step",
                    plan=plan_name, step_index=index, op=op)
            inputs.append(value)
        try:
            outputs = transfer(inputs, step.get("params", {}))
        except SignatureError as exc:
            raise PlanVerificationError(
                str(exc), plan=plan_name, step_index=index, op=op
            ) from exc
        out_names = step.get("out", ())
        if len(outputs) != len(out_names):
            raise PlanVerificationError(
                f"transfer function produced {len(outputs)} values for "
                f"{len(out_names)} declared outputs",
                plan=plan_name, step_index=index, op=op)
        for name, value in zip(out_names, outputs):
            env[name] = value
        trace.append(StepTrace(index=index, op=op, inputs=inputs,
                               outputs=list(outputs)))
    return env, trace


def verify_plan(plan) -> Optional[Dict[str, List[StepTrace]]]:
    """Abstract-interpret every program ``plan`` runs.

    Returns ``{program name: step trace}`` — ``"forward"`` (encode +
    score, plus the ANN pseudo-ops when an index is attached), then
    ``"tight"``, ``"append"`` and ``"readout"`` where present — or None
    for fallback plans (a live model graph has no program to verify).
    The ``append`` program runs from the state a tight encode one item
    short of the window produces.  Raises :class:`PlanVerificationError`
    naming the offending program step otherwise.
    """
    if not getattr(plan, "supports_encode", True):
        return None
    name, programs = plan.model_name, plan.programs
    traces = {}
    _, traces["forward"] = run_program(plan.program(), plan_inputs(plan),
                                       plan_name=name)
    if "tight" in programs:
        _, traces["tight"] = run_program(programs["tight"],
                                         plan_inputs(plan),
                                         plan_name=f"{name} tight")
    if "append" in programs:
        env, _ = run_program(programs["tight"],
                             plan_inputs(plan, plan.max_len - 1),
                             plan_name=f"{name} tight")
        state = {key: env[key] for key in plan.state_names}
        env, traces["append"] = run_program(
            programs["append"],
            dict(state, item=AbstractValue(("B",), "int64")),
            plan_name=f"{name} append")
        _, traces["readout"] = run_program(
            programs["readout"], {key: env[key] for key in plan.state_names},
            plan_name=f"{name} readout")
    return traces


# ---------------------------------------------------------------------------
# Memory footprint
# ---------------------------------------------------------------------------

def _weight_bytes(plan) -> int:
    """Bytes of every distinct weight array the plan's programs hold
    (steps share arrays across programs; each counts once)."""
    arrays: Dict[int, int] = {}

    def visit(value) -> None:
        if isinstance(value, np.ndarray):
            arrays[id(value)] = int(value.nbytes)
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for program in [plan.program(), *plan.programs.values()]:
        for entry in program:
            visit(entry["params"])
    return sum(arrays.values())


def memory_footprint(plan, batch_sizes: Iterable[int] = (1, 64)
                     ) -> Optional[dict]:
    """Per-step activation bytes and resident weight bytes for ``plan``.

    Shapes come from the abstract interpreter over the forward program,
    concretized at each batch size: ``activations[batch]`` reports the
    peak single-step output allocation (index + op named) and the total
    across all steps.  ``weight_bytes`` sums every distinct weight array
    the programs hold — ``item_table`` and its transposed ``table_t``
    count separately because both are materialized.  None for fallback
    plans.
    """
    traces = verify_plan(plan)
    if traces is None:
        return None
    trace = traces["forward"]
    report = {
        "model": plan.model_name,
        "max_len": int(plan.max_len),
        "steps": len(trace),
        "weight_bytes": _weight_bytes(plan),
        "activations": {},
    }
    for batch in batch_sizes:
        per_step = [sum(value.nbytes(batch) for value in entry.outputs)
                    for entry in trace]
        peak = max(range(len(per_step)), key=per_step.__getitem__)
        report["activations"][str(int(batch))] = {
            "peak_step_bytes": int(per_step[peak]),
            "peak_step_index": trace[peak].index,
            "peak_step_op": trace[peak].op,
            "total_bytes": int(sum(per_step)),
        }
    return report


def default_plan_footprints(num_items: int = 48, dim: int = 16,
                            max_len: int = 10, seed: int = 0) -> List[dict]:
    """Footprints for every registered backbone at a small config.

    Used by ``scripts/static_check.py`` / ``repro.cli lint`` to publish
    per-plan memory estimates into ``LINT_report.json``.  Models are
    freshly initialized (footprints depend only on shapes, not trained
    values).
    """
    from ..models import BACKBONES
    from ..serve.plan import freeze

    footprints = []
    for name in sorted(BACKBONES):
        model = BACKBONES[name](num_items=num_items, dim=dim,
                                max_len=max_len,
                                rng=np.random.default_rng(seed))
        footprint = memory_footprint(freeze(model))
        if footprint is not None:
            footprints.append(footprint)
    return footprints
