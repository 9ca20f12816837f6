"""Plan verification by probe execution.

A compiled :class:`~repro.serve.plan.FrozenPlan` *is* its step
programs: ``plan.programs`` maps ``"encode"``, ``"score"`` and the
optional ``"tight"`` / ``"append"`` / ``"readout"`` to step lists
(``{"op", "in", "out", "params"}``) whose params hold the live weight
arrays, and :mod:`repro.serve.program` runs exactly those steps to
serve.  This module checks a plan by running the same programs, step by
step through :func:`~repro.serve.program.run_step`, on two small probe
batches (:data:`PROBE_BATCHES`) in lockstep.  The verified code is the
code that serves; there is no second description of any kernel to keep
in sync.

Two clients:

* :func:`verify_plan` — run every program at both probe batch sizes and
  raise a structured :class:`PlanVerificationError` (plan name, step
  index, op) when a step raises, holds a non-float64 weight, produces a
  non-finite value, or produces outputs whose dtype or non-batch axes
  change with the batch size.  ``freeze(model)`` calls this by default,
  so a drifted weight layout fails at compile time, not inside a
  serving worker.
* :func:`memory_footprint` — run the forward program at chosen batch
  sizes and report per-step/peak activation bytes plus resident weight
  bytes (surfaced in ``LINT_report.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..serve.ann import DEFAULT_NPROBE
from ..serve.program import run_step
from ..serve.retrieval import topk_from_scores

__all__ = [
    "PROBE_BATCHES", "PlanVerificationError", "StepTrace", "verify_plan",
    "memory_footprint", "default_plan_footprints",
]

#: Batch sizes every program is probed at; comparing the two runs pins
#: which output axes depend on the batch.
PROBE_BATCHES = (1, 3)


class PlanVerificationError(ValueError):
    """A plan program failed verification.

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
    """One probed step: the op plus each output's ``(row shape, dtype)``
    — the shape without its leading batch axis."""

    index: int
    op: str
    outputs: List[Tuple[Tuple[int, ...], str]]


def _arrays(value, path: str = ""):
    """``(path, array)`` for every ndarray nested in step params."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for position, item in enumerate(value):
            yield from _arrays(item, f"{path}[{position}]")


def _check_weights(params: dict) -> None:
    """Plan weights are float64: a float32 weight runs without error and
    still yields float64 outputs, so only its own dtype shows it."""
    for path, array in _arrays(params):
        if array.dtype.kind == "f" and array.dtype != np.float64:
            raise TypeError(f"weight {path!r} is {array.dtype}; plan "
                            f"weights must be float64")


def _run(program: List[dict], envs: List[dict], plan_name: str
         ) -> List[List[List[np.ndarray]]]:
    """Run ``program`` on each env of ``envs`` in place, in lockstep.

    The envs are probe batches of different sizes.  Returns, per step,
    each env's outputs.  Any failure — an unknown op, an undefined
    input, a NumPy shape, broadcast or index error, a non-float64
    weight, a non-finite floating output, an output whose dtype or
    non-batch axes differ between the envs — raises
    :class:`PlanVerificationError` naming the step.
    """
    outputs = []
    for index, entry in enumerate(program):
        try:
            _check_weights(entry["params"])
            produced = []
            for env in envs:
                run_step(entry, env)
                produced.append([np.asarray(env[name])
                                 for name in entry["out"]])
            for name, *values in zip(entry["out"], *produced):
                _check_outputs(name, values)
        except Exception as exc:
            raise PlanVerificationError(
                f"{type(exc).__name__}: {exc}", plan=plan_name,
                step_index=index, op=entry.get("op")) from exc
        outputs.append(produced)
    return outputs


def _check_outputs(name: str, values: List[np.ndarray]) -> None:
    """One output across the probe batches: finite, one dtype, and the
    same shape apart from axis 0."""
    first = values[0]
    for value in values:
        if value.dtype.kind == "f" and not np.isfinite(value).all():
            raise FloatingPointError(
                f"output {name!r} holds non-finite values")
        if (value.dtype, value.shape[1:], value.ndim) != (
                first.dtype, first.shape[1:], first.ndim):
            raise ValueError(
                f"output {name!r} is {first.dtype}{list(first.shape)} and "
                f"{value.dtype}{list(value.shape)} at two batch sizes; "
                f"only axis 0 may follow the batch")


def _probe_inputs(plan, batch: int, length: int) -> dict:
    """A padded probe batch: every position valid, item ids cycling
    over ``1 .. V-1`` (never the padding id), user 0 (plans without
    users ignore it)."""
    positions = np.arange(batch * length, dtype=np.int64)
    return {"items": (1 + positions % (plan.vocab_size - 1)
                      ).reshape(batch, length),
            "mask": np.ones((batch, length), dtype=bool),
            "users": np.zeros(batch, dtype=np.int64)}


def _check_ann(plan, reprs: np.ndarray) -> None:
    """Index geometry, then one search from the probe representations."""
    index = plan.ann_index
    try:
        index.validate()
        index.search(reprs, k=min(10, index.size),
                     nprobe=min(DEFAULT_NPROBE, index.num_clusters))
    except Exception as exc:
        raise PlanVerificationError(
            f"ANN index: {type(exc).__name__}: {exc}",
            plan=f"{plan.model_name} ann") from exc


def _check_topk(plan, env: dict) -> None:
    """On plans whose ``topk`` selects from the float32 table, it must
    pick, on the forward probe ``env``, the ids ``topk_from_scores``
    picks from the score program's output, up to the order of items
    whose scores lie within float64 rounding of each other.  (Other
    plans' ``topk`` is ``score`` + ``topk_from_scores`` itself.)

    With ``tol`` the re-score's rounding bound
    (``table32.rescore_error``), the ``k`` ids must be distinct, each
    served score within ``tol`` of the score program's, and the score
    program's score at the ``j``-th id within ``2·tol`` of its ``j``-th
    best score.
    """
    k = min(10, plan.vocab_size)
    if not plan.certifies(k):
        return
    try:
        reprs, scores = env["rep"], env["scores"]
        top, values = plan.topk(reprs, k)
        tol = plan.table32.rescore_error(
            np.sqrt(np.einsum("ij,ij->i", reprs, reprs)))[:, None]
        served = np.take_along_axis(scores, top, axis=1)
        best = np.take_along_axis(
            scores, topk_from_scores(scores, k), axis=1)
        if ((np.diff(np.sort(top, axis=1), axis=1) == 0).any()
                or (np.abs(values - served) > tol).any()
                or (np.abs(served - best) > 2.0 * tol).any()):
            raise ValueError("ids differ from topk_from_scores of the "
                             "score program beyond float64 rounding")
    except Exception as exc:
        raise PlanVerificationError(
            f"topk: {type(exc).__name__}: {exc}",
            plan=f"{plan.model_name} topk") from exc


def verify_plan(plan) -> Optional[Dict[str, List[StepTrace]]]:
    """Run every program ``plan`` serves on the probe batches.

    Each program runs at every size of :data:`PROBE_BATCHES`, step by
    step in lockstep: ``"forward"`` (encode + score) at the full
    window, ``"tight"`` one item short of the window, ``"append"`` from
    the state that tight encode leaves and ``"readout"`` from the state
    ``append`` leaves (the positional steps' full-window shapes are the
    forward program's).  At every step the weights must be float64 and
    each output finite, of one dtype, and of one shape apart from axis
    0 across the probes.  On catalogs of at least K whole chunks,
    ``plan.topk`` must select, from the forward probe's
    representations, the ids ``topk_from_scores`` selects from its
    scores, up to float64 rounding (:func:`_check_topk`).  An attached
    ANN index is checked for geometry and searched with the forward
    probe's representations.

    Returns ``{program name: step trace}``, or None for fallback plans
    (a live model graph has no program to verify).  Raises
    :class:`PlanVerificationError` naming the offending program step
    otherwise.
    """
    if not getattr(plan, "supports_encode", True):
        return None
    name, programs = plan.model_name, plan.programs
    traces = {}

    def run(key, steps, envs, label):
        traces[key] = [
            StepTrace(index, entry["op"],
                      [(value.shape[1:], str(value.dtype))
                       for value in produced[0]])
            for index, (entry, produced) in enumerate(
                zip(steps, _run(steps, envs, label)))]
        return envs

    forward = run("forward", programs["encode"] + programs["score"],
                  [_probe_inputs(plan, batch, plan.max_len)
                   for batch in PROBE_BATCHES], name)
    if "tight" in programs:
        envs = run("tight", programs["tight"],
                   [_probe_inputs(plan, batch, plan.max_len - 1)
                    for batch in PROBE_BATCHES], f"{name} tight")
    if "append" in programs:
        envs = run("append", programs["append"],
                   [dict({key: env[key] for key in plan.state_names},
                         item=env["items"][:, 0]) for env in envs],
                   f"{name} append")
        run("readout", programs["readout"],
            [{key: env[key] for key in plan.state_names} for env in envs],
            f"{name} readout")
    _check_topk(plan, forward[-1])
    if plan.ann_index is not None:
        _check_ann(plan, forward[-1]["rep"])
    return traces


# ---------------------------------------------------------------------------
# Memory footprint
# ---------------------------------------------------------------------------

def _weight_bytes(plan) -> int:
    """Bytes of every distinct weight array the plan's programs, its
    float32 score table and its ANN index hold; steps share arrays
    across programs, each counts once."""
    params = [entry["params"] for program in plan.programs.values()
              for entry in program]
    params.append(vars(plan.table32))
    if plan.ann_index is not None:
        params.append(vars(plan.ann_index))
    arrays = {id(array): int(array.nbytes) for _, array in _arrays(params)}
    return sum(arrays.values())


def memory_footprint(plan, batch_sizes: Iterable[int] = (1, 64)
                     ) -> Optional[dict]:
    """Per-step activation bytes and resident weight bytes for ``plan``.

    The forward program (encode + score) runs on a probe batch of each
    batch size, in lockstep and under the verifier's checks:
    ``activations[batch]`` reports the peak single-step
    output allocation (index + op named) and the total across all
    steps, both from the real output arrays.  ``weight_bytes`` sums
    every distinct weight array the programs hold — ``item_table``, its
    transposed ``table_t`` and the float32 ``table32`` copy count
    separately because all are materialized.  None for fallback plans.
    """
    if not getattr(plan, "supports_encode", True):
        return None
    batch_sizes = [int(batch) for batch in batch_sizes]
    program = plan.programs["encode"] + plan.programs["score"]
    report = {
        "model": plan.model_name,
        "max_len": int(plan.max_len),
        "steps": len(program),
        "weight_bytes": _weight_bytes(plan),
        "activations": {},
    }
    outputs = _run(program, [_probe_inputs(plan, batch, plan.max_len)
                             for batch in batch_sizes], plan.model_name)
    for position, batch in enumerate(batch_sizes):
        per_step = [sum(value.nbytes for value in produced[position])
                    for produced in outputs]
        peak = max(range(len(per_step)), key=per_step.__getitem__)
        report["activations"][str(batch)] = {
            "peak_step_bytes": int(per_step[peak]),
            "peak_step_index": peak,
            "peak_step_op": program[peak]["op"],
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
