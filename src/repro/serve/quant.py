"""int8 / fp16 quantization of FrozenPlan weight tables.

Frozen plans carry every weight as a float64 array; for shipping plans
to serving workers (the cluster pickle spool) and for cold storage
that is 8x / 4x more bytes than needed.  :func:`quantize_plan` walks a
plan's object graph — its step programs, the item table, the SSDRec
backbone plan, everything — and replaces each floating array with a
compact :class:`QuantizedArray` record.  Programs share arrays (the
item table feeds several embed steps, a GRU cell every recurrent
program), so each distinct array is quantized once and its record
shared wherever the array was:

``int8``
    Per-row affine code: for each row of the array (flattened to 2-D
    over the trailing axis) ``scale = max|row| / 127`` and
    ``q = round(x / scale)``.  Dequantization error is bounded
    elementwise by ``scale / 2`` (:func:`max_abs_error`).
``fp16``
    IEEE half precision; relative rounding error ``<= 2**-11`` for
    in-range magnitudes, with absolute floor ``2**-24`` below the
    subnormal range.

``table_t`` (the transposed scoring copy) is dropped entirely and
rebuilt from ``item_table`` on load, and an attached ANN index is
replaced by its build spec (seed + cluster count) and reconstructed
deterministically from the dequantized table — both halve the payload
without a second lossy copy that could drift from the table it mirrors.

:func:`dequantize_plan` restores a fully working plan and re-verifies
it by probe execution (:mod:`repro.analysis.dataflow`).  Corrupted
records — a scale vector whose shape no longer matches its rows, a
codes array that lost its shape — fail with a
:class:`~repro.analysis.dataflow.PlanVerificationError` naming the
offending weight path, the same error surface ``verify_plan`` uses for
step mismatches.

Everything stored on :class:`QuantizedArray` / :class:`QuantizedPlan`
is primitives + arrays, so quantized plans ride the cluster spool under
the ``worker-boundary`` rule; ``ClusterService`` dequantizes on load.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Quantization modes -> storage dtype.
MODES = {"int8": "int8", "fp16": "float16"}

#: fp16 relative rounding error (11-bit significand round-to-nearest).
FP16_RELATIVE_ERROR = 2.0 ** -11

#: fp16 absolute error floor (largest subnormal gap).
FP16_ABSOLUTE_FLOOR = 2.0 ** -24


class QuantizedArray:
    """Compact encoding of one float array (pure data, spool-safe)."""

    def __init__(self, mode: str, shape: Tuple[int, ...], dtype: str,
                 data: np.ndarray, scale: Optional[np.ndarray]):
        self.mode = mode
        self.shape = tuple(int(s) for s in shape)
        self.dtype = str(dtype)
        self.data = data
        self.scale = scale

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes
                   + (0 if self.scale is None else self.scale.nbytes))


def quantize_array(arr: np.ndarray, mode: str) -> QuantizedArray:
    """Encode one float array under ``mode`` (``int8`` or ``fp16``)."""
    if mode not in MODES:
        raise ValueError(f"unknown quantization mode {mode!r}; "
                         f"expected one of {sorted(MODES)}")
    arr = np.asarray(arr)
    if arr.dtype.kind != "f":
        raise ValueError(f"can only quantize float arrays, got {arr.dtype}")
    if mode == "fp16":
        return QuantizedArray(mode, arr.shape, str(arr.dtype),
                              arr.astype(np.float16), None)
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim else arr.reshape(1, 1)
    scale = np.abs(rows).max(axis=1, keepdims=True) / 127.0
    scale[scale == 0.0] = 1.0
    codes = np.round(rows / scale).astype(np.int8)
    return QuantizedArray(mode, arr.shape, str(arr.dtype), codes, scale)


def dequantize_array(qa: QuantizedArray, path: str = "?",
                     plan: str = "?") -> np.ndarray:
    """Decode one record, validating its metadata first.

    Raises :class:`~repro.analysis.dataflow.PlanVerificationError`
    naming ``path`` when the stored codes or scale vector are
    inconsistent with the recorded shape — the corruption surface the
    spool-load re-verification relies on.
    """
    from ..analysis.dataflow import PlanVerificationError

    def bad(message: str):
        raise PlanVerificationError(f"dequantize[{path}]: {message}",
                                    plan=plan, op=f"dequantize[{path}]")

    if qa.mode not in MODES:
        bad(f"unknown quantization mode {qa.mode!r}")
    expected = int(np.prod(qa.shape, dtype=np.int64)) if qa.shape else 1
    if int(qa.data.size) != expected:
        bad(f"codes hold {qa.data.size} values but recorded shape "
            f"{qa.shape} needs {expected}")
    if qa.mode == "fp16":
        if qa.data.dtype != np.float16:
            bad(f"fp16 record stores {qa.data.dtype} codes")
        return qa.data.reshape(qa.shape).astype(qa.dtype)
    if qa.data.dtype != np.int8:
        bad(f"int8 record stores {qa.data.dtype} codes")
    last = qa.shape[-1] if qa.shape else 1
    rows = expected // max(1, last)
    if qa.scale is None:
        bad("int8 record is missing its per-row scale vector")
    if qa.scale.shape != (rows, 1):
        bad(f"scale vector shape {qa.scale.shape} does not match the "
            f"{rows} quantized rows (expected {(rows, 1)})")
    if not np.all(np.isfinite(qa.scale)) or np.any(qa.scale <= 0.0):
        bad("scale vector has non-finite or non-positive entries")
    decoded = qa.data.reshape(rows, last).astype(np.float64) * qa.scale
    return decoded.reshape(qa.shape).astype(qa.dtype)


def max_abs_error(qa: QuantizedArray) -> float:
    """Documented elementwise reconstruction-error bound for a record."""
    if qa.mode == "int8":
        return float(qa.scale.max()) * 0.5
    peak = float(np.abs(qa.data.astype(np.float64)).max()) \
        if qa.data.size else 0.0
    return peak * FP16_RELATIVE_ERROR + FP16_ABSOLUTE_FLOOR


class QuantizedPlan:
    """A frozen plan with every float weight table quantized.

    Not directly servable — :meth:`dequantize` reconstructs the live
    plan (rebuilding ``table_t`` and any ANN index) and re-verifies it.
    """

    def __init__(self, payload, mode: str, plan_name: str,
                 ann_spec: Optional[dict]):
        self.payload = payload
        self.mode = mode
        self.plan_name = plan_name
        self.ann_spec = ann_spec

    def weights(self) -> Dict[str, QuantizedArray]:
        """Path -> record map over every quantized weight."""
        found: Dict[str, QuantizedArray] = {}

        def visit(obj, path):
            if isinstance(obj, QuantizedArray):
                found[path] = obj
            return obj

        _walk(self.payload, visit, self.plan_name)
        return found

    def nbytes(self) -> int:
        records = {id(qa): qa for qa in self.weights().values()}
        return sum(qa.nbytes for qa in records.values())

    def dequantize(self, verify: bool = True):
        """Reconstruct the servable plan; verify unless told not to."""
        plan = copy.deepcopy(self.payload)

        def visit(obj, path):
            if isinstance(obj, QuantizedArray):
                return dequantize_array(obj, path=path,
                                        plan=self.plan_name)
            return obj

        _walk(plan, visit, self.plan_name)
        for holder in _table_holders(plan):
            holder.table_t = np.ascontiguousarray(holder.item_table.T)
        if self.ann_spec is not None:
            from .plan import attach_ann_index
            attach_ann_index(plan, **self.ann_spec, verify=False)
        if verify:
            plan.verify()
        return plan

    def verify(self):
        """Validate every record, then verify the reconstructed plan
        (once)."""
        return self.dequantize(verify=False).verify()


def quantize_plan(plan, mode: str) -> QuantizedPlan:
    """Quantize every float weight array reachable from ``plan``."""
    if mode not in MODES:
        raise ValueError(f"unknown quantization mode {mode!r}; "
                         f"expected one of {sorted(MODES)}")
    if not getattr(plan, "supports_encode", False):
        raise ValueError("cannot quantize a fallback plan: it wraps a "
                         "live model graph, not weight tables")
    clone = copy.deepcopy(plan)
    ann_spec = None
    index = getattr(clone, "ann_index", None)
    if index is not None:
        ann_spec = index.spec()
        clone.ann_index = None
    for holder in _table_holders(clone):
        holder.table_t = None

    def visit(obj, path):
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            return quantize_array(obj, mode)
        return obj

    _walk(clone, visit, type(plan).__name__)
    return QuantizedPlan(clone, mode, type(plan).__name__, ann_spec)


def _walk(root, visit, root_path: str) -> None:
    """Depth-first in-place rewrite of a plan object graph.

    ``visit(value, path)`` may return a replacement for any leaf;
    containers (dicts, lists, plan-object ``__dict__``s) are rewritten
    in place.  A replaced leaf is visited once: every later reference
    to it gets the same replacement.  Tuples are treated as immutable
    leaves-of-leaves (plan metadata like ``masked_columns`` — never
    weight storage).
    """
    seen = set()
    replaced = {}   # id -> (original, replacement); keeps ids unique

    def rewrite(container, key, value, path):
        replaced = step(value, path)
        if replaced is not value:
            container[key] = replaced

    def step(value, path):
        if id(value) in replaced:
            return replaced[id(value)][1]
        out = visit(value, path)
        if out is not value:
            replaced[id(value)] = (value, out)
            return out
        if id(value) in seen:
            return value
        if isinstance(value, dict):
            seen.add(id(value))
            for key in list(value):
                rewrite(value, key, value[key], f"{path}.{key}")
        elif isinstance(value, list):
            seen.add(id(value))
            for pos in range(len(value)):
                rewrite(value, pos, value[pos], f"{path}[{pos}]")
        elif _is_plan_object(value):
            seen.add(id(value))
            attrs = vars(value)
            for key in list(attrs):
                rewrite(attrs, key, attrs[key], f"{path}.{key}")
        return value

    step(root, root_path)


def _is_plan_object(value) -> bool:
    module = type(value).__module__ or ""
    return module.startswith("repro.") and hasattr(value, "__dict__") \
        and not callable(value)


def _table_holders(plan) -> List:
    """Every nested plan object carrying an ``item_table``/``table_t``
    scoring pair (the plan itself plus e.g. an SSDRec backbone)."""
    holders = []

    def visit(obj, path):
        if _is_plan_object(obj) and hasattr(obj, "table_t") \
                and hasattr(obj, "item_table"):
            holders.append(obj)
        return obj

    _walk(plan, visit, "plan")
    return holders
