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

``table_t`` (the transposed scoring copy) is never quantized: plans
pickle and copy without it and rebuild it from ``item_table``
(:meth:`repro.serve.plan.FrozenPlan.__getstate__`), so the records are
built from, and decoded through, that same state.  An attached ANN
index is replaced by its build spec (seed + cluster count) and
reconstructed deterministically from the dequantized table — neither
ships a second lossy copy that could drift from the table it mirrors.

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
from typing import Dict, Iterator, Optional, Tuple

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
        return {path: value
                for path, value in _leaves(self.payload, self.plan_name)
                if isinstance(value, QuantizedArray)}

    def nbytes(self) -> int:
        records = {id(qa): qa for qa in self.weights().values()}
        return sum(qa.nbytes for qa in records.values())

    def dequantize(self, verify: bool = True):
        """Reconstruct the servable plan; verify unless told not to."""
        decoded = {}
        for path, qa in self.weights().items():
            if id(qa) not in decoded:
                decoded[id(qa)] = dequantize_array(qa, path=path,
                                                   plan=self.plan_name)
        # Copying through the decoded records rebuilds table_t on the
        # way (FrozenPlan.__setstate__).
        plan = copy.deepcopy(self.payload, decoded)
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
    """Quantize every float weight array reachable from ``plan``.

    Each distinct array is encoded once; the payload is a copy of the
    plan in which every reference to it holds the shared record.
    """
    if mode not in MODES:
        raise ValueError(f"unknown quantization mode {mode!r}; "
                         f"expected one of {sorted(MODES)}")
    if not getattr(plan, "supports_encode", False):
        raise ValueError("cannot quantize a fallback plan: it wraps a "
                         "live model graph, not weight tables")
    index = getattr(plan, "ann_index", None)
    skip = () if index is None else (index,)
    # deepcopy's memo maps each original to its replacement: every
    # float array to its record, the live index to None.
    memo = {id(obj): None for obj in skip}
    for _, value in _leaves(plan, type(plan).__name__, skip):
        if (isinstance(value, np.ndarray) and value.dtype.kind == "f"
                and id(value) not in memo):
            memo[id(value)] = quantize_array(value, mode)
    return QuantizedPlan(copy.deepcopy(plan, memo), mode,
                         type(plan).__name__,
                         None if index is None else index.spec())


def _leaves(root, root_path: str, skip=()) -> Iterator[Tuple[str, object]]:
    """Depth-first ``(path, value)`` over a plan's pickled state.

    Containers (dicts, lists, plan objects — through their
    ``__getstate__``, so ``table_t`` is never reached) are entered once;
    every other value, records included, is yielded at each path that
    reaches it.  Tuples are leaves (plan metadata like
    ``masked_columns``, never weight storage); objects in ``skip`` are
    not entered.
    """
    # Holds every entered container, so the id of a temporary state
    # dict is never reused (and mistaken for seen) during the walk.
    seen = {id(obj): obj for obj in skip}

    def visit(value, path):
        if isinstance(value, (dict, list)) or (
                _is_plan_object(value)
                and not isinstance(value, QuantizedArray)):
            if id(value) in seen:
                return
            seen[id(value)] = value
            if isinstance(value, list):
                items = ((f"{path}[{pos}]", v) for pos, v in enumerate(value))
            else:
                state = value if isinstance(value, dict) \
                    else value.__getstate__()
                items = ((f"{path}.{key}", v) for key, v in state.items())
            for child_path, child in items:
                yield from visit(child, child_path)
        else:
            yield path, value

    return visit(root, root_path)


def _is_plan_object(value) -> bool:
    module = type(value).__module__ or ""
    return module.startswith("repro.") and hasattr(value, "__dict__") \
        and not callable(value)
