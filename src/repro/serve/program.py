"""Step programs: the one definition of every frozen plan's forward pass.

A program is a list of steps ``{"op", "in", "out", "params"}`` over a
dict environment of named values.  ``in`` names the environment values
a step reads, ``out`` the values it (re)binds, and ``params`` holds the
live weight arrays and constants.  :func:`execute` runs a program by
looking every op up in :data:`OPS` and calling
``kernel(*inputs, **params)``; :mod:`repro.analysis.dataflow` verifies
a plan by running the *same* steps through :func:`run_step` on probe
batches, so the verified program is the program that serves.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..nn import kernels as K
from . import executors as X

#: op name -> kernel.  Ops training shares run the training forward
#: itself (:mod:`repro.nn.kernels`).
OPS = {
    **{name: getattr(K, name) for name in (
        "sigmoid", "linear", "masked_softmax", "gru_step")},
    **{name: getattr(X, name) for name in (
        "relu", "transformer_encoder", "transformer_encoder_kv",
        "transformer_step_kv", "gru_forward", "last_state",
        "masked_mean", "standardize", "conv1d_relu_pool", "embed",
        "add_positions", "add_tight_positions", "add_position_at",
        "advance_length", "count_valid", "causal_attn_mask",
        "pad_attn_mask", "extend_mask_token", "take_last", "squeeze_last",
        "sum_last", "scale", "concat_last", "weighted_sum", "mask_states",
        "to_image", "fit_length", "reshape_merge_last2", "user_inject",
        "gate_combine", "threshold_keep", "apply_keep", "score")},
    "tanh": np.tanh,
    "add": np.add,
    "mul": np.multiply,
    "expand_dims": np.expand_dims,
}


def step(op: str, ins, outs, **params) -> dict:
    """One program step."""
    return {"op": op, "in": list(ins), "out": list(outs), "params": params}


def run_step(entry: dict, env: Dict[str, object], **extra
             ) -> Dict[str, object]:
    """Run one step against ``env`` in place (``extra`` adds per-call
    keyword arguments, e.g. a reusable ``out=`` buffer)."""
    kernel = OPS.get(entry["op"])
    if kernel is None:
        raise ValueError(f"no kernel for op {entry['op']!r}")
    result = kernel(*[env[name] for name in entry["in"]],
                    **entry["params"], **extra)
    names = entry["out"]
    if len(names) == 1:
        env[names[0]] = result
    else:
        env.update(zip(names, result))
    return env


def execute(program: List[dict], env: Dict[str, object]
            ) -> Dict[str, object]:
    """Run every step of ``program`` in order; returns ``env``."""
    for entry in program:
        run_step(entry, env)
    return env
