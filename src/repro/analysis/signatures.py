"""Shape/dtype transfer functions for frozen-plan step ops.

This module is the declarative half of the plan verifier
(:mod:`repro.analysis.dataflow`): a registry mapping every op a plan
step program can run (the op table of :mod:`repro.serve.program`), plus
the verifier-only ANN index pseudo-ops, to a *transfer function* over
:class:`AbstractValue` lattice values.

A lattice value is ``(shape, dtype)`` where each dimension is either a
concrete ``int`` or a symbolic name (the batch axis is always the symbol
``"B"``; everything else is concrete at freeze time).  A transfer
function receives the abstract inputs and the step's parameters (the
plan's live weight arrays and constants) and either
returns the abstract outputs or raises :class:`SignatureError` with a
message naming the mismatched operand.

Adding an op
------------
Give the kernel an entry in ``repro.serve.program.OPS`` and register
its transfer function here (a test pins the two name sets equal)::

    @signature("my_op")
    def sig_my_op(ins, params):
        (x,) = ins
        _require(x.dtype in _FLOATS, f"my_op input must be float, got {x}")
        return [x]

``ins`` is a list of :class:`AbstractValue`; ``params`` is the step's
parameter dict, whose weights are the live arrays (convert with
:func:`aval`).

Float64 policy
--------------
The serving substrate computes in ``float64`` end to end — the exact
parity contract with the training graph depends on it, and the
``NEG_INF`` masking sentinel is a float64 quantity.  The
``dtype-discipline`` lint rule requires every array allocation to state
its dtype *explicitly* and flags explicit ``np.float64`` pins in any
module not listed in :data:`FLOAT64_POLICY` below.  The table is the
single visible record of where float64 is intentional; matched site
counts are reported into ``LINT_report.json`` so an exemption can never
hide by silence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

Dim = Union[int, str]

_FLOATS = {"float16", "float32", "float64"}
_INTS = {"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
         "uint64"}


class SignatureError(ValueError):
    """A transfer function rejected its abstract inputs."""


@dataclass(frozen=True)
class AbstractValue:
    """One lattice point: a symbolic shape plus a dtype name."""

    shape: Tuple[Dim, ...]
    dtype: str

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.shape)
        return f"{self.dtype}[{dims}]"

    def nbytes(self, batch: int = 1) -> int:
        """Concrete byte size with every symbolic dim bound to ``batch``."""
        count = 1
        for dim in self.shape:
            count *= batch if isinstance(dim, str) else int(dim)
        return count * np.dtype(self.dtype).itemsize

    def concretize(self, batch: int) -> Tuple[int, ...]:
        return tuple(batch if isinstance(d, str) else int(d)
                     for d in self.shape)


def aval(spec) -> AbstractValue:
    """Coerce an array / weight descriptor / AbstractValue to a lattice
    value."""
    if isinstance(spec, AbstractValue):
        return spec
    if isinstance(spec, np.ndarray):
        return AbstractValue(tuple(int(s) for s in spec.shape),
                             str(spec.dtype))
    if isinstance(spec, dict):
        return AbstractValue(tuple(spec["shape"]), str(spec["dtype"]))
    raise SignatureError(f"cannot interpret {spec!r} as an abstract value")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SignatureError(message)


def _dims_match(a: Dim, b: Dim) -> bool:
    return a == b


def _broadcast_dim(a: Dim, b: Dim) -> Dim:
    if a == b:
        return a
    if a == 1:
        return b
    if b == 1:
        return a
    raise SignatureError(f"cannot broadcast dimensions {a} and {b}")


def broadcast_shapes(a: Tuple[Dim, ...], b: Tuple[Dim, ...]) -> Tuple[Dim, ...]:
    """NumPy-style right-aligned broadcast over symbolic shapes."""
    out: List[Dim] = []
    for i in range(max(len(a), len(b))):
        da = a[len(a) - 1 - i] if i < len(a) else 1
        db = b[len(b) - 1 - i] if i < len(b) else 1
        try:
            out.append(_broadcast_dim(da, db))
        except SignatureError:
            raise SignatureError(
                f"shapes {a} and {b} are not broadcastable "
                f"(axis -{i + 1}: {da} vs {db})")
    return tuple(reversed(out))


def _promote(*dtypes: str) -> str:
    return str(np.result_type(*[np.dtype(d) for d in dtypes]))


def _is_float(value: AbstractValue) -> bool:
    return value.dtype in _FLOATS


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
TransferFn = Callable[[List[AbstractValue], dict], List[AbstractValue]]

#: op name -> transfer function over (inputs, params).
SIGNATURES: Dict[str, TransferFn] = {}


def signature(*names: str):
    """Register a transfer function under one or more op names."""

    def register(fn: TransferFn) -> TransferFn:
        for name in names:
            SIGNATURES[name] = fn
        return fn

    return register


# ---------------------------------------------------------------------------
# Kernel signatures (mirror repro.nn.kernels / repro.serve.executors)
# ---------------------------------------------------------------------------
@signature("sigmoid", "relu", "tanh")
def sig_elementwise_activation(ins, params):
    (x,) = ins
    _require(_is_float(x), f"activation input must be float, got {x}")
    return [x]


@signature("linear")
def sig_linear(ins, params):
    (x,) = ins
    weight = aval(params["weight"])
    _require(weight.ndim == 2, f"linear weight must be 2-D, got {weight}")
    _require(x.ndim >= 1 and _dims_match(x.shape[-1], weight.shape[0]),
             f"linear input {x} does not match weight {weight} "
             f"(in_features {weight.shape[0]})")
    _require(_is_float(x) and _is_float(weight),
             f"linear needs float operands, got {x} @ {weight}")
    out_shape = x.shape[:-1] + (weight.shape[1],)
    dtype = _promote(x.dtype, weight.dtype)
    bias = params.get("bias")
    if bias is not None:
        b = aval(bias)
        _require(b.shape == (weight.shape[1],),
                 f"linear bias {b} does not match out_features "
                 f"{weight.shape[1]}")
        dtype = _promote(dtype, b.dtype)
    return [AbstractValue(out_shape, dtype)]


@signature("masked_softmax")
def sig_masked_softmax(ins, params):
    x, mask = ins
    _require(_is_float(x), f"masked_softmax input must be float, got {x}")
    _require(mask.dtype == "bool", f"mask must be bool, got {mask}")
    broadcast_shapes(mask.shape, x.shape)  # must be broadcastable
    return [AbstractValue(x.shape, _promote(x.dtype, "float64"))]


def _check_transformer_layer(x: AbstractValue, layer: dict,
                             num_heads: int, index: int) -> None:
    d = x.shape[-1]
    _require(isinstance(d, int) and d % num_heads == 0,
             f"layer {index}: model dim {d} not divisible by "
             f"num_heads {num_heads}")
    expect = {
        "w_qkv": (d, 3 * d), "b_qkv": (3 * d,),
        "w_out": (d, d), "b_out": (d,),
        "ln1_g": (d,), "ln1_b": (d,), "ln2_g": (d,), "ln2_b": (d,),
    }
    w_fc1 = aval(layer["w_fc1"])
    _require(w_fc1.ndim == 2 and _dims_match(w_fc1.shape[0], d),
             f"layer {index}: w_fc1 {w_fc1} does not take model dim {d}")
    hidden = w_fc1.shape[1]
    expect.update({"b_fc1": (hidden,), "w_fc2": (hidden, d),
                   "b_fc2": (d,)})
    for name, shape in expect.items():
        w = aval(layer[name])
        _require(w.shape == shape,
                 f"layer {index}: {name} has shape {w.shape}, "
                 f"expected {shape}")
        _require(_is_float(w) and w.dtype == "float64",
                 f"layer {index}: {name} must be float64, got {w.dtype}")


@signature("transformer_encoder")
def sig_transformer_encoder(ins, params):
    """Encoder read out at each sequence's last valid position of the
    readout ``mask``: ``(x, attn_mask, mask) -> (B, d)``."""
    x, attn_mask, mask = ins
    _require(x.ndim == 3 and _is_float(x),
             f"transformer_encoder input must be float (B, L, d), got {x}")
    _require(attn_mask.dtype == "bool",
             f"attention mask must be bool, got {attn_mask}")
    _require(mask.dtype == "bool" and mask.shape == x.shape[:2],
             f"readout mask {mask} must be bool (B, L) for {x}")
    num_heads = int(params["num_heads"])
    length, d = x.shape[1], x.shape[2]
    _require(attn_mask.ndim == 4,
             f"attention mask must be 4-D (B, H, Lq, Lk), got {attn_mask}")
    scores = ("B", num_heads, length, length)
    broadcast_shapes(attn_mask.shape, scores)
    _require(len(params["layers"]) > 0,
             "transformer_encoder needs at least one layer")
    for index, layer in enumerate(params["layers"]):
        _check_transformer_layer(x, layer, num_heads, index)
    _check_final_norm(params, d)
    return [AbstractValue((x.shape[0], d), _promote(x.dtype, "float64"))]


def _check_final_norm(params: dict, d) -> None:
    for name in ("final_g", "final_b"):
        w = aval(params[name])
        _require(w.shape == (d,),
                 f"final LayerNorm {name} has shape {w.shape}, "
                 f"expected ({d},)")


@signature("transformer_encoder_kv")
def sig_transformer_encoder_kv(ins, params):
    """Encoder that also yields each layer's K and V: ``rep, k_0,
    v_0, k_1, v_1, ...``, each K/V ``(B, H, L, hd)``."""
    x = ins[0]
    (rep,) = sig_transformer_encoder(ins, params)
    num_heads = int(params["num_heads"])
    kv = AbstractValue((x.shape[0], num_heads, x.shape[1],
                        x.shape[2] // num_heads),
                       _promote(x.dtype, "float64"))
    return [rep] + [kv] * (2 * len(params["layers"]))


@signature("transformer_step_kv")
def sig_transformer_step_kv(ins, params):
    """One token through every layer against the per-layer K/V prefix
    (``x, lengths, k_0, v_0, ...``); each prefix grows by one column.
    Traced at the steady state, where a prefix holds exactly its valid
    ``lengths`` columns."""
    x, lengths, *kv = ins
    _require(x.ndim == 3 and _is_float(x),
             f"transformer_step_kv token must be float (B, 1, d), got {x}")
    _require(_dims_match(x.shape[1], 1),
             f"transformer_step_kv advances one token, got length "
             f"{x.shape[1]}")
    _require(lengths.dtype in _INTS and lengths.shape == (x.shape[0],),
             f"prefix lengths must be integer (B,), got {lengths}")
    num_heads = int(params["num_heads"])
    layers = params["layers"]
    d = x.shape[2]
    for index, layer in enumerate(layers):
        _check_transformer_layer(x, layer, num_heads, index)
    _check_final_norm(params, d)
    _require(len(kv) == 2 * len(layers),
             f"{len(layers)} layers need {2 * len(layers)} K/V prefixes, "
             f"got {len(kv)}")
    for value in kv:
        _require(value.ndim == 4 and value.dtype == "float64"
                 and value.shape == kv[0].shape
                 and _dims_match(value.shape[0], x.shape[0])
                 and _dims_match(value.shape[1], num_heads)
                 and _dims_match(value.shape[3], d // num_heads),
                 f"K/V prefix {value} does not match {num_heads} heads "
                 f"over model dim {d}")
    width = kv[0].shape[2]
    grown = AbstractValue(kv[0].shape[:2] + (
        width + 1 if isinstance(width, int) else width, kv[0].shape[3]),
        "float64")
    return [AbstractValue((x.shape[0], d), "float64")] + [grown] * len(kv)


@signature("gru_forward")
def sig_gru_forward(ins, params):
    x = ins[0]
    _require(x.ndim == 3 and _is_float(x),
             f"gru_forward input must be float (B, L, in), got {x}")
    w_ih, w_hh = aval(params["w_ih"]), aval(params["w_hh"])
    b_ih, b_hh = aval(params["b_ih"]), aval(params["b_hh"])
    _require(w_hh.ndim == 2, f"w_hh must be 2-D, got {w_hh}")
    hidden = w_hh.shape[0]
    _require(w_hh.shape == (hidden, 3 * hidden),
             f"w_hh has shape {w_hh.shape}, expected "
             f"({hidden}, {3 * hidden})")
    _require(w_ih.shape == (x.shape[-1], 3 * hidden),
             f"w_ih {w_ih} does not map input dim {x.shape[-1]} to "
             f"3*hidden {3 * hidden}")
    _require(b_ih.shape == (3 * hidden,) and b_hh.shape == (3 * hidden,),
             f"GRU biases {b_ih}/{b_hh} must have shape ({3 * hidden},)")
    for w in (w_ih, w_hh, b_ih, b_hh):
        _require(w.dtype == "float64",
                 f"GRU weights must be float64, got {w.dtype}")
    if len(ins) > 1:  # optional step_mask
        mask = ins[1]
        _require(mask.dtype == "bool" and mask.shape == x.shape[:2],
                 f"step_mask {mask} must be bool (B, L) for input {x}")
    return [AbstractValue((x.shape[0], x.shape[1], hidden), "float64")]


@signature("gru_step")
def sig_gru_step(ins, params):
    gi, h = ins
    w_hh = aval(params["w_hh"])
    hidden = w_hh.shape[0]
    _require(gi.ndim == 2 and _dims_match(gi.shape[-1], 3 * hidden),
             f"gru_step gi {gi} must be (B, {3 * hidden})")
    _require(h.ndim == 2 and _dims_match(h.shape[-1], hidden),
             f"gru_step h {h} must be (B, {hidden})")
    return [AbstractValue(h.shape, _promote(gi.dtype, h.dtype))]


@signature("last_state")
def sig_last_state(ins, params):
    states, mask = ins
    _require(states.ndim == 3,
             f"last_state needs (B, L, d) states, got {states}")
    _require(mask.dtype == "bool" and mask.shape == states.shape[:2],
             f"last_state mask {mask} must be bool (B, L) for {states}")
    return [AbstractValue((states.shape[0], states.shape[2]),
                          states.dtype)]


@signature("masked_mean")
def sig_masked_mean(ins, params):
    states, mask = ins
    _require(states.ndim == 3 and _is_float(states),
             f"masked_mean needs float (B, L, d) states, got {states}")
    _require(mask.shape == states.shape[:2],
             f"masked_mean mask {mask} must be (B, L) for {states}")
    return [AbstractValue((states.shape[0], states.shape[2]),
                          _promote(states.dtype, "float64"))]


@signature("standardize")
def sig_standardize(ins, params):
    energy, mask = ins
    _require(energy.ndim == 2 and _is_float(energy),
             f"standardize needs float (B, L) energies, got {energy}")
    _require(mask.shape == energy.shape,
             f"standardize mask {mask} must match energies {energy}")
    return [AbstractValue(energy.shape, _promote(energy.dtype, "float64"))]


@signature("conv1d_relu_pool")
def sig_conv1d_relu_pool(ins, params):
    (image,) = ins
    weight, bias = aval(params["weight"]), aval(params["bias"])
    kernel = int(params["kernel"])
    _require(image.ndim == 3 and _is_float(image),
             f"conv1d_relu_pool needs float (B, C, L) image, got {image}")
    channels = image.shape[1]
    _require(weight.ndim == 2
             and _dims_match(weight.shape[1], channels * kernel),
             f"conv weight {weight} must be (out_channels, "
             f"{channels}*{kernel})")
    out_channels = weight.shape[0]
    _require(bias.shape == (out_channels,),
             f"conv bias {bias} must have shape ({out_channels},)")
    # A sequence shorter than the kernel yields zero features.
    return [AbstractValue((image.shape[0], out_channels),
                          _promote(image.dtype, weight.dtype))]


# ---------------------------------------------------------------------------
# Glue ops: lookups, positions, masks, reshapes, the SSDRec gate, score
# ---------------------------------------------------------------------------
@signature("embed")
def sig_embed(ins, params):
    (indices,) = ins
    table = aval(params["table"])
    _require(indices.dtype in _INTS,
             f"embedding indices must be integer, got {indices}")
    _require(table.ndim == 2, f"embedding table must be 2-D, got {table}")
    return [AbstractValue(indices.shape + (table.shape[1],), table.dtype)]


@signature("add_positions")
def sig_add_positions(ins, params):
    (x,) = ins
    positions = aval(params["positions"])
    _require(x.ndim == 3 and _is_float(x),
             f"add_positions needs float (B, L, d), got {x}")
    _require(positions.ndim == 2
             and _dims_match(positions.shape[1], x.shape[2]),
             f"position table {positions} does not match model dim "
             f"{x.shape[2]}")
    _require(positions.shape[0] >= x.shape[1],
             f"position table holds {positions.shape[0]} rows but the "
             f"plan addresses {x.shape[1]} positions")
    return [AbstractValue(x.shape, _promote(x.dtype, positions.dtype))]


@signature("add_tight_positions")
def sig_add_tight_positions(ins, params):
    x, mask = ins
    _require(mask.dtype == "bool" and mask.shape == x.shape[:2],
             f"add_tight_positions mask {mask} must be bool (B, L) "
             f"for {x}")
    return sig_add_positions([x], params)


@signature("add_position_at")
def sig_add_position_at(ins, params):
    token, lengths = ins
    positions = aval(params["positions"])
    _require(token.ndim == 2 and _is_float(token),
             f"add_position_at needs a float (B, d) token, got {token}")
    _require(lengths.dtype in _INTS and lengths.shape == token.shape[:1],
             f"prefix lengths must be integer (B,), got {lengths}")
    _require(positions.ndim == 2
             and _dims_match(positions.shape[1], token.shape[1])
             and positions.shape[0] >= 1,
             f"position table {positions} cannot place a model-dim "
             f"{token.shape[1]} token")
    return [AbstractValue((token.shape[0], 1, token.shape[1]),
                          _promote(token.dtype, positions.dtype))]


@signature("count_valid", "advance_length")
def sig_lengths(ins, params):
    (x,) = ins
    _require(x.ndim in (1, 2) and (x.dtype == "bool" or x.dtype in _INTS),
             f"lengths come from a bool (B, L) mask or int (B,) counts, "
             f"got {x}")
    return [AbstractValue(x.shape[:1], "int64")]


@signature("causal_attn_mask")
def sig_causal_attn_mask(ins, params):
    (mask,) = ins
    _require(mask.ndim == 2 and mask.dtype == "bool",
             f"causal_attn_mask needs bool (B, L), got {mask}")
    length = mask.shape[1]
    return [AbstractValue((mask.shape[0], 1, length, length), "bool")]


@signature("pad_attn_mask")
def sig_pad_attn_mask(ins, params):
    (mask,) = ins
    _require(mask.ndim == 2 and mask.dtype == "bool",
             f"pad_attn_mask needs bool (B, L), got {mask}")
    return [AbstractValue((mask.shape[0], 1, 1, mask.shape[1]), "bool")]


@signature("extend_mask_token")
def sig_extend_mask_token(ins, params):
    states, mask = ins
    row = aval(params["row"])
    _require(states.ndim == 3 and mask.shape == states.shape[:2],
             f"extend_mask_token needs (B, L, d) + (B, L), got "
             f"{states} and {mask}")
    _require(row.shape == (states.shape[2],),
             f"mask-token row {row} does not match model dim "
             f"{states.shape[2]}")
    batch, length, dim = states.shape
    return [AbstractValue((batch, length + 1, dim),
                          _promote(states.dtype, row.dtype)),
            AbstractValue((batch, length + 1), "bool")]


@signature("take_last")
def sig_take_last(ins, params):
    (states,) = ins
    _require(states.ndim == 3, f"take_last needs (B, L, d), got {states}")
    return [AbstractValue((states.shape[0], states.shape[2]),
                          states.dtype)]


@signature("expand_dims")
def sig_expand_dims(ins, params):
    (x,) = ins
    axis = int(params.get("axis", 1))
    shape = list(x.shape)
    shape.insert(axis if axis >= 0 else len(shape) + 1 + axis, 1)
    return [AbstractValue(tuple(shape), x.dtype)]


@signature("squeeze_last")
def sig_squeeze_last(ins, params):
    (x,) = ins
    _require(x.shape[-1] == 1,
             f"squeeze_last needs a trailing axis of 1, got {x}")
    return [AbstractValue(x.shape[:-1], x.dtype)]


@signature("sum_last")
def sig_sum_last(ins, params):
    (x,) = ins
    _require(x.ndim >= 1, f"sum_last needs at least 1-D input, got {x}")
    return [AbstractValue(x.shape[:-1], _promote(x.dtype, "float64"))]


@signature("scale")
def sig_scale(ins, params):
    (x,) = ins
    _require(_is_float(x), f"scale needs a float input, got {x}")
    return [AbstractValue(x.shape, _promote(x.dtype, "float64"))]


@signature("add", "mul")
def sig_elementwise_binary(ins, params):
    a, b = ins
    return [AbstractValue(broadcast_shapes(a.shape, b.shape),
                          _promote(a.dtype, b.dtype))]


@signature("concat_last")
def sig_concat_last(ins, params):
    _require(len(ins) >= 1, "concat_last needs at least one input")
    first = ins[0]
    total: Dim = 0
    for x in ins:
        _require(x.shape[:-1] == first.shape[:-1],
                 f"concat_last operands disagree on leading shape: "
                 f"{first} vs {x}")
        _require(isinstance(x.shape[-1], int),
                 f"concat_last needs concrete trailing dims, got {x}")
        total += x.shape[-1]
    return [AbstractValue(first.shape[:-1] + (total,),
                          _promote(*[x.dtype for x in ins]))]


@signature("weighted_sum")
def sig_weighted_sum(ins, params):
    states, weights = ins
    _require(states.ndim == 3 and weights.shape == states.shape[:2],
             f"weighted_sum needs (B, L, d) + (B, L), got {states} "
             f"and {weights}")
    return [AbstractValue((states.shape[0], states.shape[2]),
                          _promote(states.dtype, weights.dtype))]


@signature("mask_states")
def sig_mask_states(ins, params):
    states, mask = ins
    _require(states.ndim == 3 and mask.shape == states.shape[:2],
             f"mask_states needs (B, L, d) + (B, L), got {states} "
             f"and {mask}")
    return [AbstractValue(states.shape,
                          _promote(states.dtype, "float64"))]


@signature("to_image")
def sig_to_image(ins, params):
    (states,) = ins
    _require(states.ndim == 3, f"to_image needs (B, L, d), got {states}")
    batch, length, dim = states.shape
    return [AbstractValue((batch, dim, length), states.dtype)]


@signature("fit_length")
def sig_fit_length(ins, params):
    (image,) = ins
    width = int(params["width"])
    _require(image.ndim == 3, f"fit_length needs (B, d, L), got {image}")
    return [AbstractValue((image.shape[0], image.shape[1], width),
                          _promote(image.dtype, "float64"))]


@signature("reshape_merge_last2")
def sig_reshape_merge_last2(ins, params):
    (x,) = ins
    _require(x.ndim >= 2 and isinstance(x.shape[-1], int)
             and isinstance(x.shape[-2], int),
             f"reshape_merge_last2 needs concrete trailing dims, got {x}")
    return [AbstractValue(x.shape[:-2] + (x.shape[-2] * x.shape[-1],),
                          x.dtype)]


@signature("user_inject")
def sig_user_inject(ins, params):
    states, mask, users = ins
    table = aval(params["user_table"])
    _require(users.dtype in _INTS and users.ndim == 1,
             f"users must be integer (B,), got {users}")
    _require(states.ndim == 3 and mask.shape == states.shape[:2],
             f"user_inject needs (B, L, d) + (B, L), got {states} "
             f"and {mask}")
    _require(table.ndim == 2
             and _dims_match(table.shape[1], states.shape[2]),
             f"user table {table} does not match model dim "
             f"{states.shape[2]}")
    return [AbstractValue(states.shape,
                          _promote(states.dtype, table.dtype))]


@signature("gate_combine")
def sig_gate_combine(ins, params):
    a, b = ins
    _require(a.shape == b.shape and a.ndim == 2,
             f"gate_combine needs matching (B, L) energies, got {a} "
             f"and {b}")
    return [AbstractValue(a.shape, _promote(a.dtype, b.dtype, "float64"))]


@signature("threshold_keep")
def sig_threshold_keep(ins, params):
    soft, mask = ins
    _require(soft.ndim == 2 and _is_float(soft),
             f"threshold_keep needs float (B, L) gate values, got {soft}")
    _require(mask.dtype == "bool" and mask.shape == soft.shape,
             f"threshold_keep mask {mask} must match gate {soft}")
    return [AbstractValue(soft.shape, "float64"),
            AbstractValue(soft.shape, "bool")]


@signature("apply_keep")
def sig_apply_keep(ins, params):
    states, keep = ins
    _require(states.ndim == 3 and keep.shape == states.shape[:2],
             f"apply_keep needs (B, L, d) + (B, L), got {states} "
             f"and {keep}")
    return [AbstractValue(states.shape,
                          _promote(states.dtype, keep.dtype))]


@signature("score")
def sig_score(ins, params):
    (reprs,) = ins
    table_t = aval(params["table_t"])
    _require(reprs.ndim == 2 and _is_float(reprs),
             f"score needs float (B, d) representations, got {reprs}")
    _require(table_t.ndim == 2
             and _dims_match(reprs.shape[-1], table_t.shape[0]),
             f"representation {reprs} does not match the pinned score "
             f"table {table_t} (model dim {table_t.shape[0]})")
    vocab = table_t.shape[1]
    for col in params.get("masked_columns", ()):
        _require(0 <= int(col) < vocab,
                 f"masked column {col} is outside the {vocab}-item "
                 f"score table")
    return [AbstractValue((reprs.shape[0], vocab),
                          _promote(reprs.dtype, table_t.dtype))]


@signature("centroid_scores")
def sig_centroid_scores(ins, params):
    (reprs,) = ins
    centroids = aval(params["centroids"])
    _require(reprs.ndim == 2 and _is_float(reprs),
             f"centroid_scores needs float (B, d) representations, "
             f"got {reprs}")
    _require(centroids.ndim == 2 and _is_float(centroids)
             and centroids.shape[0] >= 1,
             f"ANN centroid table must be float (C, d+1), got {centroids}")
    dim = reprs.shape[-1]
    _require(not isinstance(dim, int) or centroids.shape[1] == dim + 1,
             f"norm-augmented centroids {centroids} do not match "
             f"representation {reprs}: expected trailing dim {dim} + 1")
    return [AbstractValue((reprs.shape[0], centroids.shape[0]),
                          _promote(reprs.dtype, centroids.dtype))]


@signature("probe_clusters")
def sig_probe_clusters(ins, params):
    (cluster_scores,) = ins
    _require(cluster_scores.ndim == 2 and _is_float(cluster_scores),
             f"probe_clusters needs float (B, C) centroid scores, "
             f"got {cluster_scores}")
    nprobe = int(params["nprobe"])
    clusters = cluster_scores.shape[1]
    _require(nprobe >= 1, f"nprobe must be >= 1, got {nprobe}")
    _require(not isinstance(clusters, int) or nprobe <= clusters,
             f"nprobe {nprobe} exceeds the {clusters} index clusters")
    return [AbstractValue((cluster_scores.shape[0], nprobe), "int64")]


@signature("ann_gather_topk")
def sig_ann_gather_topk(ins, params):
    reprs, probes = ins
    packed_table = aval(params["packed_table"])
    packed_ids = aval(params["packed_ids"])
    offsets = aval(params["offsets"])
    clusters = int(params["num_clusters"])
    k = int(params["k"])
    _require(reprs.ndim == 2 and _is_float(reprs),
             f"ann_gather_topk needs float (B, d) representations, "
             f"got {reprs}")
    _require(probes.ndim == 2 and probes.dtype in _INTS,
             f"ann_gather_topk needs integer (B, nprobe) probes, "
             f"got {probes}")
    nprobe = probes.shape[1]
    _require(not isinstance(nprobe, int) or nprobe <= clusters,
             f"{nprobe} probes exceed the {clusters} index clusters")
    _require(packed_table.ndim == 2
             and _dims_match(reprs.shape[-1], packed_table.shape[1]),
             f"packed item table {packed_table} does not match "
             f"representation {reprs}")
    _require(packed_ids.ndim == 1 and packed_ids.dtype in _INTS
             and packed_ids.shape[0] == packed_table.shape[0],
             f"packed ids {packed_ids} do not pair with the packed "
             f"table {packed_table}")
    _require(offsets.ndim == 1 and offsets.dtype in _INTS
             and offsets.shape[0] == clusters + 1,
             f"cluster offsets {offsets} must be int64 "
             f"({clusters} clusters + 1)")
    _require(1 <= k <= max(1, packed_ids.shape[0]),
             f"k={k} is outside the {packed_ids.shape[0]}-item index")
    return [AbstractValue((reprs.shape[0], k), "int64"),
            AbstractValue((reprs.shape[0], k), reprs.dtype)]


# ---------------------------------------------------------------------------
# Float64 policy (dtype-discipline exemptions)
# ---------------------------------------------------------------------------
#: Modules (relative to the package root) where explicit ``np.float64``
#: pins are intentional, with the reason on record.  The
#: ``dtype-discipline`` lint rule flags float64 pins anywhere else under
#: ``nn/``/``serve/``; matched site counts per entry are reported into
#: ``LINT_report.json`` by ``scripts/static_check.py`` and
#: ``repro.cli lint``.
FLOAT64_POLICY: Dict[str, str] = {
    "nn/tensor.py": ("autograd substrate is float64 end to end; Tensor "
                     "coerces all float data to float64 on construction"),
    "nn/functional.py": ("fused kernels mirror the float64 substrate; "
                         "loss weights are float64 probabilities"),
    "nn/attention.py": ("the attention-dropout multiplier scales the "
                        "float64 attention weights"),
    "nn/reference.py": ("parity oracles must accumulate in float64 to "
                        "serve as the <=1e-6 comparison baseline"),
    "nn/module.py": ("load_state_dict casts checkpoint payloads to the "
                     "substrate dtype explicitly"),
    "nn/layers.py": ("LayerNorm affine parameters are float64 substrate "
                     "state"),
    "nn/init.py": "initializers allocate float64 parameter storage",
    "nn/gumbel.py": ("Gumbel noise is added to float64 logits; sampling "
                     "in lower precision would bias the soft-top-k"),
    "nn/kernels.py": ("defines the float64 NEG_INF masking sentinel; the "
                      "shared kernels themselves allocate from their "
                      "input dtype"),
    "serve/executors.py": ("serving glue casts masks and allocates "
                           "buffers as float64 to match the float64 "
                           "activations of the training forward"),
    "serve/plan.py": ("freeze() snapshots weights as float64 so frozen "
                      "forwards equal the float64 training forward "
                      "exactly; quantized plans must opt in explicitly"),
    "serve/service.py": ("error Recommendations carry float64 score "
                         "arrays to stay wire-compatible with real "
                         "results"),
    "serve/cluster.py": ("error Recommendations crossing the worker "
                         "boundary mirror the service's float64 layout"),
    "serve/load.py": ("latency accounting is float64 seconds; the plan "
                      "path reuses the serving float64 contract"),
    "serve/ann.py": ("the MIPS index packs float64 copies of the frozen "
                     "item table so candidate scores match the exact "
                     "float64 oracle bitwise on probed clusters"),
    "serve/quant.py": ("dequantization reconstructs the float64 serving "
                       "substrate from int8/fp16 codes; the scale "
                       "vectors themselves are float64"),
}
