"""Serving kernels for frozen forward plans: ops training does not share.

Plan step programs run through the op table in
:mod:`repro.serve.program`: a step calls ``kernel(*inputs, **params)``,
so env inputs come first and weights/constants are keyword parameters.
Every op whose forward training also runs — linear, layer norm, masked
softmax, attention weights, the clipped sigmoid, the GRU cell step and
the GRU recurrence over it — lives once in :mod:`repro.nn.kernels`: the
table maps those ops straight to it, and the composite kernels here (the
Transformer encoders, ``gru_forward``) call it.  What remains here is
glue with no training twin: lookups, masks, reshapes, readouts, the
SSDRec gate, scoring.  None of it builds autograd ``Tensor`` graphs; the
``serve-graph-free`` lint rule (``scripts/static_check.py``) enforces
that statically.

Parity notes
------------
* A frozen plan's sequence representation equals its model's eval
  forward bit for bit.  The shared kernels make that hold by
  construction; the kernels here keep it by using the training
  composition's operation order, e.g. :func:`gelu` cubes as
  ``((0.044715 * x) * x) * x`` like ``F.gelu``.
  (``tests/serve/test_frozen_parity.py`` asserts exact equality of the
  scores too.  :func:`score` multiplies a pinned contiguous ``(d, V)``
  table where training multiplies a transposed view, and BLAS may round
  those two layouts differently at some catalog sizes.)
* A Transformer encode returns the one representation a plan reads,
  not the ``(B, L, d)`` hidden state.  Every block but the last runs
  over all rows.  The last computes LN1 and the fused QKV projection
  over all rows, since the attended keys (and the KV cache) need every
  row's K/V, and runs attention, the output projection and residual,
  LN2, the FFN and the final LayerNorm only at :func:`readout_rows`:
  the readout row — each sequence's last valid position by
  ``last_state``'s rule (:func:`repro.nn.kernels.last_positions`),
  which SSDRec's keep mask may pull before ``L - 1`` — and the row
  before it.  Two query rows, not one: with a single row NumPy's
  batched matmul turns into a matrix-vector product that rounds
  differently from the full encode's matrix product (by ~1e-15); with
  two every array stays byte-identical to the full-width encode.
* ``gru_forward(tight=True)`` (tight padding) deliberately steps only
  through valid positions, which the graph path does not do.
* ``gru_forward(readout=True)`` returns each row's state at its
  ``last_state`` position, as GRU4Rec's last layer reads it in
  training (``GRU(readout=True)``), and never builds the ``(B, L, d)``
  states.
* Masked fills use :data:`repro.nn.kernels.NEG_INF`.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from ..nn.kernels import (NEG_INF, attention_weights, gru_unroll,
                          last_positions, layer_norm, linear)


# ---------------------------------------------------------------------------
# Elementwise activations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    """In-place ReLU (value-identical to ``x * (x > 0)``)."""
    return np.maximum(x, 0.0, out=x)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU in ``F.gelu``'s operation order."""
    inner = x * 0.044715
    inner *= x
    inner *= x
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


# ---------------------------------------------------------------------------
# Transformer
# ---------------------------------------------------------------------------

def transformer_block(x: np.ndarray, params: dict, num_heads: int,
                      blocked: Optional[np.ndarray] = None,
                      prefix: tuple = (),
                      rows: Optional[np.ndarray] = None) -> tuple:
    """One pre-norm Transformer block (MHA + residual, FFN + residual).

    ``params`` holds the fused QKV projection (the three input
    projections concatenated column-wise into one ``(d, 3d)`` matmul),
    the output projection, both LayerNorms and the FFN weights; see
    ``plan._compile_transformer``.  ``blocked`` marks the disallowed
    (query, key) pairs; ``prefix``, a cached ``(keys, values)`` pair, is
    prepended along the key axis.  ``rows`` (int ``(B, R)``) keeps only
    those query rows of each sequence: every row still yields its keys
    and values, but attention, the residuals and the FFN run at ``rows``
    alone and ``x'`` is ``(B, R, d)``.  Returns ``(x', k, v)`` with the
    per-head keys/values ``(B, H, L_k, hd)`` the queries attended to.
    """
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    normed = layer_norm(x, params["ln1_g"], params["ln1_b"], params["eps"])[0]
    qkv = linear(normed, params["w_qkv"], params["b_qkv"])
    # (3, B, H, L, hd) — one transpose serves q, k and v.
    q, k, v = qkv.reshape(batch, length, 3, num_heads, head_dim).transpose(
        2, 0, 3, 1, 4)
    if prefix:
        k = np.concatenate([prefix[0], k], axis=2)
        v = np.concatenate([prefix[1], v], axis=2)
    if rows is not None:
        picks = rows[:, None, :, None]
        q = np.take_along_axis(q, picks, axis=2)
        x = np.take_along_axis(x, rows[:, :, None], axis=1)
        if blocked is not None and blocked.shape[2] > 1:
            blocked = np.take_along_axis(blocked, picks, axis=2)
        length = rows.shape[1]
    context = attention_weights(q, k, 1.0 / np.sqrt(head_dim), blocked) @ v
    merged = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
        batch, length, dim)
    x = x + linear(merged, params["w_out"], params["b_out"])
    normed = layer_norm(x, params["ln2_g"], params["ln2_b"], params["eps"])[0]
    hidden = params["activation"](
        linear(normed, params["w_fc1"], params["b_fc1"]))
    x += linear(hidden, params["w_fc2"], params["b_fc2"])
    return x, k, v


def readout_rows(mask: np.ndarray) -> np.ndarray:
    """The last block's query rows ``(B, 2)``: each sequence's readout
    row (:func:`repro.nn.kernels.last_positions`) and the one before it,
    clamped at 0; a one-column mask gives its single row."""
    offsets = np.arange(min(2, mask.shape[1]))[::-1]
    return np.maximum(last_positions(mask)[:, None] - offsets, 0)


def transformer_encoder(x: np.ndarray, attn_mask4: np.ndarray,
                        mask: np.ndarray, layers: list, num_heads: int,
                        final_g: np.ndarray, final_b: np.ndarray,
                        eps: float = 1e-8) -> np.ndarray:
    """The encoder's final-LayerNormed state at each sequence's readout
    row, ``(B, d)``: all blocks but the last run over every row, the
    last only at :func:`readout_rows` of ``mask``."""
    blocked = ~attn_mask4
    for params in layers[:-1]:
        # Index, not unpack: names holding the k/v views would keep the
        # layer's whole qkv buffer alive through the next layer, which
        # measurably slows the encode.
        x = transformer_block(x, params, num_heads, blocked)[0]
    x = transformer_block(x, layers[-1], num_heads, blocked,
                          rows=readout_rows(mask))[0]
    return layer_norm(x[:, -1], final_g, final_b, eps)[0]


def transformer_encoder_kv(x: np.ndarray, attn_mask4: np.ndarray,
                           mask: np.ndarray, layers: list, num_heads: int,
                           final_g: np.ndarray, final_b: np.ndarray,
                           eps: float = 1e-8) -> tuple:
    """:func:`transformer_encoder` that also returns per-layer K/V.

    ``(rep, k_0, v_0, k_1, v_1, ...)`` where ``k_i``/``v_i`` are
    contiguous copies of layer ``i``'s ``(B, H, L, hd)`` keys/values
    (the last block's over every row too), for the serving layer's
    per-user KV-prefix cache.
    """
    blocked = ~attn_mask4
    last = len(layers) - 1
    kv = []
    for index, params in enumerate(layers):
        x, k, v = transformer_block(
            x, params, num_heads, blocked,
            rows=readout_rows(mask) if index == last else None)
        # Rebinding drops the views, as in transformer_encoder.
        k, v = np.ascontiguousarray(k), np.ascontiguousarray(v)
        kv += [k, v]
    return (layer_norm(x[:, -1], final_g, final_b, eps)[0], *kv)


def transformer_step_kv(x: np.ndarray, lengths: np.ndarray, *kv: np.ndarray,
                        layers: list, num_heads: int, final_g: np.ndarray,
                        final_b: np.ndarray, eps: float = 1e-8) -> tuple:
    """Advance cached K/V prefixes by one token per row.

    ``x`` is the new tokens' input embeddings ``(B, 1, d)`` (item row +
    position); ``kv`` holds each layer's prefix keys/values
    ``k_0, v_0, k_1, v_1, ...`` as ``(B, H, W, hd)``, whose *last*
    ``lengths[j]`` columns are row ``j``'s valid prefix (a tight encode
    left-pads, and a packed batch right-aligns shorter rows).  Each
    layer attends a token's query against its valid prefix plus the
    token itself.  When every row has the same length no mask is
    built — causal attention over (prefix + self) is every key — so a
    one-row step equals the unbatched one byte for byte; otherwise the
    prefix columns before a row's valid tail are blocked.  Returns
    ``(rep, k_0', v_0', ...)`` with ``rep`` the final-LayerNormed token
    representation ``(B, d)`` and the grown ``(B, H, W' + 1, hd)``
    prefixes, ``W' = max(lengths)``.
    """
    longest = int(lengths.max())
    blocked = None
    if int(lengths.min()) != longest:
        # (B, 1, 1, W' + 1): the token's column (last) is never blocked.
        blocked = (np.arange(longest + 1)[None, :]
                   < (longest - lengths)[:, None])[:, None, None, :]
    grown = []
    for index, params in enumerate(layers):
        width = kv[2 * index].shape[2]
        prefix = (kv[2 * index][:, :, width - longest:],
                  kv[2 * index + 1][:, :, width - longest:])
        x, k, v = transformer_block(x, params, num_heads, blocked,
                                    prefix=prefix)
        grown += [k, v]
    rep = layer_norm(x, final_g, final_b, eps)[0][:, -1, :]
    return (rep, *grown)


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------

def gru_forward(x: np.ndarray, mask: Optional[np.ndarray] = None, *,
                w_ih: np.ndarray, w_hh: np.ndarray, b_ih: np.ndarray,
                b_hh: np.ndarray, tight: bool = False,
                readout: bool = False) -> np.ndarray:
    """Full GRU recurrence: ``gru_sequence``'s forward,
    :func:`repro.nn.kernels.gru_unroll` over the shared
    :func:`repro.nn.kernels.gru_step`.  Inside the loop the state is
    held transposed, as ``(d, B)`` rows; ``x`` and the returned states
    are ``(B, L, d)``.

    ``tight`` enables *padding-free* stepping: the hidden state only
    updates where ``mask`` (bool ``(B, L)``) is True, so a left-padded
    row produces exactly the states of its unpadded sequence.  This mode
    deliberately diverges from the graph path (which steps through
    padding) and is used only by ``RecommendService(padding="tight")``.

    ``readout`` returns only each row's ``(B, d)`` state at its last
    valid position in ``mask`` (``last_state``'s rule), read from the
    recurrence's state buffer as ``gru_sequence(readout=True)`` does.
    """
    return gru_unroll(x, w_ih, w_hh, b_ih, b_hh,
                      step_mask=mask if tight else None,
                      readout=last_positions(mask) if readout else None)[0]


# ---------------------------------------------------------------------------
# Sequence readouts
# ---------------------------------------------------------------------------

def last_state(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Representation at each row's last valid position (``base.last_state``)."""
    return states[np.arange(states.shape[0]), last_positions(mask), :]


def masked_mean(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over valid positions (``base.masked_mean``)."""
    weights = np.asarray(mask, dtype=np.float64)
    counts = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (states * weights[:, :, None]).sum(axis=1) / counts


def standardize(energy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Z-score over each row's valid positions (``hsd._standardize``)."""
    valid = np.asarray(mask, np.float64)
    counts = np.maximum(np.asarray(mask, bool).sum(axis=1, keepdims=True),
                        1).astype(np.float64)
    mean = (energy * valid).sum(axis=1, keepdims=True) / counts
    centered = (energy - mean) * valid
    var = (centered * centered).sum(axis=1, keepdims=True) / counts
    return centered / np.sqrt(var + 1e-8)


# ---------------------------------------------------------------------------
# Convolution (Caser)
# ---------------------------------------------------------------------------

def conv1d_relu_pool(image: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray, kernel: int) -> np.ndarray:
    """``MaxPool1d(relu(Conv1d(image)))`` over ``(B, C, L)`` in one pass.

    Uses a strided window view instead of the graph path's per-offset
    slice-and-stack, but lands on the identical ``(B, out_len, C*K)``
    column layout (column index ``c * K + k``), so the matmul against the
    ``(out_channels, C*K)`` weight is value-identical.  A sequence
    shorter than the kernel yields zero features, as in ``Caser``.
    """
    if image.shape[2] < kernel:
        return np.zeros((image.shape[0], weight.shape[0]), dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(
        image, kernel, axis=2)               # (B, C, out_len, K)
    batch, channels, out_len, _ = windows.shape
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(
        batch, out_len, channels * kernel)
    out = cols @ weight.T
    out += bias
    relu(out)
    return out.max(axis=1)


# ---------------------------------------------------------------------------
# Program glue: lookups, positions, masks, reshapes, the SSDRec gate, score
# ---------------------------------------------------------------------------

def embed(indices: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row gather ``table[indices]`` (any index shape)."""
    return table[indices]


def add_positions(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Add position rows ``0..L-1`` to every row of ``(B, L, d)``."""
    return x + positions[:x.shape[1]]


def add_tight_positions(x: np.ndarray, mask: np.ndarray,
                        positions: np.ndarray) -> np.ndarray:
    """Number each row's valid items ``0..len-1``, right-aligned.

    The canonical ``padding="tight"`` layout: pad columns take position
    0 (they are masked out of attention), so the result does not depend
    on the queue's padding width.  It equals :func:`add_positions` when
    a row fills the window.
    """
    length = x.shape[1]
    offsets = length - mask.sum(axis=1)
    pos = np.maximum(np.arange(length)[None, :] - offsets[:, None], 0)
    return x + positions[pos]


def add_position_at(x: np.ndarray, lengths: np.ndarray,
                    positions: np.ndarray, limit: int) -> np.ndarray:
    """One new ``(B, d)`` token at position ``lengths`` -> ``(B, 1, d)``.

    Raises once the prefix would outgrow the window (``limit``) or the
    position table — a KV prefix cannot slide its positions.
    """
    end = min(limit, positions.shape[0])
    if int(lengths.max()) >= end:
        raise ValueError(f"KV prefix already spans {int(lengths.max())} "
                         f"positions; the window ends at {end}")
    return (x + positions[lengths])[:, None, :]


def advance_length(lengths: np.ndarray) -> np.ndarray:
    return lengths + 1


def count_valid(mask: np.ndarray) -> np.ndarray:
    return mask.sum(axis=1).astype(np.int64)


@functools.lru_cache(maxsize=64)
def _causal(length: int) -> np.ndarray:
    return np.tril(np.ones((length, length), dtype=bool))


def causal_attn_mask(mask: np.ndarray) -> np.ndarray:
    """``(B, 1, L, L)`` causal mask with pad keys blocked."""
    return (_causal(mask.shape[1])[None, :, :] & mask[:, None, :])[:, None]


def pad_attn_mask(mask: np.ndarray) -> np.ndarray:
    """``(B, 1, 1, L)`` bidirectional mask with pad keys blocked."""
    return mask[:, None, None, :]


def extend_mask_token(states: np.ndarray, mask: np.ndarray,
                      row: np.ndarray) -> tuple:
    """Append the ``[MASK]`` embedding as a final always-valid position."""
    batch, length, dim = states.shape
    extended = np.empty((batch, length + 1, dim), dtype=np.float64)
    extended[:, :length] = states
    extended[:, length] = row
    ext_mask = np.concatenate([mask, np.ones((batch, 1), dtype=bool)],
                              axis=1)
    return extended, ext_mask


def take_last(states: np.ndarray) -> np.ndarray:
    return states[:, -1, :]


def squeeze_last(x: np.ndarray) -> np.ndarray:
    return x[..., 0]


def sum_last(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1)


def scale(x: np.ndarray, factor: float) -> np.ndarray:
    return x * factor


def concat_last(*xs: np.ndarray) -> np.ndarray:
    return np.concatenate(xs, axis=-1)


def weighted_sum(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_l weights[b, l] * states[b, l]`` -> ``(B, d)``."""
    return (states * weights[:, :, None]).sum(axis=1)


def mask_states(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return states * np.asarray(mask, np.float64)[:, :, None]


def to_image(states: np.ndarray) -> np.ndarray:
    """``(B, L, d)`` -> contiguous ``(B, d, L)`` (Caser's image layout)."""
    return np.ascontiguousarray(states.transpose(0, 2, 1))


def fit_length(image: np.ndarray, width: int) -> np.ndarray:
    """Crop or left-zero-pad the ``L`` axis of ``(B, d, L)`` to ``width``."""
    batch, dim, length = image.shape
    if length == width:
        return image
    if length > width:
        return image[:, :, length - width:]
    padded = np.zeros((batch, dim, width), dtype=np.float64)
    padded[:, :, width - length:] = image
    return padded


def reshape_merge_last2(x: np.ndarray) -> np.ndarray:
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def user_inject(states: np.ndarray, mask: np.ndarray,
                users: Optional[np.ndarray],
                user_table: np.ndarray) -> np.ndarray:
    """SSDRec ``h_t = h_v + h_u / n`` on valid positions (no-op without
    ``users``), mirroring ``SSDRec.sequence_states``."""
    if users is None:
        return states
    lengths = np.maximum(mask.sum(axis=1), 1)
    h_u = user_table[np.asarray(users)]
    scaled = h_u * (1.0 / lengths[:, None].astype(np.float64))
    valid = np.asarray(mask, np.float64)[:, :, None]
    return states + scaled[:, None, :] * valid


def gate_combine(z_seq: np.ndarray, z_user: np.ndarray, w_seq: float,
                 w_user: float, bias: float, tau: float) -> np.ndarray:
    """NoiseGate keep logits at temperature ``tau``."""
    return (z_seq * w_seq + z_user * w_user + bias) / tau


def threshold_keep(soft: np.ndarray, mask: np.ndarray) -> tuple:
    """Deterministic keep gate: ``(keep weights, keep mask)``.

    A row whose every item is dropped keeps its original mask, as
    ``HierarchicalDenoising`` does at evaluation.
    """
    keep = (soft > 0.5).astype(np.float64)
    keep *= mask.astype(np.float64)
    keep_mask = (keep > 0.5) & mask
    empty = ~keep_mask.any(axis=1)
    if empty.any():
        keep_mask[empty] = mask[empty]
    return keep, keep_mask


def apply_keep(states: np.ndarray, keep: np.ndarray) -> np.ndarray:
    return states * keep[:, :, None]


def score(reprs: np.ndarray, table_t: np.ndarray, masked_columns: tuple,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """``(B, d) -> (B, V)`` logits against the pinned table, with the
    masked columns (padding, ``[MASK]``) forced to ``NEG_INF``.
    ``out`` may supply a reusable ``(B, V)`` buffer."""
    logits = np.matmul(reprs, table_t, out=out)
    for col in masked_columns:
        logits[:, col] = NEG_INF
    return logits
