"""Pure-NumPy inference kernels for frozen forward plans.

Every function here mirrors one forward pass of the training substrate
(``repro.nn``) *exactly* — same formulas, same masking sentinel, same
in-place stable-softmax order — but operates on plain ``np.ndarray``
inputs and never builds autograd ``Tensor`` graphs.  Plan step programs
run these kernels through the op table in :mod:`repro.serve.program`:
a step calls ``kernel(*inputs, **params)``, so env inputs come first and
weights/constants are keyword parameters.  The ``serve-graph-free``
lint rule (``scripts/static_check.py``) enforces that guarantee
statically; ``tests/serve/test_frozen_parity.py`` enforces it
numerically (<= 1e-6 against the graph path).

Parity notes
------------
* ``sigmoid`` uses the clipped form ``1 / (1 + exp(-clip(x, -60, 60)))``
  (``Tensor.sigmoid``); the GRU kernels use the tanh identity
  ``0.5 * (1 + tanh(x / 2))`` exactly as ``gru_sequence`` does.
* All masked fills use ``NEG_INF = np.finfo(np.float64).min / 4`` — the
  sentinel shared by ``models.base``, ``nn.attention`` and
  ``nn.functional.masked_softmax``.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

NEG_INF = np.finfo(np.float64).min / 4


# ---------------------------------------------------------------------------
# Elementwise activations
# ---------------------------------------------------------------------------

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Clipped logistic sigmoid, mirroring ``Tensor.sigmoid``."""
    out = np.clip(x, -60.0, 60.0)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """In-place ReLU (value-identical to ``x * (x > 0)``)."""
    return np.maximum(x, 0.0, out=x)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU, mirroring ``F.gelu``."""
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def linear(x: np.ndarray, weight: np.ndarray,
           bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine map ``x @ W + b`` (weight is ``(in, out)`` as in ``Linear``)."""
    out = x @ weight
    if bias is not None:
        out += bias
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-8) -> np.ndarray:
    """LayerNorm over the last axis, mirroring ``nn.LayerNorm``."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    out = centered
    out *= inv_std
    out *= gamma
    out += beta
    return out


# ---------------------------------------------------------------------------
# Softmax / attention
# ---------------------------------------------------------------------------

def masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax with invalid entries forced to probability zero.

    Mirrors ``F.masked_softmax`` (axis=-1): fully-masked rows come out
    uniform, exactly as the graph op does.
    """
    valid = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    out = np.where(valid, x, NEG_INF)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
              attn_mask: Optional[np.ndarray], scale: float) -> np.ndarray:
    """``softmax(scale * q k^T + mask) @ v`` — the eval half of
    ``scaled_dot_product_attention``, same in-place stable softmax."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if attn_mask is not None:
        blocked = np.broadcast_to(~np.asarray(attn_mask, dtype=bool),
                                  scores.shape)
        np.copyto(scores, NEG_INF, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v


def transformer_layer(x: np.ndarray, params: dict, attn_mask4: np.ndarray,
                      num_heads: int) -> np.ndarray:
    """One pre-norm Transformer block (MHA + residual, FFN + residual).

    ``params`` holds the fused QKV projection (the three input projections
    concatenated column-wise into one ``(d, 3d)`` matmul), the output
    projection, both LayerNorms, and the FFN weights; see
    ``plan._compile_transformer``.
    """
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    normed = layer_norm(x, params["ln1_g"], params["ln1_b"], params["eps"])
    qkv = normed @ params["w_qkv"]
    qkv += params["b_qkv"]
    qkv = qkv.reshape(batch, length, 3, num_heads, head_dim)
    # (3, B, H, L, hd) — one transpose serves q, k and v.
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    context = attention(qkv[0], qkv[1], qkv[2], attn_mask4,
                        1.0 / np.sqrt(head_dim))
    merged = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
        batch, length, dim)
    x = x + linear(merged, params["w_out"], params["b_out"])
    normed = layer_norm(x, params["ln2_g"], params["ln2_b"], params["eps"])
    hidden = linear(normed, params["w_fc1"], params["b_fc1"])
    hidden = params["activation"](hidden)
    x += linear(hidden, params["w_fc2"], params["b_fc2"])
    return x


def transformer_encoder(x: np.ndarray, attn_mask4: np.ndarray,
                        layers: list, num_heads: int, final_g: np.ndarray,
                        final_b: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    for params in layers:
        x = transformer_layer(x, params, attn_mask4, num_heads)
    return layer_norm(x, final_g, final_b, eps)


def transformer_layer_kv(x: np.ndarray, params: dict,
                         attn_mask4: np.ndarray, num_heads: int):
    """:func:`transformer_layer` that also returns the layer's K/V.

    Identical arithmetic (the attention consumes the same strided
    ``qkv`` views, so the block output is bitwise-equal); the per-head
    key/value tensors ``(B, H, L, hd)`` come back as contiguous copies
    for the serving layer's per-user KV-prefix cache.
    """
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    normed = layer_norm(x, params["ln1_g"], params["ln1_b"], params["eps"])
    qkv = normed @ params["w_qkv"]
    qkv += params["b_qkv"]
    qkv = qkv.reshape(batch, length, 3, num_heads, head_dim)
    qkv = qkv.transpose(2, 0, 3, 1, 4)
    context = attention(qkv[0], qkv[1], qkv[2], attn_mask4,
                        1.0 / np.sqrt(head_dim))
    k = np.ascontiguousarray(qkv[1])
    v = np.ascontiguousarray(qkv[2])
    merged = np.ascontiguousarray(context.transpose(0, 2, 1, 3)).reshape(
        batch, length, dim)
    x = x + linear(merged, params["w_out"], params["b_out"])
    normed = layer_norm(x, params["ln2_g"], params["ln2_b"], params["eps"])
    hidden = linear(normed, params["w_fc1"], params["b_fc1"])
    hidden = params["activation"](hidden)
    x += linear(hidden, params["w_fc2"], params["b_fc2"])
    return x, k, v


def transformer_encoder_kv(x: np.ndarray, attn_mask4: np.ndarray,
                           layers: list, num_heads: int, final_g: np.ndarray,
                           final_b: np.ndarray, eps: float = 1e-8) -> tuple:
    """:func:`transformer_encoder` that also returns per-layer K/V.

    ``(hidden, k_0, v_0, k_1, v_1, ...)`` where ``k_i``/``v_i`` are
    layer ``i``'s ``(B, H, L, hd)`` key/value tensors.  The hidden
    states are bitwise-equal to :func:`transformer_encoder`'s.
    """
    kv = []
    for params in layers:
        x, k, v = transformer_layer_kv(x, params, attn_mask4, num_heads)
        kv += [k, v]
    return (layer_norm(x, final_g, final_b, eps), *kv)


def transformer_step_kv(x: np.ndarray, lengths: np.ndarray, *kv: np.ndarray,
                        layers: list, num_heads: int, final_g: np.ndarray,
                        final_b: np.ndarray, eps: float = 1e-8) -> tuple:
    """Advance a cached K/V prefix by one token.

    ``x`` is the new token's input embedding ``(B, 1, d)`` (item row +
    position); ``kv`` holds each layer's prefix keys/values
    ``k_0, v_0, k_1, v_1, ...`` as ``(B, H, W, hd)``, whose *last*
    ``lengths[0]`` columns are valid (a tight encode left-pads).  Per
    layer: project the token's q/k/v, append the new key/value column to
    the valid prefix, and attend the single query against it — no mask
    is needed because causal attention over (prefix + self) is every
    key.  Returns ``(rep, k_0', v_0', ...)`` with ``rep`` the
    final-LayerNormed token representation ``(B, d)``.
    """
    batch, length, dim = x.shape
    head_dim = dim // num_heads
    t = int(lengths[0])
    grown = []
    for index, params in enumerate(layers):
        k_prev, v_prev = kv[2 * index], kv[2 * index + 1]
        width = k_prev.shape[2]
        normed = layer_norm(x, params["ln1_g"], params["ln1_b"],
                            params["eps"])
        qkv = normed @ params["w_qkv"]
        qkv += params["b_qkv"]
        qkv = qkv.reshape(batch, length, 3, num_heads, head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        k = np.concatenate([k_prev[:, :, width - t:, :], qkv[1]], axis=2)
        v = np.concatenate([v_prev[:, :, width - t:, :], qkv[2]], axis=2)
        grown += [k, v]
        context = attention(qkv[0], k, v, None, 1.0 / np.sqrt(head_dim))
        merged = np.ascontiguousarray(context.transpose(0, 2, 1, 3)
                                      ).reshape(batch, length, dim)
        x = x + linear(merged, params["w_out"], params["b_out"])
        normed = layer_norm(x, params["ln2_g"], params["ln2_b"],
                            params["eps"])
        hidden = linear(normed, params["w_fc1"], params["b_fc1"])
        hidden = params["activation"](hidden)
        x += linear(hidden, params["w_fc2"], params["b_fc2"])
    rep = layer_norm(x, final_g, final_b, eps)[:, -1, :]
    return (rep, *grown)


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------

def gru_forward(x: np.ndarray, step_mask: Optional[np.ndarray] = None, *,
                w_ih: np.ndarray, w_hh: np.ndarray, b_ih: np.ndarray,
                b_hh: np.ndarray) -> np.ndarray:
    """Full GRU recurrence, mirroring ``gru_sequence``'s forward loop.

    The input projection runs as one big matmul; each step is one
    ``h @ w_hh`` plus in-place gate math with the sigmoid computed via
    the tanh identity — bit-for-bit the training kernel's arithmetic.

    ``step_mask`` (bool ``(B, L)``) enables *padding-free* stepping: the
    hidden state only updates where the mask is True, so a left-padded
    row produces exactly the states of its unpadded sequence.  This mode
    deliberately diverges from the graph path (which steps through
    padding) and is used only by ``RecommendService(padding="tight")``.
    """
    batch, length, in_dim = x.shape
    hidden = w_hh.shape[0]
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    gi = x_tm.reshape(length * batch, in_dim) @ w_ih
    gi += b_ih
    gi = gi.reshape(length, batch, 3 * hidden)
    h = np.zeros((batch, hidden), dtype=np.float64)
    out = np.empty((length, batch, hidden), dtype=np.float64)
    for t in range(length):
        h_new = gru_step(gi[t], h, w_hh, b_hh, hidden)
        if step_mask is not None:
            h = np.where(step_mask[:, t][:, None], h_new, h)
        else:
            h = h_new
        out[t] = h
    return np.ascontiguousarray(out.transpose(1, 0, 2))


def gru_step(gi: np.ndarray, h: np.ndarray, w_hh: np.ndarray,
             b_hh: np.ndarray, hidden: int) -> np.ndarray:
    """One GRU step from a precomputed input projection ``gi = x W_ih + b_ih``.

    Gate order (z, r, n) and arithmetic match ``gru_sequence`` exactly.
    """
    gh = h @ w_hh
    gh += b_hh
    zr = gi[:, :2 * hidden] + gh[:, :2 * hidden]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    z, r = zr[:, :hidden], zr[:, hidden:]
    n = gh[:, 2 * hidden:]
    n *= r
    n += gi[:, 2 * hidden:]
    np.tanh(n, out=n)
    h_new = h - n
    h_new *= z
    h_new += n
    return h_new


# ---------------------------------------------------------------------------
# Sequence readouts
# ---------------------------------------------------------------------------

def last_state(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Representation at each row's last valid position (``base.last_state``)."""
    mask = np.asarray(mask, dtype=bool)
    positions = np.where(
        mask.any(axis=1), mask.shape[1] - 1 - mask[:, ::-1].argmax(axis=1), 0)
    return states[np.arange(states.shape[0]), positions, :]


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
