"""Core neural-network layers: Linear, Embedding, LayerNorm, Dropout, Conv.

Every layer takes an explicit ``rng`` for reproducible initialization, in
line with the deterministic-experiment design of the repository.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init, kernels
from .module import Module, Parameter
from .tensor import Tensor, ensure_tensor
from .rng import resolve_rng


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform weights."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # Fused matmul+bias: one graph node (see repro.nn.functional.linear).
        return F.linear(ensure_tensor(x), self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Supports an optional ``padding_idx`` whose row is kept at zero (its
    gradient is zeroed after each backward by the optimizer hook in
    :class:`repro.nn.optim.Optimizer` via :meth:`apply_padding_mask`).
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 padding_idx: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(init.xavier_normal((num_embeddings, embedding_dim), rng))
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids.data if isinstance(ids, Tensor) else ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}")
        return self.weight.take(ids.reshape(-1), axis=0).reshape(
            (*ids.shape, self.embedding_dim))

    def apply_padding_mask(self) -> None:
        """Re-zero the padding row (call after each optimizer step)."""
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0
            self.weight.bump_version()


class Dropout(Module):
    """Inverted dropout layer."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(
                f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = resolve_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-8):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=np.float64))
        self.beta = Parameter(np.zeros(dim, dtype=np.float64))

    def forward(self, x: Tensor) -> Tensor:
        # Fused: normalization + affine recorded as a single graph node
        # (the unfused composition costs ~10 nodes per call and LayerNorm
        # runs twice per transformer block).
        x = ensure_tensor(x)
        gamma, beta = self.gamma, self.beta
        out_data, x_hat, inv_std = kernels.layer_norm(
            x.data, gamma.data, beta.data, self.eps)

        def backward(grad):
            lead = tuple(range(grad.ndim - 1))
            g_beta = grad.sum(axis=lead)
            g_gamma = (grad * x_hat).sum(axis=lead)
            g_hat = grad * gamma.data
            g_x = inv_std * (
                g_hat - g_hat.mean(axis=-1, keepdims=True)
                - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True))
            return (g_x, g_gamma, g_beta)

        return Tensor._make(out_data, (x, gamma, beta), backward)


class Conv1d(Module):
    """1-D convolution over the last axis of ``(batch, channels, length)``.

    Implemented with an im2col unfold so the whole operation is expressed in
    differentiable tensor ops.  Used by the paper's relation-fusion operator
    (Eq. 3/4: stride-1 filters over concatenated representations) and by the
    Caser baseline.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.weight = Parameter(
            init.xavier_uniform((out_channels, in_channels * kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        batch, channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        out_len = (length - self.kernel_size) // self.stride + 1
        if out_len <= 0:
            raise ValueError(
                f"input length {length} too short for kernel {self.kernel_size}")
        # Unfold into (batch, out_len, channels * kernel) using differentiable
        # slicing: gather one strided slice per kernel offset and concat.
        windows = []
        for k in range(self.kernel_size):
            stop = k + self.stride * out_len
            windows.append(x[:, :, k:stop:self.stride])  # (B, C, out_len)
        # (B, kernel, C, out_len) -> want (B, out_len, C*kernel)
        stacked = Tensor.stack(windows, axis=1)
        cols = stacked.transpose(0, 3, 2, 1).reshape(
            batch, out_len, channels * self.kernel_size)
        out = cols @ self.weight.transpose()  # (B, out_len, out_channels)
        if self.bias is not None:
            out = out + self.bias
        return out.transpose(0, 2, 1)  # (B, out_channels, out_len)


class MaxPool1d(Module):
    """Max pooling over the full length axis of ``(batch, channels, length)``."""

    def __init__(self):
        super().__init__()

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).max(axis=-1)


class PositionalEmbedding(Module):
    """Learned absolute position embeddings (SASRec/BERT4Rec style)."""

    def __init__(self, max_len: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.max_len = max_len
        self.weight = Parameter(init.xavier_normal((max_len, dim), rng))

    def forward(self, length: int) -> Tensor:
        if length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds max {self.max_len}")
        return self.weight.take(np.arange(length), axis=0)


class FeedForward(Module):
    """Two-layer position-wise feed-forward block used in Transformer stacks."""

    def __init__(self, dim: int, hidden_dim: Optional[int] = None,
                 dropout: float = 0.1, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        hidden_dim = hidden_dim or 4 * dim
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        if activation == "relu":
            self.activation = F.relu
        elif activation == "gelu":
            self.activation = F.gelu
        else:
            raise ValueError(f"unknown activation {activation!r}")

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.dropout(self.activation(self.fc1(x))))
