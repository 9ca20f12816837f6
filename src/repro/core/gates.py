"""Pluggable stage-3 denoisers ``f_den`` (Eq. 14).

The paper emphasizes that the hierarchical denoising module can wrap *any*
intra-sequence denoiser: ``H^-_S = f_den(H_S | H''_S, Θ_den)``.  Every
gate here maps an item representation sequence (plus optional guidance
``H''_S``) to a per-position keep gate in {0, 1} (straight-through):

* :class:`~repro.denoise.hsd.NoiseGate` — HSD's two-signal gate, the
  paper's default (imported from :mod:`repro.denoise.hsd`);
* :class:`SparseAttentionGate` — DSAN-style: sparsemax attention from a
  query (the guidance mean, or a learned virtual target) over the
  sequence; zero-attention items are dropped;
* :class:`ThresholdGate` — a minimal cosine-similarity baseline used in
  ablations: keep items whose similarity to the sequence mean clears a
  learned threshold.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from ..denoise.hsd import NoiseGate, _standardize
from ..nn import Linear, Module, TemperatureSchedule, Tensor, sparsemax
from ..nn.gumbel import gumbel_sigmoid
from ..nn.module import Parameter
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


class SparseAttentionGate(Module):
    """DSAN-flavoured gate: sparsemax support decides keep/drop.

    A query — the mean of the guidance sequence when available, otherwise
    a learned virtual target — attends over the raw sequence with
    sparsemax.  Items receiving exactly zero attention are dropped.  The
    sparsemax output itself is the (already sparse) differentiable gate,
    scaled to a straight-through binary.
    """

    def __init__(self, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.rng = resolve_rng(rng)
        self.query_proj = Linear(dim, dim, bias=False, rng=self.rng)
        self.key_proj = Linear(dim, dim, bias=False, rng=self.rng)
        self.virtual_target = Parameter(self.rng.normal(0, 0.1, size=(dim,)))
        self.temperature = TemperatureSchedule(initial_tau=1.0)

    def forward(self, states: Tensor, mask: np.ndarray,
                guidance: Optional[Tensor] = None,
                guidance_mask: Optional[np.ndarray] = None,
                hard: bool = True) -> Tensor:
        mask = np.asarray(mask, bool)
        if guidance is not None:
            gmask = np.asarray(
                guidance_mask if guidance_mask is not None
                else np.ones(guidance.shape[:2], bool), bool)
            weights = gmask.astype(np.float64)
            denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            query = (guidance * Tensor(weights[:, :, None])).sum(axis=1) \
                / Tensor(denom)
        else:
            query = self.virtual_target.reshape(1, self.dim) \
                + Tensor(np.zeros((states.shape[0], self.dim)))
        q = self.query_proj(query)                       # (B, d)
        k = self.key_proj(states)                        # (B, L, d)
        energy = (k * q.expand_dims(1)).sum(axis=-1) \
            * (1.0 / np.sqrt(self.dim))
        energy = energy.masked_fill(~mask, NEG_INF)
        attention = sparsemax(energy)                    # exact zeros
        support = (attention.data > 1e-9).astype(np.float64)
        # Straight-through: binary support forward, sparsemax grads back.
        keep = attention + Tensor(support - attention.data)
        return keep * Tensor(mask.astype(np.float64))

    def on_batch_end(self) -> None:
        self.temperature.step()


class ThresholdGate(Module):
    """Minimal gate: similarity to the (guidance) mean vs a learned bias.

    Deliberately simple — the ablation baseline showing how much HSD's
    learned two-signal structure adds over raw cosine thresholds.
    """

    def __init__(self, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.rng = resolve_rng(rng)
        self.scale = Parameter(np.array([1.0]))
        self.bias = Parameter(np.array([1.0]))
        self.temperature = TemperatureSchedule(initial_tau=1.0)

    def forward(self, states: Tensor, mask: np.ndarray,
                guidance: Optional[Tensor] = None,
                guidance_mask: Optional[np.ndarray] = None,
                hard: bool = True) -> Tensor:
        mask = np.asarray(mask, bool)
        source = guidance if guidance is not None else states
        if guidance is not None:
            smask = np.asarray(
                guidance_mask if guidance_mask is not None
                else np.ones(guidance.shape[:2], bool), bool)
        else:
            smask = mask
        weights = smask.astype(np.float64)
        denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
        mean = (source * Tensor(weights[:, :, None])).sum(axis=1) \
            / Tensor(denom)
        similarity = (states * mean.expand_dims(1)).sum(axis=-1) \
            * (1.0 / np.sqrt(self.dim))
        z = _standardize(similarity, mask)
        logits = z * self.scale + self.bias
        keep = gumbel_sigmoid(logits, tau=self.temperature.tau, hard=hard,
                              rng=self.rng, deterministic=not self.training)
        return keep * Tensor(mask.astype(np.float64))

    def on_batch_end(self) -> None:
        self.temperature.step()


#: Registry of stage-3 gate implementations (Eq. 14's f_den choices).
GATES: Dict[str, Type[Module]] = {
    "hsd": NoiseGate,
    "sparse-attention": SparseAttentionGate,
    "threshold": ThresholdGate,
}
