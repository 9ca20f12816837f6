"""Stage 2: the self-augmentation module (Sec. III-D; Eqs. 9-12).

Two cooperating selectors:

* :class:`InconsistencyScorer` — the **position selector**.  A Bi-LSTM
  context-aware encoder yields a *sequentiality* inconsistency
  distribution (Eq. 9) and pairwise similarities yield a *similarity*
  inconsistency distribution (Eq. 10); their product, pushed through a
  straight-through Gumbel-Softmax (Eq. 11), picks the single most
  inconsistent position per sequence.
* The **item selector** (Eq. 12) matches the chosen position's
  bi-directional context against the entire item universe and picks — via
  two more Gumbel-Softmax draws — the item to insert *before* and the
  item to insert *after* the position.

The scorer is reused with fresh parameters by the stage-3 hierarchical
denoising module (``f_hdm`` in Eq. 13 "is the same position selector").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..nn import (BiLSTM, Module, TemperatureSchedule, Tensor,
                  gumbel_log_logits, gumbel_softmax)
from ..nn import functional as F
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


class InconsistencyScorer(Module):
    """Scores each position's inconsistency with its sequence (Eqs. 9-10)."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.rng = resolve_rng(rng)
        self.context_encoder = BiLSTM(dim, dim, rng=self.rng)

    def context(self, states: Tensor) -> Tuple[Tensor, Tensor]:
        """Bi-directional hidden state sequences ``(H^L, H^R)``."""
        return self.context_encoder(states)

    def forward(self, states: Tensor, mask: np.ndarray,
                context: Optional[Tuple[Tensor, Tensor]] = None) -> Tensor:
        """Joint inconsistency distribution ``r_S`` over positions, (B, L).

        High values mark items whose global-relation representation clashes
        with the local sequential context and with the other items.
        ``context`` is ``self.context(states)`` when the caller already
        has it.
        """
        mask = np.asarray(mask, bool)
        left, right = self.context(states) if context is None else context
        # Eq. 9: sequentiality — strictest condition H^L ⊙ H^R ⊙ H.
        seq_energy = (left * right * states).sum(axis=-1)          # (B, L)
        # Eq. 10: similarity — mean dot product with the other items.
        sims = states @ states.transpose(0, 2, 1)                  # (B, L, L)
        valid = mask.astype(np.float64)
        pair_mask = valid[:, :, None] * valid[:, None, :]
        eye = np.eye(mask.shape[1])[None]
        pair_mask = pair_mask * (1.0 - eye)                        # drop self
        counts = np.maximum(pair_mask.sum(axis=-1), 1.0)
        sim_energy = (sims * Tensor(pair_mask)).sum(axis=-1) / Tensor(counts)
        # Inconsistent = LOW similarity/sequentiality; both softmaxes above
        # give high mass to high-energy (consistent) items, so negate the
        # energies to rank *inconsistency* (the distribution's argmax must
        # point at the most suspicious item).
        r_seq = F.masked_softmax(-seq_energy, mask, axis=-1)
        r_sim = F.masked_softmax(-sim_energy, mask, axis=-1)
        joint = r_seq * r_sim
        # Renormalize the product into a distribution (paper's r_S).
        total = joint.sum(axis=-1, keepdims=True) + 1e-12
        return joint / total

    def select(self, states: Tensor, mask: np.ndarray, tau: float,
               hard: bool = True, deterministic: bool = False,
               context: Optional[Tuple[Tensor, Tensor]] = None
               ) -> Tuple[Tensor, np.ndarray]:
        """Gumbel-selected position one-hot (Eq. 11) + integer positions."""
        scores = self.forward(states, mask, context)
        masked_log = gumbel_log_logits(scores).masked_fill(
            ~np.asarray(mask, bool), NEG_INF)
        one_hot = gumbel_softmax(masked_log, tau=tau, hard=hard,
                                 rng=self.rng, deterministic=deterministic)
        positions = one_hot.data.argmax(axis=-1)
        return one_hot, positions


@dataclass
class AugmentationResult:
    """Output of :meth:`SelfAugmentation.forward`.

    ``states``/``mask`` describe the augmented sequence (length L + 2);
    ``positions`` is the chosen insertion anchor in the *original*
    sequence, ``inserted_left``/``inserted_right`` hold the item ids picked
    by the item selector, and ``augmented_rows`` flags which batch rows
    were actually augmented (short sequences only).
    """

    states: Tensor
    mask: np.ndarray
    positions: np.ndarray
    inserted_left: np.ndarray
    inserted_right: np.ndarray
    augmented_rows: np.ndarray


class SelfAugmentation(Module):
    """Insert the two most suitable items around the most suspicious position.

    Only sequences shorter than ``length_threshold`` are augmented (the
    module exists to enrich *short* sequences, Sec. III-D2); longer rows
    pass through with two extra pad slots so batch shapes stay rectangular.
    """

    def __init__(self, dim: int, length_threshold: Optional[int] = None,
                 initial_tau: float = 1.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.dim = dim
        self.length_threshold = length_threshold
        self.rng = resolve_rng(rng)
        self.scorer = InconsistencyScorer(dim, rng=self.rng)
        self.temperature = TemperatureSchedule(initial_tau=initial_tau)

    # ------------------------------------------------------------------
    def forward(self, states: Tensor, mask: np.ndarray,
                item_table: Tensor) -> AugmentationResult:
        """Augment a batch of representation sequences.

        Parameters
        ----------
        states:
            Item representation sequence ``H_S``: (B, L, d).
        mask:
            Validity mask (B, L).
        item_table:
            All item representations ``H_v``: (V + 1, d), row 0 = padding.
        """
        mask = np.asarray(mask, bool)
        batch, length, dim = states.shape
        tau = self.temperature.tau

        # One Bi-LSTM pass feeds both the position scores (Eq. 9) and the
        # item selector's queries (Eq. 12).
        context = self.scorer.context(states)
        one_hot, positions = self.scorer.select(
            states, mask, tau, deterministic=not self.training,
            context=context)
        lengths = mask.sum(axis=1)
        threshold = self.length_threshold if self.length_threshold is not None \
            else length + 1  # default: always augment
        augmented_rows = lengths < threshold

        # Straight-through gate: 1.0 in the forward pass, gradient to the
        # position scores (keeps Eq. 11 trainable through the insertion).
        chosen = np.zeros_like(one_hot.data)
        chosen[np.arange(batch), positions] = 1.0
        gate = (one_hot * Tensor(chosen)).sum(axis=-1, keepdims=True)  # (B,1)

        # Eq. 12: item selector from the bi-directional context at t.
        left_ctx, right_ctx = context
        rows = np.arange(batch)
        q_left = left_ctx[rows, positions, :]    # (B, d)
        q_right = right_ctx[rows, positions, :]
        inserted_left, left_ids = self._pick_item(q_left, item_table, tau)
        inserted_right, right_ids = self._pick_item(q_right, item_table, tau)
        row_gate = gate * Tensor(augmented_rows[:, None].astype(np.float64))
        inserted_left = inserted_left * row_gate
        inserted_right = inserted_right * row_gate

        new_states, new_mask = self._insert(
            states, mask, positions, augmented_rows,
            inserted_left, inserted_right)
        return AugmentationResult(
            states=new_states,
            mask=new_mask,
            positions=positions,
            inserted_left=np.where(augmented_rows, left_ids, 0),
            inserted_right=np.where(augmented_rows, right_ids, 0),
            augmented_rows=augmented_rows,
        )

    def _pick_item(self, query: Tensor, item_table: Tensor,
                   tau: float) -> Tuple[Tensor, np.ndarray]:
        """Gumbel-hard selection of one item from the universe (Eq. 12)."""
        logits = query @ item_table.transpose()          # (B, V+1)
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, 0] = True
        logits = logits.masked_fill(pad, NEG_INF)
        k_hat = gumbel_softmax(logits, tau=tau, hard=True, rng=self.rng,
                               deterministic=not self.training)
        embedding = k_hat @ item_table                   # (B, d)
        return embedding, k_hat.data.argmax(axis=-1)

    def _insert(self, states: Tensor, mask: np.ndarray,
                positions: np.ndarray, augmented_rows: np.ndarray,
                left_items: Tensor, right_items: Tensor
                ) -> Tuple[Tensor, np.ndarray]:
        """Differentiably splice the two items around each row's position.

        Rows not augmented are left-shifted by two pad slots instead, so the
        output is always (B, L + 2, d).
        """
        batch, length, dim = states.shape
        out_len = length + 2
        gather = np.zeros((batch, out_len, length))
        slot_left = np.zeros((batch, out_len, 1))
        slot_right = np.zeros((batch, out_len, 1))
        new_mask = np.zeros((batch, out_len), dtype=bool)
        for b in range(batch):
            if augmented_rows[b]:
                p = positions[b]
                for j in range(p):
                    gather[b, j, j] = 1.0
                slot_left[b, p, 0] = 1.0
                gather[b, p + 1, p] = 1.0
                slot_right[b, p + 2, 0] = 1.0
                for j in range(p + 1, length):
                    gather[b, j + 2, j] = 1.0
                new_mask[b, :p] = mask[b, :p]
                new_mask[b, p] = True
                new_mask[b, p + 1] = mask[b, p]
                new_mask[b, p + 2] = True
                new_mask[b, p + 3:] = mask[b, p + 1:]
            else:
                for j in range(length):
                    gather[b, j + 2, j] = 1.0
                new_mask[b, 2:] = mask[b]
        moved = Tensor(gather) @ states                    # (B, L+2, d)
        spliced = moved \
            + Tensor(slot_left) * left_items.expand_dims(1) \
            + Tensor(slot_right) * right_items.expand_dims(1)
        return spliced, new_mask

    def on_batch_end(self) -> None:
        self.temperature.step()
