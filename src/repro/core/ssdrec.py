"""SSDRec: the full three-stage framework (Sec. III; Fig. 2).

Pipeline per batch:

1. **Stage 1** — the :class:`~repro.core.encoder.GlobalRelationEncoder`
   produces multi-relation representations ``h_v``/``h_u``; each sequence
   position gets ``h_t = h_v + h_u / n_i`` (user contribution scaled by
   sequence length, Sec. III-D).
2. **Stage 2** — :class:`~repro.core.augmentation.SelfAugmentation`
   inserts two selected items around the most inconsistent position.
   *Training only* (Sec. III-F): at validation/test time the jointly
   learned denoiser no longer needs enrichment.
3. **Stage 3** — :class:`~repro.core.hierarchical.HierarchicalDenoising`
   removes false augmentations and pinpoints noise in the raw sequence,
   yielding ``H^-_S`` for any backbone recommender ``f_seq`` (Eq. 15).

Every stage can be disabled independently, which implements the paper's
Table V ablation (w/o SSDRec-1/2/3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

import numpy as np

from ..data.batching import Batch, pad_sequences
from ..data.dataset import PAD_ID, InteractionDataset
from ..denoise.base import SequenceDenoiser
from ..graph.multi_relation import (GraphConfig, MultiRelationGraph,
                                    build_multi_relation_graph)
from ..models.base import SequentialRecommender
from ..models.sasrec import SASRec
from ..nn import Embedding, Tensor, no_grad
from ..nn import functional as F
from .augmentation import SelfAugmentation
from .encoder import GlobalRelationEncoder
from .hierarchical import HierarchicalDenoising
from ..nn.kernels import NEG_INF
from ..nn.rng import resolve_rng


@dataclass
class SSDRecConfig:
    """Hyper-parameters and stage toggles of the framework."""

    dim: int = 32
    max_len: int = 50
    initial_tau: float = 1.0        # Gumbel temperature (Fig. 5 sweep)
    anneal_every: int = 40          # batches between annealing steps
    anneal_rate: float = 0.95
    use_stage1: bool = True         # global relation encoder
    use_stage2: bool = True         # self-augmentation (training only)
    use_stage3: bool = True         # hierarchical denoising
    augment_threshold: Optional[int] = None  # only augment shorter rows
    denoise_rounds: int = 1         # Eq. 13 refinement iterations
    denoise_gate: str = "hsd"       # f_den in Eq. 14 (see core.gates.GATES)
    drop_penalty: float = 1.0       # weight of the rate-targeting regularizer
    target_drop_rate: float = 0.2   # prior noise fraction (Sec. IV-E: 23-39%)
    dropout: float = 0.1


class SSDRec(SequenceDenoiser):
    """Self-augmented sequence denoising, pluggable into any backbone.

    Parameters
    ----------
    dataset:
        Training interactions; stage 1 builds the multi-relation graph
        from it.  (The graph may also be supplied pre-built.)
    backbone_cls:
        Any :class:`~repro.models.base.SequentialRecommender` subclass
        (Table III plugs all six mainstream backbones in).
    """

    explicit = True

    def __init__(self, dataset: InteractionDataset,
                 backbone_cls: Type[SequentialRecommender] = SASRec,
                 config: Optional[SSDRecConfig] = None,
                 graph: Optional[MultiRelationGraph] = None,
                 graph_config: Optional[GraphConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config or SSDRecConfig()
        cfg = self.config
        self.num_items = dataset.num_items
        self.num_users = dataset.num_users
        self.rng = resolve_rng(rng)

        if cfg.use_stage1:
            graph = graph or build_multi_relation_graph(dataset, graph_config)
            self.encoder: Optional[GlobalRelationEncoder] = \
                GlobalRelationEncoder(graph, dim=cfg.dim, rng=self.rng)
            self.item_embedding = self.encoder.item_embedding
            self.user_embedding = self.encoder.user_embedding
        else:
            self.encoder = None
            self.item_embedding = Embedding(self.num_items + 1, cfg.dim,
                                            padding_idx=PAD_ID, rng=self.rng)
            self.user_embedding = Embedding(self.num_users + 1, cfg.dim,
                                            padding_idx=PAD_ID, rng=self.rng)

        self.augmentation = SelfAugmentation(
            cfg.dim, length_threshold=cfg.augment_threshold,
            initial_tau=cfg.initial_tau, rng=self.rng) if cfg.use_stage2 else None
        self.denoising = HierarchicalDenoising(
            cfg.dim, rounds=cfg.denoise_rounds, initial_tau=cfg.initial_tau,
            gate=cfg.denoise_gate, rng=self.rng) if cfg.use_stage3 else None
        self.backbone = backbone_cls(num_items=self.num_items, dim=cfg.dim,
                                     max_len=cfg.max_len, rng=self.rng)
        self._configure_schedules()

    def _configure_schedules(self) -> None:
        cfg = self.config
        for module in (self.augmentation, self.denoising):
            if module is None:
                continue
            for sched in self._schedules_of(module):
                sched.initial_tau = cfg.initial_tau
                sched.anneal_every = cfg.anneal_every
                sched.anneal_rate = cfg.anneal_rate
                sched.reset()

    @staticmethod
    def _schedules_of(module) -> list:
        found = []
        for m in module.modules():
            sched = getattr(m, "temperature", None)
            if sched is not None:
                found.append(sched)
        return found

    @property
    def max_len(self) -> int:
        """Longest raw sequence the pipeline accepts (before insertion)."""
        return self.config.max_len

    # ------------------------------------------------------------------
    def node_tables(self) -> tuple:
        """Stage-1 tables ``(H_v, H_u)`` — or raw embeddings if disabled."""
        if self.encoder is not None:
            return self.encoder()
        return self.item_embedding.weight, self.user_embedding.weight

    def sequence_states(self, items: np.ndarray, mask: np.ndarray,
                        users: Optional[np.ndarray],
                        item_table: Tensor, user_table: Tensor) -> Tensor:
        """Informative item representation sequence ``H_S`` (Sec. III-D).

        ``h_t = h_v + h_u / n_i`` — the user's multi-relation representation
        contributes inversely to sequence length.
        """
        flat = items.reshape(-1)
        h_v = item_table.take(flat, axis=0).reshape((*items.shape, -1))
        if users is None:
            return h_v
        lengths = np.maximum(np.asarray(mask, bool).sum(axis=1), 1)
        h_u = user_table.take(np.asarray(users), axis=0)  # (B, d)
        scaled = h_u * Tensor(1.0 / lengths[:, None].astype(np.float64))
        # Add the user component only at valid positions.
        valid = Tensor(np.asarray(mask, np.float64)[:, :, None])
        return h_v + scaled.expand_dims(1) * valid

    # ------------------------------------------------------------------
    def _pipeline(self, items: np.ndarray, mask: np.ndarray,
                  users: Optional[np.ndarray], training: bool):
        item_table, user_table = self.node_tables()
        states = self.sequence_states(items, mask, users, item_table, user_table)
        aug_states = aug_mask = None
        aug_info = None
        if training and self.augmentation is not None:
            result = self.augmentation(states, mask, item_table)
            aug_states, aug_mask, aug_info = result.states, result.mask, result
        if self.denoising is not None:
            den = self.denoising(states, mask, aug_states, aug_mask)
            final_states, final_mask = den.states, den.mask
            keep = den.keep
        elif aug_states is not None:
            final_states, final_mask, keep = aug_states, aug_mask, None
        else:
            final_states, final_mask, keep = states, mask, None
        return final_states, final_mask, keep, item_table, aug_info

    def _score(self, rep: Tensor, item_table: Tensor) -> Tensor:
        logits = rep @ item_table.transpose()
        pad = np.zeros(logits.shape, dtype=bool)
        pad[:, PAD_ID] = True
        return logits.masked_fill(pad, NEG_INF)

    def forward(self, items: np.ndarray, mask: Optional[np.ndarray] = None,
                users: Optional[np.ndarray] = None) -> Tensor:
        """Full-ranking logits; stage 2 is skipped outside training."""
        items = np.asarray(items)
        if mask is None:
            mask = items != PAD_ID
        states, final_mask, _, item_table, _ = self._pipeline(
            items, mask, users, training=False)
        rep = self.backbone.encode_states(states, final_mask)
        return self._score(rep, item_table)

    def forward_batch(self, batch: Batch) -> Tensor:
        """Evaluator hook: forward with user ids available."""
        return self.forward(batch.items, batch.mask, users=batch.users)

    def loss(self, batch: Batch) -> Tensor:
        states, final_mask, keep, item_table, _ = self._pipeline(
            batch.items, batch.mask, batch.users, training=self.training)
        rep = self.backbone.encode_states(states, final_mask)
        rec = F.cross_entropy(self._score(rep, item_table), batch.targets)
        if keep is None or self.config.drop_penalty == 0:
            return rec
        # Rate-targeting regularizer (same prior as HSD): keeps the gate
        # active without noise labels — see DESIGN.md substitutions.
        valid = Tensor(np.asarray(batch.mask, np.float64))
        drop_frac = ((1.0 - keep) * valid).sum() / max(valid.data.sum(), 1.0)
        gap = drop_frac - self.config.target_drop_rate
        return rec + self.config.drop_penalty * gap * gap

    def on_batch_end(self) -> None:
        if self.augmentation is not None:
            self.augmentation.on_batch_end()
        if self.denoising is not None:
            self.denoising.on_batch_end()

    def train_state(self) -> dict:
        """Non-parameter training state: the Gumbel temperature schedules.

        ``state_dict`` covers parameters only; annealed temperatures are
        plain Python attributes that a crash-resumed run must also
        restore to stay bitwise-identical.  Schedules are listed in the
        deterministic :meth:`_schedules_of` traversal order over the
        augmentation then denoising modules.
        """
        schedules = []
        for module in (self.augmentation, self.denoising):
            if module is None:
                continue
            schedules.extend(s.state() for s in self._schedules_of(module))
        return {"schedules": schedules}

    def load_train_state(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`train_state`."""
        schedules = list(state.get("schedules", []))
        targets = []
        for module in (self.augmentation, self.denoising):
            if module is None:
                continue
            targets.extend(self._schedules_of(module))
        if len(schedules) != len(targets):
            raise ValueError(
                f"train_state has {len(schedules)} temperature schedules, "
                f"model expects {len(targets)}")
        for sched, snap in zip(targets, schedules):
            sched.load_state(snap)

    # ------------------------------------------------------------------
    def keep_mask(self, items: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Stage-3 keep/drop decisions on raw positions (Fig. 1 protocol)."""
        items = np.asarray(items)
        mask = np.asarray(mask, bool)
        if self.denoising is None:
            return mask
        with no_grad():
            _, final_mask, _, _, _ = self._pipeline(
                items, mask, None, training=False)
        return final_mask

    # ------------------------------------------------------------------
    def explain(self, sequence: List[int], user: int,
                target: int) -> Dict[str, object]:
        """Case-study trace for one user (Fig. 4).

        Returns the raw / augmented / denoised sequences plus the target
        item's score under each, showing how each stage moves the
        recommendation.
        """
        items, mask, _ = pad_sequences([sequence], max_len=self.config.max_len)
        sequence = sequence[-self.config.max_len:]
        users = np.array([user])
        self.eval()
        with no_grad():
            item_table, user_table = self.node_tables()
            states = self.sequence_states(items, mask, users,
                                          item_table, user_table)

            def score_of(st, mk):
                rep = self.backbone.encode_states(st, mk)
                return float(self._score(rep, item_table).data[0, target])

            raw_score = score_of(states, mask)
            trace: Dict[str, object] = {
                "raw_sequence": list(sequence),
                "raw_score": raw_score,
            }
            if self.augmentation is not None:
                self.augmentation.train()  # selectors are training-only
                threshold = self.augmentation.length_threshold
                self.augmentation.length_threshold = None  # always trace
                try:
                    result = self.augmentation(states, mask, item_table)
                finally:
                    self.augmentation.length_threshold = threshold
                    self.augmentation.eval()
                trace["augmented_score"] = score_of(result.states, result.mask)
                trace["insert_position"] = int(result.positions[0])
                trace["inserted_items"] = [int(result.inserted_left[0]),
                                           int(result.inserted_right[0])]
            if self.denoising is not None:
                den = self.denoising(states, mask)
                width = items.shape[1]
                offset = width - len(sequence)
                kept = [pos for pos in range(len(sequence))
                        if den.mask[0, offset + pos]]
                trace["kept_positions"] = kept
                trace["removed_items"] = [sequence[p] for p in range(len(sequence))
                                          if p not in kept]
                trace["denoised_score"] = score_of(den.states, den.mask)
        return trace
