"""Robustness tests: degenerate datasets, extreme inputs, edge shapes.

These inject the failure modes a downstream user will eventually hit —
tiny or degenerate datasets, batch size 1, all-identical sequences,
extreme learning rates — and assert the library degrades gracefully
(defined behaviour or a clear exception, never NaNs or silent corruption).
"""

import numpy as np
import pytest

from repro.core import SSDRec, SSDRecConfig
from repro.data import (DataLoader, InteractionDataset, generate,
                        inject_noise, leave_one_out_split)
from repro.data.batching import Batch, pad_sequences
from repro.denoise import DSAN, HSD
from repro.graph import build_multi_relation_graph
from repro.models import GRU4Rec, SASRec
from repro.train import TrainConfig, Trainer


def tiny_dataset(sequences, num_items=None):
    num_items = num_items or max(max(s) for s in sequences if s)
    return InteractionDataset(
        name="tiny", num_users=len(sequences), num_items=num_items,
        sequences=[[]] + [list(s) for s in sequences])


class TestDegenerateDatasets:
    def test_single_user_dataset(self):
        ds = tiny_dataset([[1, 2, 3, 1, 2]], num_items=3)
        split = leave_one_out_split(ds, max_len=5)
        assert len(split.train) == len(split.test) == 1
        model = GRU4Rec(num_items=3, dim=4, max_len=5,
                        rng=np.random.default_rng(0))
        result = Trainer(model, split,
                         TrainConfig(epochs=1, batch_size=4)).fit()
        assert np.isfinite(result.history[0]["loss"])

    def test_all_identical_sequences(self):
        ds = tiny_dataset([[1, 2, 3, 4]] * 4, num_items=4)
        graph = build_multi_relation_graph(ds)
        graph.validate()
        # Every user co-interacts with every other -> no dissimilar edges.
        assert graph.dissimilar_users.nnz == 0

    def test_no_cooccurrence_dataset(self):
        # Disjoint item sets: no similar users at all.
        ds = tiny_dataset([[1, 2, 1], [3, 4, 3], [5, 6, 5]], num_items=6)
        graph = build_multi_relation_graph(ds)
        assert graph.similar_users.nnz == 0
        assert graph.dissimilar_users.nnz == 0  # requires a common similar

    def test_ssdrec_on_sparse_graph(self):
        """SSDRec must construct and train even when most relations are
        empty (zero aggregates, residual embeddings carry the signal)."""
        ds = tiny_dataset([[1, 2, 1, 2, 1], [3, 4, 3, 4, 3]], num_items=4)
        split = leave_one_out_split(ds, max_len=5)
        model = SSDRec(ds, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=8, max_len=5),
                       rng=np.random.default_rng(0))
        result = Trainer(model, split,
                         TrainConfig(epochs=1, batch_size=2)).fit()
        assert np.isfinite(result.history[0]["loss"])


class TestExtremeInputs:
    def test_batch_size_one(self):
        ds = generate("beauty", seed=0, scale=0.25)
        split = leave_one_out_split(ds, max_len=8)
        model = SASRec(num_items=ds.num_items, dim=8, max_len=8,
                       rng=np.random.default_rng(0))
        loader = DataLoader(split.train.take(3), batch_size=1, max_len=8)
        for batch in loader:
            assert np.isfinite(model.loss(batch).item())

    def test_minimum_length_sequences(self):
        items, mask, _ = pad_sequences([[7]], max_len=6)
        model = SASRec(num_items=10, dim=8, max_len=6,
                       rng=np.random.default_rng(0))
        logits = model.forward(items, mask)
        assert np.isfinite(logits.data[:, 1:]).all()

    def test_huge_learning_rate_stays_finite_with_clipping(self):
        ds = generate("beauty", seed=0, scale=0.25)
        split = leave_one_out_split(ds, max_len=8)
        model = GRU4Rec(num_items=ds.num_items, dim=8, max_len=8,
                        rng=np.random.default_rng(0))
        config = TrainConfig(epochs=2, batch_size=32, learning_rate=10.0,
                             grad_clip=1.0)
        result = Trainer(model, split, config).fit()
        for p in model.parameters():
            assert np.isfinite(p.data).all()
        assert np.isfinite(result.history[-1]["loss"])

    def test_denoiser_single_item_sequence_never_empty(self):
        model = HSD(num_items=10, dim=8, max_len=6,
                    rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences([[3]], max_len=6)
        keep = model.keep_mask(items, mask)
        assert keep.sum() == 1

    def test_dsan_uniform_scores_keep_valid(self):
        model = DSAN(num_items=10, dim=8, max_len=6,
                     rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences([[1, 1, 1, 1]], max_len=6)
        keep = model.keep_mask(items, mask)
        assert keep.any()


class TestNoiseEdgeCases:
    def test_inject_into_saturated_universe(self):
        """When a user interacted with every item, nothing can be inserted."""
        ds = tiny_dataset([[1, 2, 3]], num_items=3)
        noisy = inject_noise(ds, ratio=0.5, seed=0)
        assert noisy.noise_count() == 0

    def test_zero_ratio_is_identity(self):
        ds = generate("beauty", seed=0, scale=0.25)
        noisy = inject_noise(ds, ratio=0.0, seed=0)
        assert noisy.dataset.sequences == ds.sequences


class TestSSDRecEdgeCases:
    def test_augmentation_with_two_item_sequences(self):
        ds = generate("beauty", seed=0, scale=0.25)
        model = SSDRec(ds, config=SSDRecConfig(dim=8, max_len=6),
                       rng=np.random.default_rng(0))
        model.train()
        items, mask, lengths = pad_sequences([[1, 2], [3, 4]], max_len=6)
        batch = Batch(users=np.array([1, 2]), items=items, mask=mask,
                      lengths=lengths, targets=np.array([5, 6]))
        loss = model.loss(batch)
        assert np.isfinite(loss.item())

    def test_denoise_rounds_zero(self):
        ds = generate("beauty", seed=0, scale=0.25)
        model = SSDRec(ds, config=SSDRecConfig(dim=8, max_len=6,
                                               denoise_rounds=0),
                       rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences([ds.sequences[1][:5]], max_len=6)
        keep = model.keep_mask(items, mask)
        assert keep.any()

    def test_forward_without_users(self):
        """User-free inference (cold users) must still work."""
        ds = generate("beauty", seed=0, scale=0.25)
        model = SSDRec(ds, config=SSDRecConfig(dim=8, max_len=6),
                       rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences([[1, 2, 3]], max_len=6)
        logits = model.forward(items, mask, users=None)
        assert np.isfinite(logits.data[:, 1:ds.num_items + 1]).all()
