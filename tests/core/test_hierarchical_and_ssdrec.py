"""Tests for stage 3 (hierarchical denoising) and the full SSDRec model."""

import numpy as np
import pytest

from repro.core import (HierarchicalDenoising, SSDRec, SSDRecConfig,
                        SelfAugmentation)
from repro.data import DataLoader, generate, leave_one_out_split
from repro.data.batching import Batch, pad_sequences
from repro.models import BACKBONES, GRU4Rec, SASRec
from repro.nn import Adam, Tensor

RNG = np.random.default_rng(51)
DIM = 16
MAX_LEN = 10


@pytest.fixture(scope="module")
def dataset():
    return generate("beauty", seed=0, scale=0.3)


@pytest.fixture(scope="module")
def split(dataset):
    return leave_one_out_split(dataset, max_len=MAX_LEN)


def small_config(**overrides):
    defaults = dict(dim=DIM, max_len=MAX_LEN)
    defaults.update(overrides)
    return SSDRecConfig(**defaults)


def one_batch(split, size=8):
    loader = DataLoader(split.train, batch_size=size, max_len=MAX_LEN, seed=0)
    return next(iter(loader))


class TestHierarchicalDenoising:
    def _states(self, batch=3, length=6):
        states = Tensor(RNG.normal(size=(batch, length, DIM)))
        mask = np.ones((batch, length), dtype=bool)
        mask[0, :2] = False
        return states, mask

    def test_refine_drops_positions(self):
        hdm = HierarchicalDenoising(DIM, rounds=2, rng=np.random.default_rng(0))
        states, mask = self._states()
        refined, refined_mask = hdm.refine_augmented(states, mask)
        # Two rounds drop exactly two positions per row (enough items left).
        np.testing.assert_array_equal(refined_mask.sum(axis=1),
                                      mask.sum(axis=1) - 2)
        # Dropped positions are zeroed in the representation.
        dropped = mask & ~refined_mask
        assert np.abs(refined.data[dropped]).max() < 1e-12

    def test_rounds_stop_at_two_items(self):
        hdm = HierarchicalDenoising(DIM, rounds=10, rng=np.random.default_rng(0))
        states, mask = self._states(length=4)
        _, refined_mask = hdm.refine_augmented(states, mask)
        assert refined_mask.sum(axis=1).min() >= 2

    def test_forward_without_augmentation(self):
        hdm = HierarchicalDenoising(DIM, rng=np.random.default_rng(0))
        states, mask = self._states()
        result = hdm(states, mask)
        assert result.states.shape == states.shape
        assert result.mask.shape == mask.shape
        assert not (result.mask & ~mask).any()  # never keeps padding

    def test_forward_with_augmentation_uses_guidance(self):
        hdm = HierarchicalDenoising(DIM, rng=np.random.default_rng(0))
        hdm.eval()
        states, mask = self._states()
        aug_states = Tensor(RNG.normal(size=(3, 8, DIM)))
        aug_mask = np.ones((3, 8), dtype=bool)
        with_aug = hdm(states, mask, aug_states, aug_mask)
        without = hdm(states, mask)
        # Guidance changes the interest signal, hence possibly decisions;
        # at minimum the refined states differ.
        assert with_aug.refined_states.shape == (3, 8, DIM)
        assert without.refined_states.shape == states.shape

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            HierarchicalDenoising(DIM, rounds=-1)


class TestSSDRecConstruction:
    def test_all_stage_toggles(self, dataset):
        for s1 in (True, False):
            for s2 in (True, False):
                for s3 in (True, False):
                    model = SSDRec(dataset, backbone_cls=GRU4Rec,
                                   config=small_config(use_stage1=s1,
                                                       use_stage2=s2,
                                                       use_stage3=s3),
                                   rng=np.random.default_rng(0))
                    assert (model.encoder is not None) == s1
                    assert (model.augmentation is not None) == s2
                    assert (model.denoising is not None) == s3

    def test_tau_propagates_to_all_schedules(self, dataset):
        model = SSDRec(dataset, config=small_config(initial_tau=7.0),
                       rng=np.random.default_rng(0))
        for module in (model.augmentation, model.denoising):
            for sched in model._schedules_of(module):
                assert sched.tau == 7.0

    def test_prebuilt_graph_reused(self, dataset):
        from repro.graph import build_multi_relation_graph
        graph = build_multi_relation_graph(dataset)
        model = SSDRec(dataset, graph=graph, config=small_config(),
                       rng=np.random.default_rng(0))
        assert model.encoder is not None


@pytest.mark.parametrize("backbone", ["GRU4Rec", "SASRec", "BERT4Rec"])
class TestSSDRecWithBackbones:
    def test_forward_loss_backward(self, dataset, split, backbone):
        model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                       config=small_config(), rng=np.random.default_rng(0))
        batch = one_batch(split)
        logits = model.forward_batch(batch)
        assert logits.shape[0] == batch.batch_size
        assert np.isfinite(logits.data[:, 1:dataset.num_items + 1]).all()
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.abs(model.item_embedding.weight.grad).sum() > 0

    def test_one_step_reduces_loss(self, dataset, split, backbone):
        model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                       config=small_config(), rng=np.random.default_rng(0))
        model.eval()  # deterministic selections + no dropout
        batch = one_batch(split)
        opt = Adam(model.parameters(), lr=0.005)
        first = model.loss(batch)
        first.backward()
        opt.step()
        second = model.loss(batch)
        assert second.item() < first.item() + 1e-6


class TestSSDRecBehaviour:
    def test_augmentation_only_during_training(self, dataset, split):
        """Sec. III-F: stage 2 must not run at evaluation time."""
        model = SSDRec(dataset, config=small_config(),
                       rng=np.random.default_rng(0))
        batch = one_batch(split, size=4)
        model.eval()
        _, final_mask, _, _, aug_info = model._pipeline(
            batch.items, batch.mask, batch.users, training=False)
        assert aug_info is None
        assert final_mask.shape == batch.mask.shape
        model.train()
        _, final_mask_t, _, _, aug_info_t = model._pipeline(
            batch.items, batch.mask, batch.users, training=True)
        assert aug_info_t is not None

    def test_stage2_disabled_pipeline(self, dataset, split):
        model = SSDRec(dataset, config=small_config(use_stage2=False),
                       rng=np.random.default_rng(0))
        batch = one_batch(split, size=4)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())

    def test_keep_mask_subset_of_valid(self, dataset):
        model = SSDRec(dataset, config=small_config(),
                       rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences(
            [dataset.sequences[1], dataset.sequences[2]], max_len=MAX_LEN)
        keep = model.keep_mask(items, mask)
        assert not (keep & ~mask).any()
        assert keep.any(axis=1).all()  # never empty

    def test_explain_trace(self, dataset):
        model = SSDRec(dataset, config=small_config(),
                       rng=np.random.default_rng(0))
        seq = dataset.sequences[3]
        trace = model.explain(seq, user=3, target=seq[-1])
        assert "raw_score" in trace and "denoised_score" in trace
        assert "inserted_items" in trace and len(trace["inserted_items"]) == 2
        assert set(trace["removed_items"]) <= set(trace["raw_sequence"])

    def test_dropped_ratio_interface(self, dataset):
        model = SSDRec(dataset, config=small_config(),
                       rng=np.random.default_rng(0))
        ratio = model.dropped_ratio([dataset.sequences[1],
                                     dataset.sequences[2]])
        assert 0.0 <= ratio < 1.0

    def test_on_batch_end_anneals_everything(self, dataset):
        model = SSDRec(dataset, config=small_config(anneal_every=1,
                                                    anneal_rate=0.5),
                       rng=np.random.default_rng(0))
        model.on_batch_end()
        for module in (model.augmentation, model.denoising):
            for sched in model._schedules_of(module):
                assert sched.tau == 0.5


class TestSSDRecTrainsEndToEnd:
    def test_two_epoch_training(self, dataset, split):
        from repro.train import TrainConfig, Trainer
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=small_config(), rng=np.random.default_rng(0))
        result = Trainer(model, split,
                         TrainConfig(epochs=2, batch_size=32, seed=0)).fit()
        assert result.epochs_run == 2
        assert np.isfinite(result.history[-1]["loss"])
