"""Trainer over the mmap store: bitwise parity with training on the
in-memory dataset holding the same data, and the sampled softmax loss
used at full scale."""

import numpy as np
import pytest

from repro.data import (Batch, DataLoader, generate, leave_one_out_split,
                        write_store_from_dataset)
from repro.models import GRU4Rec
from repro.train import TrainConfig, Trainer


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    ds = generate("ml-100k", seed=8)
    store = write_store_from_dataset(
        ds, tmp_path_factory.mktemp("strtrain") / "s")
    memory = leave_one_out_split(ds, max_len=10)
    streaming = leave_one_out_split(store, max_len=10)
    return ds, memory, streaming


def fresh_model(ds):
    return GRU4Rec(ds.num_items, dim=8, max_len=10,
                   rng=np.random.default_rng(0))


class TestStreamingParity:
    def test_two_epochs_bitwise_identical(self, backends):
        """Same seeds, same data → identical loss/metric history whether
        the split streams from the in-memory dataset or the mmap store."""
        ds, memory, streaming = backends
        config = TrainConfig(epochs=2, batch_size=16, seed=4, patience=5)
        histories = []
        for split in (memory, streaming):
            result = Trainer(fresh_model(ds), split, config).fit()
            histories.append(result.history)
        assert histories[0] == histories[1]

    def test_weights_identical_after_training(self, backends):
        ds, memory, streaming = backends
        config = TrainConfig(epochs=1, batch_size=16, seed=4, patience=5)
        models = []
        for split in (memory, streaming):
            model = fresh_model(ds)
            Trainer(model, split, config).fit()
            models.append(model)
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            np.testing.assert_array_equal(a.data, b.data)


class TestSampledLoss:
    def make_batch(self, ds):
        split = leave_one_out_split(ds, max_len=10)
        examples = split.train.take(8)
        return next(iter(DataLoader(examples, batch_size=8, max_len=10,
                                    shuffle=False)))

    def test_deterministic_under_model_rng(self, backends):
        ds, _, _ = backends
        batch = self.make_batch(ds)
        losses = [float(fresh_model(ds).sampled_loss(batch).data)
                  for _ in range(2)]
        assert losses[0] == losses[1]

    def test_backward_reaches_embeddings(self, backends):
        ds, _, _ = backends
        model = fresh_model(ds)
        loss = model.sampled_loss(self.make_batch(ds))
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)

    def test_loss_decreases_with_sampled_objective(self, backends):
        ds, _, streaming = backends
        model = fresh_model(ds)
        config = TrainConfig(epochs=3, batch_size=16, seed=0, patience=5)
        result = Trainer(model, streaming, config,
                         loss_fn=lambda b: model.sampled_loss(b, 32)).fit()
        losses = [h["loss"] for h in result.history]
        assert losses[-1] < losses[0]

    def test_more_negatives_changes_objective(self, backends):
        ds, _, _ = backends
        batch = self.make_batch(ds)
        small = float(fresh_model(ds).sampled_loss(batch, 8).data)
        large = float(fresh_model(ds).sampled_loss(batch, 256).data)
        assert small != large
