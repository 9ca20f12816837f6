"""Tests for the SR-GNN extension backbone."""

import numpy as np
import pytest

from repro.data.batching import Batch, pad_sequences
from repro.models import SRGNN
from repro.nn import Adam, Tensor

RNG = np.random.default_rng(61)
NUM_ITEMS = 30
DIM = 16
MAX_LEN = 8


def make_model(num_steps=1):
    return SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                 num_steps=num_steps, rng=np.random.default_rng(0))


class TestAdjacency:
    def test_consecutive_edges_only(self):
        mask = np.array([[False, True, True, True]])
        in_adj, out_adj = SRGNN._adjacency(mask)
        # Outgoing: 1->2, 2->3 (positions), nothing from padding.
        assert out_adj[0, 1, 2] == 1.0 and out_adj[0, 2, 3] == 1.0
        assert out_adj[0, 0].sum() == 0
        # Incoming mirrors outgoing.
        np.testing.assert_allclose(in_adj[0], out_adj[0].T)

    def test_row_normalized(self):
        mask = np.ones((1, 5), dtype=bool)
        in_adj, out_adj = SRGNN._adjacency(mask)
        sums = out_adj.sum(axis=-1)
        assert ((sums == 0) | np.isclose(sums, 1.0)).all()

    def test_single_item_no_edges(self):
        mask = np.array([[False, False, True]])
        in_adj, out_adj = SRGNN._adjacency(mask)
        assert out_adj.sum() == 0 and in_adj.sum() == 0


class TestSRGNN:
    def _batch(self):
        seqs = [RNG.integers(1, NUM_ITEMS + 1, size=5).tolist(),
                RNG.integers(1, NUM_ITEMS + 1, size=3).tolist()]
        items, mask, lengths = pad_sequences(seqs, max_len=MAX_LEN)
        return Batch(users=np.array([1, 2]), items=items, mask=mask,
                     lengths=lengths, targets=np.array([1, 2]))

    def test_forward_and_loss(self):
        model = make_model()
        batch = self._batch()
        logits = model.forward(batch.items, batch.mask)
        assert logits.shape == (2, NUM_ITEMS + 1)
        loss = model.loss(batch)
        assert np.isfinite(loss.item())

    def test_multiple_propagation_steps(self):
        one = make_model(num_steps=1)
        two = make_model(num_steps=2)
        two.load_state_dict(one.state_dict())
        one.eval(), two.eval()
        batch = self._batch()
        a = one.forward(batch.items, batch.mask).data
        b = two.forward(batch.items, batch.mask).data
        assert not np.allclose(a, b)

    def test_one_step_reduces_loss(self):
        model = make_model()
        model.eval()
        batch = self._batch()
        opt = Adam(model.parameters(), lr=0.01)
        first = model.loss(batch)
        first.backward()
        opt.step()
        assert model.loss(batch).item() < first.item()

    def test_encode_states_plugin_contract(self):
        model = make_model()
        model.eval()
        states = Tensor(RNG.normal(size=(2, 6, DIM)))
        mask = np.ones((2, 6), dtype=bool)
        rep = model.encode_states(states, mask)
        assert rep.shape == (2, DIM)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            make_model(num_steps=0)

    def test_works_under_ssdrec(self):
        from repro.core import SSDRec, SSDRecConfig
        from repro.data import generate, leave_one_out_split
        from repro.data import DataLoader
        ds = generate("beauty", seed=0, scale=0.25)
        split = leave_one_out_split(ds, max_len=MAX_LEN)
        model = SSDRec(ds, backbone_cls=SRGNN,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(0))
        batch = next(iter(DataLoader(split.train, batch_size=8,
                                     max_len=MAX_LEN)))
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
