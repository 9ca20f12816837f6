"""Tests for the pluggable stage-3 gates (Eq. 14 f_den choices)."""

import numpy as np
import pytest

from repro.core import GATES, SSDRec, SSDRecConfig, SparseAttentionGate, ThresholdGate
from repro.core.hierarchical import HierarchicalDenoising
from repro.data import generate
from repro.data.batching import pad_sequences
from repro.nn import Tensor

RNG = np.random.default_rng(71)
DIM = 16


def make_inputs(batch=3, length=6):
    states = Tensor(RNG.normal(size=(batch, length, DIM)))
    mask = np.ones((batch, length), dtype=bool)
    mask[0, :2] = False
    return states, mask


class TestRegistry:
    def test_contains_paper_default(self):
        assert "hsd" in GATES
        assert "sparse-attention" in GATES and "threshold" in GATES

    def test_unknown_gate_rejected(self):
        with pytest.raises(KeyError):
            HierarchicalDenoising(DIM, gate="bogus")


@pytest.mark.parametrize("gate_cls", [SparseAttentionGate, ThresholdGate])
class TestGateContracts:
    def test_binary_output_respects_mask(self, gate_cls):
        gate = gate_cls(DIM, rng=np.random.default_rng(0))
        states, mask = make_inputs()
        keep = gate(states, mask)
        vals = keep.data
        assert ((vals == 0) | (vals == 1)).all()
        assert (vals[~mask] == 0).all()

    def test_guidance_accepted(self, gate_cls):
        gate = gate_cls(DIM, rng=np.random.default_rng(0))
        gate.eval()
        states, mask = make_inputs()
        guidance = Tensor(RNG.normal(size=(3, 8, DIM)))
        keep = gate(states, mask, guidance=guidance)
        assert keep.shape == mask.shape

    def test_gradients_flow(self, gate_cls):
        gate = gate_cls(DIM, rng=np.random.default_rng(0))
        states = Tensor(RNG.normal(size=(2, 5, DIM)), requires_grad=True)
        mask = np.ones((2, 5), dtype=bool)
        (gate(states, mask) * Tensor(RNG.normal(size=(2, 5)))).sum().backward()
        assert states.grad is not None
        assert np.abs(states.grad).sum() > 0

    def test_has_anneal_hook(self, gate_cls):
        gate = gate_cls(DIM)
        start = gate.temperature.tau
        for _ in range(gate.temperature.anneal_every):
            gate.on_batch_end()
        assert gate.temperature.tau < start


class TestSparseAttentionGate:
    def test_drops_some_items_usually(self):
        gate = SparseAttentionGate(DIM, rng=np.random.default_rng(0))
        gate.eval()
        dropped = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            states = Tensor(rng.normal(size=(1, 8, DIM)) * 2)
            mask = np.ones((1, 8), dtype=bool)
            keep = gate(states, mask)
            dropped += int((keep.data[0] == 0).sum())
        assert dropped > 0  # sparsemax produced zeros somewhere


class TestSSDRecWithAlternativeGates:
    @pytest.mark.parametrize("gate", ["sparse-attention", "threshold"])
    def test_trains_end_to_end(self, gate):
        from repro.data import leave_one_out_split
        from repro.data import DataLoader
        ds = generate("beauty", seed=0, scale=0.25)
        split = leave_one_out_split(ds, max_len=8)
        model = SSDRec(ds, config=SSDRecConfig(dim=DIM, max_len=8,
                                               denoise_gate=gate),
                       rng=np.random.default_rng(0))
        batch = next(iter(DataLoader(split.train, batch_size=8, max_len=8)))
        loss = model.loss(batch)
        assert np.isfinite(loss.item())
        loss.backward()
        model.on_batch_end()

    def test_keep_mask_contract(self):
        ds = generate("beauty", seed=0, scale=0.25)
        model = SSDRec(ds, config=SSDRecConfig(dim=DIM, max_len=8,
                                               denoise_gate="sparse-attention"),
                       rng=np.random.default_rng(0))
        items, mask, _ = pad_sequences([ds.sequences[1][:6]], max_len=8)
        keep = model.keep_mask(items, mask)
        assert not (keep & ~mask).any()
        assert keep.any()
