"""Frozen-plan vs training-graph forward parity (bitwise, every model).

Every op both paths run has one forward, :mod:`repro.nn.kernels`, so a
frozen plan's sequence representations equal the graph's by
construction; the scores are exact too at this catalog size (see the
parity notes in :mod:`repro.serve.executors`).  The identity tests below
fail if a serving copy of a shared op is forked again.
"""

import numpy as np
import pytest

from repro.core import SSDRec, SSDRecConfig
from repro.data import generate
from repro.data.batching import pad_sequences
from repro.models import BACKBONES, GRU4Rec, SASRec, SRGNN
from repro.nn import Module, Tensor, kernels, no_grad
from repro.serve import FallbackPlan, executors, freeze
from repro.serve.program import OPS

DIM = 16
MAX_LEN = 12
NUM_ITEMS = 60


def random_batch(rng, rows=7, num_items=NUM_ITEMS, max_len=MAX_LEN):
    seqs = [list(rng.integers(1, num_items + 1,
                              size=rng.integers(1, max_len + 1)))
            for _ in range(rows)]
    items, mask, _ = pad_sequences(seqs, max_len=max_len)
    return items, mask


def assert_forward_parity(model, items, mask, users=None):
    plan = freeze(model)
    model.eval()
    with no_grad():
        if users is not None:
            graph = model.forward(items, mask, users=users).data
        else:
            graph = model.forward(items, mask).data
    frozen = (plan.forward(items, mask, users) if users is not None
              else plan.forward(items, mask))
    np.testing.assert_array_equal(frozen, graph)


@pytest.mark.parametrize("name", ["sigmoid", "linear", "masked_softmax",
                                  "gru_step"])
def test_shared_op_is_the_training_kernel(name):
    assert OPS[name] is getattr(kernels, name)


@pytest.mark.parametrize("name", ["linear", "layer_norm", "attention_weights",
                                  "gru_step", "gru_unroll"])
def test_composite_executors_call_the_training_kernel(name):
    assert getattr(executors, name) is getattr(kernels, name)


@pytest.mark.parametrize("name", sorted(BACKBONES))
def test_backbone_parity(name):
    rng = np.random.default_rng(3)
    model = BACKBONES[name](num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                            rng=rng)
    items, mask = random_batch(np.random.default_rng(11))
    plan = freeze(model)
    assert not isinstance(plan, FallbackPlan), name
    assert_forward_parity(model, items, mask)


def test_unregistered_model_gets_fallback_and_matches():
    model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                  rng=np.random.default_rng(5))
    plan = freeze(model)
    assert isinstance(plan, FallbackPlan)
    items, mask = random_batch(np.random.default_rng(13))
    assert_forward_parity(model, items, mask)


def test_subclass_of_registered_model_falls_back():
    class TweakedSASRec(SASRec):
        pass

    model = TweakedSASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                          rng=np.random.default_rng(0))
    assert isinstance(freeze(model), FallbackPlan)


def test_fallback_propagates_type_error_inside_users_aware_forward():
    """A TypeError raised *inside* a forward that takes ``users`` is a
    bug to surface, not a cue to retry without user injection."""
    class UsersAware(Module):
        max_len = MAX_LEN

        def forward(self, items, mask=None, users=None):
            if users is not None:   # a bug on the user-injection path
                raise TypeError("gate kernel received a bad operand")
            return Tensor(np.zeros((len(items), NUM_ITEMS + 1)))

    plan = FallbackPlan(UsersAware())
    items, mask = random_batch(np.random.default_rng(2))
    with pytest.raises(TypeError, match="bad operand"):
        plan.forward(items, mask, users=np.ones(len(items), dtype=np.int64))


class TestSSDRecParity:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate("beauty", seed=0, scale=0.25)

    def _batch(self, dataset, rng):
        users = rng.integers(1, dataset.num_users, size=6)
        seqs = [dataset.sequences[u][:MAX_LEN] or [1] for u in users]
        items, mask, _ = pad_sequences(seqs, max_len=MAX_LEN)
        return items, mask, np.asarray(users)

    @pytest.mark.parametrize("backbone", ["GRU4Rec", "SASRec"])
    def test_full_pipeline(self, dataset, backbone):
        model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(1))
        items, mask, users = self._batch(dataset, np.random.default_rng(2))
        assert_forward_parity(model, items, mask, users)

    @pytest.mark.parametrize("kwargs", [
        dict(use_stage1=False),
        dict(use_stage3=False),
        dict(use_stage1=False, use_stage3=False),
        dict(denoise_rounds=0),
    ])
    def test_ablated_variants(self, dataset, kwargs):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           **kwargs),
                       rng=np.random.default_rng(4))
        items, mask, users = self._batch(dataset, np.random.default_rng(6))
        assert_forward_parity(model, items, mask, users)

    def test_without_users(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(7))
        items, mask, _ = self._batch(dataset, np.random.default_rng(8))
        assert_forward_parity(model, items, mask)

    def test_non_hsd_gate_falls_back(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           denoise_gate="sparse-attention"),
                       rng=np.random.default_rng(9))
        plan = freeze(model)
        assert isinstance(plan, FallbackPlan)
        items, mask, users = self._batch(dataset, np.random.default_rng(10))
        assert_forward_parity(model, items, mask, users)
