"""Tests for Tensor storage version counters (sanitizer substrate).

PyTorch-style semantics: every in-place mutation bumps a counter shared
by all tensors aliasing the same storage (detached views, basic slices),
while true copies (``clone``, graph-node outputs) start a fresh counter.
"""

import numpy as np
import pytest

from repro.nn import Adam, SGD, Tensor
from repro.nn.layers import Embedding
from repro.nn.module import Parameter


class TestVersionBumps:
    def test_fresh_tensor_starts_at_zero(self):
        assert Tensor(np.ones(3)).version == 0

    def test_inplace_methods_bump(self):
        t = Tensor(np.ones(4))
        t.add_(1.0)
        t.sub_(0.5)
        t.mul_(2.0)
        t.fill_(3.0)
        t.zero_()
        t.copy_(np.arange(4.0))
        t.masked_fill_(np.array([True, False, True, False]), -1.0)
        assert t.version == 7
        np.testing.assert_allclose(t.data, [-1.0, 1.0, -1.0, 3.0])

    def test_data_setter_bumps(self):
        t = Tensor(np.ones(3))
        t.data = np.zeros(3)
        assert t.version == 1

    def test_augmented_assignment_on_data_bumps(self):
        # p.data -= update must count as a mutation (the optimizers'
        # in-place path goes through the property setter).
        t = Tensor(np.ones(3))
        t.data -= 0.5
        assert t.version == 1
        np.testing.assert_allclose(t.data, 0.5)

    def test_out_of_place_ops_do_not_bump(self):
        t = Tensor(np.ones(3), requires_grad=True)
        _ = (t + 1.0) * 2.0
        _ = t.sum()
        assert t.version == 0


class TestAliasing:
    def test_detach_shares_counter(self):
        t = Tensor(np.ones(3), requires_grad=True)
        view = t.detach()
        t.add_(1.0)
        assert view.version == 1
        view.mul_(2.0)
        assert t.version == 2

    def test_clone_gets_fresh_counter(self):
        t = Tensor(np.ones(3), requires_grad=True)
        c = t.clone()
        t.add_(1.0)
        assert c.version == 0
        assert not np.shares_memory(c.data, t.data)

    def test_clone_is_differentiable(self):
        t = Tensor(np.arange(3.0), requires_grad=True)
        (t.clone() * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0, 2.0])

    def test_basic_getitem_shares_counter(self):
        t = Tensor(np.ones((4, 4)), requires_grad=True)
        row = t[1]
        t.fill_(0.0)
        assert row.version == 1

    def test_fancy_getitem_gets_fresh_counter(self):
        t = Tensor(np.ones((4, 4)), requires_grad=True)
        rows = t[np.array([0, 2])]
        t.fill_(0.0)
        assert rows.version == 0

    def test_column_slice_shares_counter(self):
        t = Tensor(np.ones((3, 6)), requires_grad=True)
        cols = t[:, 1:4]
        assert np.shares_memory(cols.data, t.data)
        t.add_(1.0)
        assert cols.version == 1


class TestFrameworkMutationsBump:
    def test_sgd_and_adam_step_bump_parameters(self):
        for optim_cls in (SGD, Adam):
            p = Parameter(np.ones(3))
            p.grad = np.ones(3)
            before = p.version
            optim_cls([p], lr=0.1).step()
            assert p.version == before + 1, optim_cls.__name__

    def test_embedding_padding_mask_bumps(self):
        emb = Embedding(5, 4, padding_idx=0, rng=np.random.default_rng(0))
        before = emb.weight.version
        emb.apply_padding_mask()
        assert emb.weight.version == before + 1

    def test_load_state_dict_bumps(self):
        emb = Embedding(5, 4, rng=np.random.default_rng(0))
        state = emb.state_dict()
        before = emb.weight.version
        emb.load_state_dict(state)
        assert emb.weight.version > before


class TestInplaceSemantics:
    def test_inplace_on_graph_output_keeps_buffer(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2.0
        buf = out.data
        out.add_(1.0)
        assert out.data is buf

    def test_masked_fill_requires_matching_mask(self):
        t = Tensor(np.ones(3))
        with pytest.raises((ValueError, IndexError)):
            t.masked_fill_(np.array([True, False]), 0.0)
