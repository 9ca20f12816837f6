"""Model-specific behavioural tests beyond the shared backbone contract."""

import numpy as np
import pytest

from repro.data.batching import pad_sequences
from repro.models import NARM, STAMP, Caser, GRU4Rec, SASRec
from repro.nn import Tensor

RNG = np.random.default_rng(81)
NUM_ITEMS = 30
DIM = 16
MAX_LEN = 10


class TestNARM:
    def test_padding_is_read_only_by_its_own_row(self):
        """The GRU still reads a row's own padding, so perturbing row 0's
        padded input changes row 0's encoding; row 1, whose padding the
        shared trajectory no longer matches, is bitwise unchanged."""
        model = NARM(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                     rng=np.random.default_rng(0))
        model.eval()
        mask = np.array([[False, False, True, True, True],
                         [False, True, True, True, True]])
        states = np.where(mask[:, :, None], RNG.normal(size=(2, 5, DIM)), 0.0)
        h1 = model.encode_states(Tensor(states.copy()), mask).data
        perturbed = states.copy()
        perturbed[0, 0] += 100.0  # row 0's padding, the most-padded row
        h2 = model.encode_states(Tensor(perturbed), mask).data
        assert not np.allclose(h1[0], h2[0])
        np.testing.assert_array_equal(h1[1], h2[1])

    def test_local_global_components_both_matter(self):
        model = NARM(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                     rng=np.random.default_rng(0))
        model.eval()
        items, mask, _ = pad_sequences([[1, 2, 3, 4]], max_len=6)
        base = model.encode(items, mask).data
        # Zeroing the attention-energy projection kills the local part.
        model.attn_energy.weight.data[:] = 0.0
        ablated = model.encode(items, mask).data
        assert not np.allclose(base, ablated)


class TestSTAMP:
    def test_last_item_priority(self):
        """Changing the last item must change STAMP's output strongly."""
        model = STAMP(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(0))
        model.eval()
        items, mask, _ = pad_sequences([[1, 2, 3, 4]], max_len=6)
        base = model.encode(items, mask).data
        items2 = items.copy()
        items2[0, -1] = 9
        changed = model.encode(items2, mask).data
        assert np.abs(base - changed).max() > 1e-6

    def test_product_form(self):
        """STAMP's output is h_s ⊙ h_t: zero current interest zeroes it."""
        model = STAMP(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(0))
        model.eval()
        model.mlp_t.weight.data[:] = 0.0
        model.mlp_t.bias.data[:] = 0.0  # tanh(0) = 0 -> product is 0
        items, mask, _ = pad_sequences([[1, 2, 3]], max_len=6)
        out = model.encode(items, mask)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


class TestCaser:
    def test_short_sequences_skip_tall_filters(self):
        """Sequences shorter than a filter height must still encode."""
        model = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      filter_heights=(2, 3, 4), rng=np.random.default_rng(0))
        model.eval()
        states = Tensor(RNG.normal(size=(2, 3, DIM)))  # length 3 < height 4
        mask = np.ones((2, 3), dtype=bool)
        rep = model.encode_states(states, mask)
        assert rep.shape == (2, DIM)
        assert np.isfinite(rep.data).all()

    def test_padding_zeroed_before_convolution(self):
        model = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(0))
        model.eval()
        states = RNG.normal(size=(1, 6, DIM))
        mask = np.array([[False, False, True, True, True, True]])
        h1 = model.encode_states(Tensor(states.copy()), mask).data
        states2 = states.copy()
        states2[0, 0] += 50.0  # padded position
        h2 = model.encode_states(Tensor(states2), mask).data
        np.testing.assert_allclose(h1, h2, atol=1e-10)

    def test_fit_length_pads_and_truncates(self):
        image = Tensor(RNG.normal(size=(1, DIM, 5)))
        padded = Caser._fit_length(image, 8)
        assert padded.shape == (1, DIM, 8)
        np.testing.assert_allclose(padded.data[:, :, :3], 0.0)
        truncated = Caser._fit_length(image, 3)
        np.testing.assert_allclose(truncated.data, image.data[:, :, 2:])


class TestGRU4Rec:
    def test_multi_layer_stacks(self):
        one = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      num_layers=1, rng=np.random.default_rng(0))
        two = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      num_layers=2, rng=np.random.default_rng(0))
        assert len(two.layers) == 2
        assert two.num_parameters() > one.num_parameters()


class TestSASRec:
    def test_position_embedding_matters(self):
        """Reordering items must change the encoding (position-aware)."""
        model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                       rng=np.random.default_rng(0))
        model.eval()
        a, _, _ = pad_sequences([[1, 2, 3, 4]], max_len=6)
        b, _, _ = pad_sequences([[4, 3, 2, 1]], max_len=6)
        mask = a != 0
        ha = model.encode(a, mask).data
        hb = model.encode(b, mask).data
        assert not np.allclose(ha, hb)

    def test_headroom_for_ssdrec_insertions(self):
        """SASRec must accept sequences up to max_len + 2 (stage 2 grows
        sequences by two during training)."""
        model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                       rng=np.random.default_rng(0))
        model.eval()
        states = Tensor(RNG.normal(size=(1, MAX_LEN + 2, DIM)))
        mask = np.ones((1, MAX_LEN + 2), dtype=bool)
        rep = model.encode_states(states, mask)
        assert rep.shape == (1, DIM)


class TestCaserFeatureAlignment:
    def test_skipped_filter_slots_stay_zero(self):
        """When a filter is skipped (short sequence), its feature slots
        contribute zeros — the vertical features must not shift into them."""
        model = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      filter_heights=(2, 3, 4), num_h_filters=4,
                      rng=np.random.default_rng(0))
        model.eval()
        states = Tensor(RNG.normal(size=(1, 3, DIM)))  # skips height-4 conv
        mask = np.ones((1, 3), dtype=bool)
        # Zero out FC weights for the height-4 filter's slots; the output
        # must be unchanged because those inputs are zero.
        out_before = model.encode_states(states, mask).data.copy()
        start = 2 * 4  # after h2 and h3 blocks (4 filters each)
        model.fc.weight.data[start:start + 4, :] = 123.0
        out_after = model.encode_states(states, mask).data
        np.testing.assert_allclose(out_before, out_after, atol=1e-10)
