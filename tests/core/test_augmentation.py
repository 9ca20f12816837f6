"""Tests for the stage-2 self-augmentation module (Eqs. 9-12)."""

import numpy as np
import pytest

from repro.core import InconsistencyScorer, SelfAugmentation
from repro.nn import Tensor

RNG = np.random.default_rng(41)
DIM = 16


def make_states(batch=3, length=6, planted_outlier=None):
    """Clustered states; optionally plant an inconsistent position."""
    base = RNG.normal(size=(batch, 1, DIM))
    states = base + 0.05 * RNG.normal(size=(batch, length, DIM))
    if planted_outlier is not None:
        states[:, planted_outlier, :] = 5.0 * RNG.normal(size=(batch, DIM))
    return Tensor(states)


class TestInconsistencyScorer:
    def test_distribution_properties(self):
        scorer = InconsistencyScorer(DIM, rng=np.random.default_rng(0))
        states = make_states()
        mask = np.ones((3, 6), dtype=bool)
        r = scorer(states, mask)
        assert r.shape == (3, 6)
        np.testing.assert_allclose(r.data.sum(axis=1), np.ones(3), rtol=1e-6)
        assert (r.data >= 0).all()

    def test_masked_positions_get_zero(self):
        scorer = InconsistencyScorer(DIM, rng=np.random.default_rng(0))
        states = make_states()
        mask = np.ones((3, 6), dtype=bool)
        mask[:, :2] = False
        r = scorer(states, mask)
        assert (r.data[:, :2] < 1e-9).all()

    def test_outlier_scores_highest_similarity_inconsistency(self):
        """A planted outlier should receive the top inconsistency mass."""
        scorer = InconsistencyScorer(DIM, rng=np.random.default_rng(0))
        scorer.eval()
        hits = 0
        for trial in range(10):
            states = make_states(batch=1, planted_outlier=3)
            mask = np.ones((1, 6), dtype=bool)
            r = scorer(states, mask)
            hits += int(r.data[0].argmax() == 3)
        assert hits >= 7  # untrained Bi-LSTM adds noise; similarity dominates

    def test_select_returns_valid_positions(self):
        scorer = InconsistencyScorer(DIM, rng=np.random.default_rng(0))
        states = make_states()
        mask = np.ones((3, 6), dtype=bool)
        mask[0, :4] = False
        one_hot, positions = scorer.select(states, mask, tau=0.5)
        assert one_hot.shape == (3, 6)
        assert positions[0] >= 4  # never a padded position
        np.testing.assert_allclose(one_hot.data.sum(axis=1), np.ones(3))


class TestSelfAugmentation:
    def _run(self, length_threshold=None, training=True, length=6):
        aug = SelfAugmentation(DIM, length_threshold=length_threshold,
                               rng=np.random.default_rng(0))
        aug.train(training)
        states = make_states(batch=3, length=length)
        mask = np.ones((3, length), dtype=bool)
        mask[0, :2] = False  # row 0 has a shorter sequence
        item_table = Tensor(RNG.normal(size=(20, DIM)), requires_grad=True)
        result = aug(states, mask, item_table)
        return aug, states, mask, item_table, result

    def test_output_length_grows_by_two(self):
        _, states, mask, _, result = self._run()
        assert result.states.shape == (3, 8, DIM)
        assert result.mask.shape == (3, 8)
        # Each augmented row has exactly 2 more valid positions.
        np.testing.assert_array_equal(
            result.mask.sum(axis=1), mask.sum(axis=1) + 2)

    def test_raw_items_survive_in_order(self):
        _, states, mask, _, result = self._run()
        for b in range(3):
            raw = states.data[b][mask[b]]
            p = result.positions[b]
            new_valid = result.states.data[b][result.mask[b]]
            # Remove the two inserted rows: they are at local indices
            # (p - invalid_before) and (+2) within the valid sub-sequence.
            offset = int((~mask[b][:p]).sum())
            local = p - offset
            survivors = np.delete(new_valid, [local, local + 2], axis=0)
            np.testing.assert_allclose(survivors, raw, atol=1e-10)

    def test_inserted_items_from_table(self):
        _, _, _, item_table, result = self._run()
        for b in range(3):
            p = result.positions[b]
            left = result.states.data[b, p]
            assert result.inserted_left[b] >= 1
            np.testing.assert_allclose(
                left, item_table.data[result.inserted_left[b]], atol=1e-10)

    def test_threshold_skips_long_rows(self):
        # Row 0 has 4 valid items, rows 1-2 have 6; threshold 5 augments
        # only row 0.
        _, states, mask, _, result = self._run(length_threshold=5)
        assert result.augmented_rows[0]
        assert not result.augmented_rows[1] and not result.augmented_rows[2]
        # Non-augmented rows: same valid count, shifted right by 2.
        np.testing.assert_array_equal(result.mask[1, :2], [False, False])
        np.testing.assert_array_equal(result.mask[1, 2:],
                                      np.ones(6, dtype=bool))
        assert result.inserted_left[1] == 0  # no insertion recorded

    def test_eval_mode_is_deterministic(self):
        aug = SelfAugmentation(DIM, rng=np.random.default_rng(0))
        aug.eval()
        states = make_states(batch=2)
        mask = np.ones((2, 6), dtype=bool)
        table = Tensor(RNG.normal(size=(20, DIM)))
        r1 = aug(states, mask, table)
        r2 = aug(states, mask, table)
        np.testing.assert_array_equal(r1.positions, r2.positions)
        np.testing.assert_array_equal(r1.inserted_left, r2.inserted_left)

    def test_gradients_flow_to_item_table(self):
        _, _, _, item_table, result = self._run()
        result.states.sum().backward()
        assert item_table.grad is not None
        assert np.abs(item_table.grad).sum() > 0

    def test_gradients_flow_to_scorer(self):
        aug, _, _, _, result = self._run()
        result.states.sum().backward()
        scorer_grads = [p.grad for p in aug.scorer.parameters()
                        if p.grad is not None]
        assert any(np.abs(g).sum() > 0 for g in scorer_grads)

    def test_temperature_annealing(self):
        aug = SelfAugmentation(DIM, rng=np.random.default_rng(0))
        start = aug.temperature.tau
        for _ in range(aug.temperature.anneal_every):
            aug.on_batch_end()
        assert aug.temperature.tau < start


class TestSingleContextPass:
    """``SelfAugmentation.forward`` runs the scorer's Bi-LSTM once and
    feeds ``(H^L, H^R)`` to both the position and the item selector."""

    def _forward(self, two_pass, monkeypatch):
        if two_pass:
            # Reference: the position selector recomputes its own context.
            select = InconsistencyScorer.select
            monkeypatch.setattr(
                InconsistencyScorer, "select",
                lambda self, *a, context=None, **kw: select(self, *a, **kw))
        aug = SelfAugmentation(DIM, rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        states = Tensor(rng.normal(size=(3, 6, DIM)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[0, :2] = False
        table = Tensor(rng.normal(size=(20, DIM)), requires_grad=True)
        result = aug(states, mask, table)
        (result.states * Tensor(rng.normal(size=result.states.shape))
         ).sum().backward()
        grads = [states.grad, table.grad] + [p.grad
                                             for p in aug.parameters()]
        monkeypatch.undo()
        return result, grads

    def test_matches_the_two_pass_reference(self, monkeypatch):
        one, one_grads = self._forward(False, monkeypatch)
        two, two_grads = self._forward(True, monkeypatch)
        np.testing.assert_array_equal(one.states.data, two.states.data)
        np.testing.assert_array_equal(one.mask, two.mask)
        np.testing.assert_array_equal(one.positions, two.positions)
        np.testing.assert_array_equal(one.inserted_left, two.inserted_left)
        np.testing.assert_array_equal(one.inserted_right,
                                      two.inserted_right)
        assert len(one_grads) == len(two_grads)
        for got, want in zip(one_grads, two_grads):
            # Only the summation order of the Bi-LSTM's incoming gradient
            # changes (one backward of the sum vs two backwards).
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_one_lstm_pass_per_forward(self, monkeypatch):
        import repro.nn.rnn as rnn

        calls = []
        lstm_sequence = rnn.lstm_sequence

        def counting(*args, **kwargs):
            calls.append(1)
            return lstm_sequence(*args, **kwargs)

        monkeypatch.setattr(rnn, "lstm_sequence", counting)
        aug = SelfAugmentation(DIM, rng=np.random.default_rng(0))
        aug(make_states(), np.ones((3, 6), dtype=bool),
            Tensor(RNG.normal(size=(20, DIM))))
        assert len(calls) == 1
