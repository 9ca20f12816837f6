"""Tests for dataset containers, splitting, and preprocessing."""

import numpy as np
import pytest

from repro.data import (InteractionDataset, SequenceExample, k_core_filter,
                        leave_one_out_split, popularity_split, remap_ids,
                        write_store_from_dataset)


def make_dataset(sequences, num_items=None):
    num_items = num_items or max((max(s) for s in sequences if s), default=0)
    return InteractionDataset(
        name="toy", num_users=len(sequences), num_items=num_items,
        sequences=[[]] + [list(s) for s in sequences])


class TestInteractionDataset:
    def test_statistics(self):
        ds = make_dataset([[1, 2, 3], [2, 3], [1]], num_items=3)
        stats = ds.statistics()
        assert stats["users"] == 3
        assert stats["items"] == 3
        assert stats["actions"] == 6
        np.testing.assert_allclose(stats["avg_len"], 2.0)

    def test_sparsity(self):
        ds = make_dataset([[1, 1, 2], [3]], num_items=3)
        # distinct pairs: u1->{1,2}, u2->{3} = 3 of 6
        np.testing.assert_allclose(ds.sparsity, 0.5)

    def test_interaction_matrix_counts_repeats(self):
        ds = make_dataset([[1, 1, 2]], num_items=2)
        A = ds.interaction_matrix().toarray()
        assert A[1, 1] == 2 and A[1, 2] == 1
        assert A.shape == (2, 3)

    def test_item_popularity(self):
        ds = make_dataset([[1, 2], [2, 3], [2]], num_items=3)
        np.testing.assert_array_equal(ds.item_popularity(), [0, 1, 3, 1])

    def test_out_of_range_item_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([[1, 9]], num_items=3)

    def test_wrong_sequence_count_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset("bad", num_users=2, num_items=3,
                               sequences=[[1, 2]])


class TestLeaveOneOut:
    def test_basic_split(self):
        ds = make_dataset([[1, 2, 3, 4, 5]], num_items=5)
        split = leave_one_out_split(ds, max_len=10)
        (test,), (valid,), (train,) = split.test, split.valid, split.train
        assert test.target == 5
        assert list(test.sequence) == [1, 2, 3, 4]
        assert valid.target == 4
        assert list(valid.sequence) == [1, 2, 3]
        assert train.target == 3
        assert list(train.sequence) == [1, 2]

    def test_short_sequences_skipped(self):
        ds = make_dataset([[1, 2], [1, 2, 3]], num_items=3)
        split = leave_one_out_split(ds)
        assert len(split.test) == 1

    def test_truncation_keeps_recent(self):
        ds = make_dataset([list(range(1, 11))], num_items=10)
        split = leave_one_out_split(ds, max_len=3)
        (test,) = split.test
        assert list(test.sequence) == [7, 8, 9]
        assert test.target == 10

    def test_prefix_augmentation(self):
        ds = make_dataset([[1, 2, 3, 4, 5, 6]], num_items=6)
        plain = leave_one_out_split(ds, augment_prefixes=False)
        aug = leave_one_out_split(ds, augment_prefixes=True)
        assert len(aug.train) > len(plain.train)
        # Every augmented example predicts the item right after its prefix.
        for ex in aug.train:
            full = ds.sequences[ex.user]
            k = len(ex.sequence)
            assert full[k] == ex.target

    def test_invalid_max_len(self):
        ds = make_dataset([[1, 2, 3]], num_items=3)
        with pytest.raises(ValueError):
            leave_one_out_split(ds, max_len=0)

    @pytest.mark.parametrize("backend", ["memory", "store"])
    def test_min_length_below_two_rejected(self, backend, tmp_path):
        """A length-1 user has no item to hold out for valid; the split
        refuses the argument instead of failing with an IndexError."""
        ds = InteractionDataset("t", 2, 5, [[], [1], [1, 2, 3, 4]])
        view = (ds if backend == "memory"
                else write_store_from_dataset(ds, tmp_path / "s"))
        for min_length in (1, 0):
            with pytest.raises(ValueError, match="min_length"):
                leave_one_out_split(view, min_length=min_length)
        split = leave_one_out_split(view, min_length=2)
        assert [ex.user for ex in split.valid] == [2]


class TestKCore:
    def test_drops_infrequent_items_and_short_seqs(self):
        # item 9 appears once -> dropped; user 2's sequence then too short.
        seqs = [[1, 2, 3, 1, 2], [9, 1, 2], [1, 2, 3, 2, 1, 3]]
        ds = make_dataset(seqs, num_items=9)
        out = k_core_filter(ds, min_seq_len=3, min_item_freq=3)
        assert out.num_items <= 3
        for seq in out.sequences[1:]:
            assert len(seq) >= 3

    def test_ids_remapped_contiguously(self):
        seqs = [[5, 7, 5, 7, 5], [7, 5, 7, 5, 7]]
        ds = make_dataset(seqs, num_items=7)
        out = k_core_filter(ds, min_seq_len=2, min_item_freq=2)
        assert out.num_items == 2
        used = {i for s in out.sequences for i in s}
        assert used == {1, 2}

    def test_fixed_point(self):
        """k-core output passed through k-core again is unchanged."""
        seqs = [[1, 2, 3, 1, 2, 3], [2, 3, 1, 2, 3, 1], [3, 1, 2, 3, 1, 2]]
        ds = make_dataset(seqs)
        once = k_core_filter(ds, min_seq_len=3, min_item_freq=3)
        twice = k_core_filter(once, min_seq_len=3, min_item_freq=3)
        assert once.sequences == twice.sequences


class TestPopularitySplit:
    def test_head_tail_partition(self):
        ds = make_dataset([[1, 1, 1, 2, 2, 3, 4, 5]], num_items=5)
        head, tail = popularity_split(ds, head_fraction=0.2)
        assert list(head) == [1]
        assert set(tail) == {2, 3, 4, 5}

    def test_invalid_fraction(self):
        ds = make_dataset([[1]], num_items=1)
        with pytest.raises(ValueError):
            popularity_split(ds, head_fraction=0.0)


class TestRemap:
    def test_empty_sequences_dropped(self):
        out = remap_ids("x", {3: [10, 20], 5: []})
        assert out.num_users == 1
        assert out.sequences[1] == [1, 2]
