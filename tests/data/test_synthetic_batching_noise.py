"""Tests for synthetic generators, batching, and noise injection/scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (PAD_ID, DataLoader, NegativeSampler, PROFILES,
                        generate, inject_noise, leave_one_out_split,
                        pad_sequences, score_denoising)


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self):
        a = generate("beauty", seed=7)
        b = generate("beauty", seed=7)
        assert a.sequences == b.sequences

    def test_different_seed_differs(self):
        a = generate("beauty", seed=1)
        b = generate("beauty", seed=2)
        assert a.sequences != b.sequences

    def test_profile_scale_shapes(self):
        ds = generate("ml-100k", seed=0)
        profile = PROFILES["ml-100k"]
        assert ds.num_users == profile.num_users
        assert ds.num_items == profile.num_items
        # Mean length within 25% of the profile target.
        assert abs(ds.avg_sequence_length - profile.mean_length) < \
            0.25 * profile.mean_length

    def test_relative_lengths_match_table2(self):
        """ML datasets must have much longer sequences than Amazon/Yelp."""
        ml = generate("ml-1m", seed=0)
        beauty = generate("beauty", seed=0)
        assert ml.avg_sequence_length > 3 * beauty.avg_sequence_length

    def test_noise_flags_recorded(self):
        ds = generate("yelp", seed=0)
        flags = ds.metadata["noise_flags"]
        assert len(flags) == ds.num_users + 1
        total = sum(sum(f) for f in flags)
        actions = ds.num_interactions
        observed_rate = total / actions
        assert 0.5 * 0.18 < observed_rate < 1.5 * 0.18

    def test_noise_rate_override(self):
        ds = generate("beauty", seed=0, noise_rate=0.0)
        assert sum(sum(f) for f in ds.metadata["noise_flags"]) == 0

    def test_invalid_profile(self):
        with pytest.raises(KeyError):
            generate("does-not-exist")

    def test_invalid_noise_rate(self):
        with pytest.raises(ValueError):
            generate("beauty", noise_rate=1.5)

    def test_scale_parameter(self):
        small = generate("sports", seed=0, scale=0.25)
        assert small.num_users == 100

    def test_clean_items_follow_clusters(self):
        """Non-noise interactions should concentrate in the user's clusters."""
        ds = generate("beauty", seed=3, noise_rate=0.0)
        clusters = ds.metadata["item_clusters"]
        profile = PROFILES["beauty"]
        concentrated = 0
        for seq in ds.sequences[1:]:
            cs = {clusters[i] for i in seq}
            if len(cs) <= profile.clusters_per_user:
                concentrated += 1
        assert concentrated / ds.num_users > 0.95


class TestPadding:
    def test_left_padding(self):
        items, mask, lengths = pad_sequences([[1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(items, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(mask, [[False, True, True]] + [[True] * 3])
        np.testing.assert_array_equal(lengths, [2, 3])

    def test_truncation_keeps_tail(self):
        items, _, lengths = pad_sequences([[1, 2, 3, 4]], max_len=2)
        np.testing.assert_array_equal(items, [[3, 4]])
        assert lengths[0] == 2

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            pad_sequences([])

    def test_rows_of_any_sequence_type_pad_alike(self):
        rows = [[1, 2, 3, 4], [], [5]]
        want = pad_sequences(rows, max_len=3)
        for convert in (tuple, lambda r: np.asarray(r, dtype=np.int64)):
            got = pad_sequences([convert(r) for r in rows], max_len=3)
            for a, b in zip(want, got):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(want[0], [[2, 3, 4], [0, 0, 0],
                                                [0, 0, 5]])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 50), min_size=1, max_size=12),
                    min_size=1, max_size=6))
    def test_padding_roundtrip_property(self, seqs):
        items, mask, lengths = pad_sequences(seqs)
        for row, seq in enumerate(seqs):
            recovered = items[row][mask[row]].tolist()
            assert recovered == seq
            assert lengths[row] == len(seq)


class TestDataLoader:
    def _split(self):
        ds = generate("beauty", seed=0, scale=0.3)
        return leave_one_out_split(ds, max_len=20)

    def test_covers_all_examples(self):
        split = self._split()
        loader = DataLoader(split.train, batch_size=16, max_len=20, seed=0)
        seen = sum(b.batch_size for b in loader)
        assert seen == len(split.train)

    def test_batch_shapes_consistent(self):
        split = self._split()
        for batch in DataLoader(split.train, batch_size=8, max_len=20):
            assert batch.items.shape == (batch.batch_size, 20)
            assert batch.mask.shape == batch.items.shape
            assert (batch.items[batch.mask] != PAD_ID).all()
            assert (batch.targets >= 1).all()

    def test_shuffle_determinism(self):
        split = self._split()
        first = [b.users.tolist() for b in
                 DataLoader(split.train, batch_size=8, seed=5)]
        second = [b.users.tolist() for b in
                  DataLoader(split.train, batch_size=8, seed=5)]
        # Same seed, fresh loaders -> same order
        assert first == second

    def test_drop_last(self):
        split = self._split()
        n = len(split.train)
        loader = DataLoader(split.train, batch_size=n - 1, drop_last=True)
        assert len(list(loader)) == 1

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader([], batch_size=0)


class TestNegativeSampler:
    def test_excludes_positives(self):
        sampler = NegativeSampler(num_items=10, seed=0)
        negs = sampler.sample([1, 2, 3], count=50)
        assert not set(negs.tolist()) & {1, 2, 3}
        assert ((negs >= 1) & (negs <= 10)).all()

    def test_batch_sampling_avoids_targets(self):
        sampler = NegativeSampler(num_items=5, seed=0)
        targets = np.array([1, 2, 3, 4, 5] * 20)
        negs = sampler.sample_batch(targets)
        assert (negs != targets).all()

    def test_all_positive_raises(self):
        sampler = NegativeSampler(num_items=3)
        with pytest.raises(ValueError):
            sampler.sample([1, 2, 3], count=1)


class TestNoiseInjection:
    def test_inserted_count_and_flags(self):
        ds = generate("beauty", seed=0, scale=0.3, noise_rate=0.0)
        noisy = inject_noise(ds, ratio=0.2, seed=1)
        for user in range(1, ds.num_users + 1):
            raw = ds.sequences[user]
            new = noisy.dataset.sequences[user]
            flags = noisy.injected[user]
            assert len(new) == len(flags)
            assert len(new) - len(raw) == int(np.ceil(0.2 * len(raw)))
            # Raw items survive in order.
            kept = [i for i, f in zip(new, flags) if not f]
            assert kept == raw

    def test_inserted_items_unobserved(self):
        ds = generate("beauty", seed=0, scale=0.3)
        noisy = inject_noise(ds, ratio=0.3, seed=2)
        for user in range(1, ds.num_users + 1):
            seen = set(ds.sequences[user])
            for item, flag in zip(noisy.dataset.sequences[user],
                                  noisy.injected[user]):
                if flag:
                    assert item not in seen

    def test_max_length_gate(self):
        ds = generate("ml-100k", seed=0, scale=0.5)
        noisy = inject_noise(ds, ratio=0.5, seed=0, max_length=5)
        # Nearly all ml-100k sequences exceed 5 items -> no insertions there.
        for user in range(1, ds.num_users + 1):
            if len(ds.sequences[user]) >= 5:
                assert not any(noisy.injected[user])

    def test_invalid_ratio(self):
        ds = generate("beauty", seed=0, scale=0.3)
        with pytest.raises(ValueError):
            inject_noise(ds, ratio=-0.1)


class TestOUPScoring:
    def _tiny_noisy(self):
        ds = generate("beauty", seed=0, scale=0.3, noise_rate=0.0)
        return ds, inject_noise(ds, ratio=0.25, seed=3)

    def test_perfect_denoiser(self):
        _, noisy = self._tiny_noisy()
        kept = {
            u: [p for p, f in enumerate(noisy.injected[u]) if not f]
            for u in range(1, noisy.dataset.num_users + 1)
        }
        result = score_denoising(noisy, kept)
        assert result.under_denoising == 0.0
        assert result.over_denoising == 0.0

    def test_keep_everything(self):
        _, noisy = self._tiny_noisy()
        result = score_denoising(noisy, {})
        assert result.under_denoising == 1.0
        assert result.over_denoising == 0.0

    def test_drop_everything(self):
        _, noisy = self._tiny_noisy()
        kept = {u: [] for u in range(1, noisy.dataset.num_users + 1)}
        result = score_denoising(noisy, kept)
        assert result.under_denoising == 0.0
        assert result.over_denoising == 1.0

    def test_out_of_range_position_rejected(self):
        _, noisy = self._tiny_noisy()
        with pytest.raises(ValueError):
            score_denoising(noisy, {1: [9999]})


class TestModuleSummary:
    def test_summary_lists_parameters(self):
        from repro.models import GRU4Rec
        model = GRU4Rec(num_items=10, dim=4, max_len=5,
                        rng=np.random.default_rng(0))
        text = model.summary()
        assert "GRU4Rec" in text
        assert "item_embedding.weight" in text
        assert f"{model.num_parameters():,}" in text

    def test_summary_truncates(self):
        from repro.models import SASRec
        model = SASRec(num_items=10, dim=4, max_len=5,
                       rng=np.random.default_rng(0))
        text = model.summary(max_rows=3)
        assert "more parameters" in text
