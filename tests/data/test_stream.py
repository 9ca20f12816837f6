"""Tests of the one split and loader over every ``SequenceView`` backend.

The out-of-core k-core reaches the in-memory oracle's fixed point; the
leave-one-out split yields identical examples from an in-memory dataset
and from the same data written to an mmap store (property-tested over
random datasets); resident data is shuffled as one permutation whatever
``DEFAULT_BUFFER_SIZE`` is; and the loader's RNG surface supports
kill-and-resume.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (DataLoader, InteractionDataset, generate,
                        k_core_filter, leave_one_out_split, pad_sequences,
                        stream_k_core_filter, write_store_from_dataset)
from repro.data import stream

datasets = st.lists(
    st.lists(st.integers(1, 12), min_size=0, max_size=10),
    min_size=1, max_size=14)


def make_dataset(sequences, num_items=12):
    return InteractionDataset(
        name="toy", num_users=len(sequences), num_items=num_items,
        sequences=[[]] + [list(s) for s in sequences])


def permuted_batches(examples, batch_size, max_len, rng, drop_last=False):
    """Reference batches: one ``rng.shuffle`` permutation, cut in order."""
    order = np.arange(len(examples))
    rng.shuffle(order)
    out = []
    for start in range(0, len(order), batch_size):
        chunk = [examples[i] for i in order[start:start + batch_size]]
        if drop_last and len(chunk) < batch_size:
            break
        items, mask, lengths = pad_sequences([ex.sequence for ex in chunk],
                                             max_len)
        out.append((np.array([ex.user for ex in chunk]), items, mask,
                    lengths, np.array([ex.target for ex in chunk])))
    return out


def batches_match(batches, reference):
    assert len(batches) == len(reference)
    for batch, (users, items, mask, lengths, targets) in zip(batches,
                                                             reference):
        np.testing.assert_array_equal(batch.users, users)
        np.testing.assert_array_equal(batch.items, items)
        np.testing.assert_array_equal(batch.mask, mask)
        np.testing.assert_array_equal(batch.lengths, lengths)
        np.testing.assert_array_equal(batch.targets, targets)


def batches_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        np.testing.assert_array_equal(left.users, right.users)
        np.testing.assert_array_equal(left.items, right.items)
        np.testing.assert_array_equal(left.mask, right.mask)
        np.testing.assert_array_equal(left.lengths, right.lengths)
        np.testing.assert_array_equal(left.targets, right.targets)


class TestKCoreParity:
    @settings(max_examples=25, deadline=None)
    @given(datasets, st.integers(1, 4), st.integers(1, 4))
    def test_matches_in_memory_fixed_point(self, tmp_path_factory,
                                           sequences, min_seq, min_freq):
        ds = make_dataset(sequences)
        expected = k_core_filter(ds, min_seq_len=min_seq,
                                 min_item_freq=min_freq)
        root = tmp_path_factory.mktemp("kcore")
        store = write_store_from_dataset(ds, root / "raw")
        core = stream_k_core_filter(store, root / "core",
                                    min_seq_len=min_seq,
                                    min_item_freq=min_freq, verify=True)
        assert core.num_users == expected.num_users
        assert core.num_items == expected.num_items
        for user in range(expected.num_users + 1):
            np.testing.assert_array_equal(core.sequence(user),
                                          expected.sequence(user))

    def test_small_windows_same_result(self, tmp_path):
        ds = generate("ml-100k", seed=4)
        store = write_store_from_dataset(ds, tmp_path / "raw")
        wide = stream_k_core_filter(store, tmp_path / "wide",
                                    min_seq_len=3, min_item_freq=3)
        narrow = stream_k_core_filter(store, tmp_path / "narrow",
                                      min_seq_len=3, min_item_freq=3,
                                      chunk_events=17)
        np.testing.assert_array_equal(wide.indptr, narrow.indptr)
        np.testing.assert_array_equal(wide.items, narrow.items)

    def test_everything_filtered_yields_empty_store(self, tmp_path):
        ds = make_dataset([[1], [2]])
        store = write_store_from_dataset(ds, tmp_path / "raw")
        core = stream_k_core_filter(store, tmp_path / "core",
                                    min_seq_len=5, min_item_freq=5)
        assert core.num_users == 0
        assert core.num_events == 0


class TestSplitParity:
    @settings(max_examples=25, deadline=None)
    @given(datasets, st.integers(1, 8), st.booleans())
    def test_examples_identical(self, tmp_path_factory, sequences,
                                max_len, augment):
        ds = make_dataset(sequences)
        expected = leave_one_out_split(ds, max_len=max_len,
                                       augment_prefixes=augment)
        store = write_store_from_dataset(
            ds, tmp_path_factory.mktemp("split") / "s")
        split = leave_one_out_split(store, max_len=max_len,
                                    augment_prefixes=augment)
        for role in ("train", "valid", "test"):
            want = list(getattr(expected, role))
            got = list(getattr(split, role))
            assert len(got) == len(want)
            assert len(getattr(split, role)) == len(want)
            assert len(getattr(expected, role)) == len(want)
            for mem, streamed in zip(want, got):
                assert streamed.user == mem.user
                assert streamed.target == mem.target
                assert list(streamed.sequence) == list(mem.sequence)

    def test_streams_are_reiterable(self, tmp_path):
        ds = generate("ml-100k", seed=0)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)
        first = [(e.user, e.target) for e in split.train]
        second = [(e.user, e.target) for e in split.train]
        assert first == second and first

    def test_take_caps_stream(self, tmp_path):
        ds = generate("ml-100k", seed=0)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)
        capped = split.valid.take(5)
        assert len(capped) == 5
        assert len(list(capped)) == 5
        full = list(split.valid)
        for mem, streamed in zip(full[:5], capped):
            assert (mem.user, mem.target) == (streamed.user, streamed.target)

    def test_invalid_max_len(self, tmp_path):
        ds = make_dataset([[1, 2, 3]])
        store = write_store_from_dataset(ds, tmp_path / "s")
        with pytest.raises(ValueError):
            leave_one_out_split(store, max_len=0)


class TestLoaderParity:
    @settings(max_examples=20, deadline=None)
    @given(datasets, st.integers(1, 5), st.integers(0, 3), st.booleans())
    def test_full_buffer_bitwise_identical(self, sequences, batch_size,
                                           seed, drop_last):
        """Resident data: two epochs equal two draws of one permutation
        each, even with a shuffle window smaller than the data."""
        split = leave_one_out_split(make_dataset(sequences), max_len=6)
        examples = list(split.train)
        rng = np.random.default_rng(seed)
        with mock.patch.object(stream, "DEFAULT_BUFFER_SIZE", 1):
            for source in (split.train, examples):
                loader = DataLoader(source, batch_size=batch_size,
                                    max_len=6, seed=seed,
                                    drop_last=drop_last)
                rng = np.random.default_rng(seed)
                for _ in range(2):
                    batches_match(list(loader), permuted_batches(
                        examples, batch_size, 6, rng, drop_last))

    def test_resident_data_is_one_window(self, monkeypatch):
        monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", 64)
        split = leave_one_out_split(generate("ml-100k", seed=3), max_len=10,
                                    augment_prefixes=True)
        examples = list(split.train)
        assert len(examples) > 8 * stream.DEFAULT_BUFFER_SIZE
        loader = DataLoader(split.train, batch_size=16, max_len=10, seed=2)
        assert loader.window() == len(examples)
        rng = np.random.default_rng(2)
        for _ in range(2):
            batches_match(list(loader),
                          permuted_batches(examples, 16, 10, rng))

    def test_window_follows_the_backend(self, tmp_path):
        ds = generate("ml-100k", seed=1)
        store = write_store_from_dataset(ds, tmp_path / "s")
        memory = leave_one_out_split(ds, max_len=10).train
        mmap = leave_one_out_split(store, max_len=10).train
        assert len(mmap) > 100
        with mock.patch.object(stream, "DEFAULT_BUFFER_SIZE", 100):
            assert DataLoader(memory, batch_size=8).window() == len(memory)
            assert DataLoader(list(mmap), batch_size=8).window() == len(mmap)
            assert DataLoader(mmap, batch_size=8).window() == 100
            assert DataLoader(mmap, batch_size=8,
                              shuffle=False).window() == 8

    def test_unshuffled_order_invariant_to_buffer_size(self, tmp_path,
                                                       monkeypatch):
        ds = generate("ml-100k", seed=1)
        store = write_store_from_dataset(ds, tmp_path / "s")
        examples = list(leave_one_out_split(ds, max_len=10).train)
        expected = [ex.user for ex in examples]
        for buffer in (16, 23, 1 << 12):
            monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", buffer)
            for view in (ds, store):
                loader = DataLoader(leave_one_out_split(view,
                                                        max_len=10).train,
                                    batch_size=16, max_len=10,
                                    shuffle=False)
                batches = list(loader)
                assert [b.batch_size for b in batches[:-1]] == \
                    [16] * (len(batches) - 1)
                np.testing.assert_array_equal(
                    np.concatenate([b.users for b in batches]), expected)

    def test_small_buffer_covers_every_example_once(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", 32)
        ds = generate("ml-100k", seed=2)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)
        loader = DataLoader(split.train, batch_size=8, max_len=10,
                            shuffle=True, seed=3)
        assert loader.window() == 32 < len(split.train)
        seen = np.concatenate([b.users for b in loader])
        expected = np.sort(np.array([e.user for e in split.train]))
        np.testing.assert_array_equal(np.sort(seen), expected)

    def test_small_buffer_deterministic_under_seed(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", 32)
        ds = generate("ml-100k", seed=2)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)
        runs = [list(DataLoader(split.train, batch_size=8, max_len=10,
                                shuffle=True, seed=9))
                for _ in range(2)]
        batches_equal(runs[0], runs[1])

    def test_window_holds_at_least_one_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", 8)
        ds = generate("ml-100k", seed=2)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=5)
        loader = DataLoader(split.train, batch_size=64, seed=1)
        assert loader.window() == 64
        sizes = [b.batch_size for b in loader]
        assert sizes[:-1] == [64] * (len(sizes) - 1)
        assert sum(sizes) == len(split.train)


class TestKillAndResume:
    @pytest.fixture(autouse=True)
    def small_window(self, monkeypatch):
        monkeypatch.setattr(stream, "DEFAULT_BUFFER_SIZE", 32)
    def test_rng_state_roundtrip_resumes_shuffle(self, tmp_path):
        """Epoch 2 of a crashed-and-resumed loader must equal epoch 2 of
        the uninterrupted run — the checkpoint contract."""
        ds = generate("ml-100k", seed=5)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)

        def fresh():
            return DataLoader(split.train, batch_size=8, max_len=10,
                              shuffle=True, seed=11)

        uninterrupted = fresh()
        list(uninterrupted)  # epoch 1
        epoch2 = list(uninterrupted)

        crashed = fresh()
        list(crashed)  # epoch 1, then the process dies
        snapshot = crashed.rng_state()
        del crashed

        resumed = fresh()  # fresh process: seed alone is NOT enough...
        resumed.set_rng_state(snapshot)  # ...the snapshot is
        batches_equal(epoch2, list(resumed))

    def test_mid_epoch_snapshot_replays_tail_exactly(self, tmp_path):
        """A snapshot taken mid-epoch captures the shuffle state exactly:
        a replay reaching the same point holds the identical state and
        produces the identical remaining batches."""
        ds = generate("ml-100k", seed=5)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)

        def fresh():
            return DataLoader(split.train, batch_size=8, max_len=10,
                              shuffle=True, seed=13)

        first = fresh()
        run = iter(first)
        [next(run) for _ in range(3)]
        snapshot = first.rng_state()
        tail = list(run)

        replay = fresh()
        rerun = iter(replay)
        [next(rerun) for _ in range(3)]
        assert replay.rng_state() == snapshot
        batches_equal(tail, list(rerun))

    def test_seed_alone_does_not_resume(self, tmp_path):
        ds = generate("ml-100k", seed=5)
        store = write_store_from_dataset(ds, tmp_path / "s")
        split = leave_one_out_split(store, max_len=10)
        loader = DataLoader(split.train, batch_size=8, max_len=10,
                            shuffle=True, seed=11)
        list(loader)
        epoch2_first = next(iter(loader)).users
        restarted = DataLoader(split.train, batch_size=8, max_len=10,
                               shuffle=True, seed=11)
        epoch1_first = next(iter(restarted)).users
        assert not np.array_equal(epoch2_first, epoch1_first)
