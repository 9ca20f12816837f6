"""``topk_from_scores`` vs full sort, including adversarial tie layouts,
and ``merge_topk``: shard-merged top-K must be bitwise-identical to a
single global ``topk_from_scores`` pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.kernels import NEG_INF
from repro.serve import merge_topk, topk_from_scores
from repro.serve import retrieval
from repro.serve.retrieval import CHUNK


def full_sort_topk(scores, k):
    """Reference: full (-score, index) sort, first k columns."""
    order = np.lexsort((np.broadcast_to(np.arange(scores.shape[1]),
                                        scores.shape), -scores), axis=1)
    return order[:, :k]


class TestTopK:
    def test_simple(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.3]])
        np.testing.assert_array_equal(topk_from_scores(scores, 2), [[1, 2]])

    def test_one_dimensional_input(self):
        top = topk_from_scores(np.array([3.0, 1.0, 2.0]), 2)
        np.testing.assert_array_equal(top, [0, 2])

    def test_k_clamped_to_vocab(self):
        scores = np.array([[2.0, 1.0, 3.0]])
        np.testing.assert_array_equal(topk_from_scores(scores, 10),
                                      [[2, 0, 1]])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            topk_from_scores(np.zeros((2, 3)), 0)
        with pytest.raises(ValueError):
            topk_from_scores(np.zeros((2, 3, 4)), 1)

    def test_ties_prefer_lowest_index(self):
        scores = np.array([[1.0, 2.0, 2.0, 2.0, 0.5]])
        # Three-way tie at the top: ids 1, 2, 3 in ascending order.
        np.testing.assert_array_equal(topk_from_scores(scores, 2), [[1, 2]])

    def test_boundary_tie_group_larger_than_k(self):
        # Every entry tied: top-k must be exactly the first k indices,
        # whatever subset argpartition happened to select.
        scores = np.full((4, 9), 7.0)
        np.testing.assert_array_equal(
            topk_from_scores(scores, 3),
            np.tile(np.arange(3), (4, 1)))

    def test_constant_rows_mixed_with_distinct_rows(self):
        scores = np.array([[5.0, 5.0, 5.0, 5.0],
                           [1.0, 4.0, 3.0, 2.0]])
        np.testing.assert_array_equal(topk_from_scores(scores, 2),
                                      [[0, 1], [1, 2]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 10**6),
           st.integers(1, 5))
    def test_matches_full_sort_with_heavy_ties(self, vocab, rows, seed,
                                               levels):
        rng = np.random.default_rng(seed)
        # Few distinct levels => many exact ties, the adversarial case.
        scores = rng.integers(0, levels, size=(rows, vocab)).astype(float)
        k = int(rng.integers(1, vocab + 1))
        np.testing.assert_array_equal(topk_from_scores(scores, k),
                                      full_sort_topk(scores, k))

    def test_merge_simple(self):
        items, scores = merge_topk([[0, 2], [5, 3]],
                                   [[9.0, 1.0], [8.0, 7.0]], k=3)
        np.testing.assert_array_equal(items, [0, 5, 3])
        np.testing.assert_array_equal(scores, [9.0, 8.0, 7.0])

    def test_merge_ties_prefer_lowest_global_id(self):
        # Shards arrive out of id order; the tie at 2.0 must still
        # resolve to ascending global item id, exactly like
        # topk_from_scores over the concatenated catalog.
        items, scores = merge_topk([[7, 9], [1, 4]],
                                   [[2.0, 2.0], [2.0, 2.0]], k=3)
        np.testing.assert_array_equal(items, [1, 4, 7])
        np.testing.assert_array_equal(scores, [2.0, 2.0, 2.0])

    def test_merge_clamps_k_to_candidates(self):
        items, _ = merge_topk([[3], [8]], [[1.0], [2.0]], k=10)
        np.testing.assert_array_equal(items, [8, 3])

    def test_merge_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            merge_topk([[1]], [[1.0]], k=0)
        with pytest.raises(ValueError):
            merge_topk([[1], [2]], [[1.0]], k=1)
        with pytest.raises(ValueError):
            merge_topk([[1, 2]], [[1.0]], k=1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 6), st.integers(0, 10**6),
           st.integers(1, 4))
    def test_shard_merge_bitwise_identical_to_global_topk(
            self, vocab, shards, seed, levels):
        """The cluster-merge contract: partition the catalog into
        contiguous shards, take each shard's local top-k, and merge —
        the result must be *bitwise* identical (items and score bytes)
        to one global ``topk_from_scores`` pass.  Few distinct score
        levels force heavy ties across shard boundaries, the case where
        any deviation from the (-score, index) total order shows up."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=vocab).astype(float)
        k = int(rng.integers(1, vocab + 1))
        bounds = np.sort(rng.integers(0, vocab + 1, size=shards - 1)) \
            if shards > 1 else np.empty(0, dtype=int)
        edges = [0, *bounds.tolist(), vocab]
        item_lists, score_lists = [], []
        for lo, hi in zip(edges, edges[1:]):
            if lo == hi:
                item_lists.append(np.empty(0, dtype=np.int64))
                score_lists.append(np.empty(0))
                continue
            local_top = topk_from_scores(scores[lo:hi], k)
            item_lists.append(local_top + lo)
            score_lists.append(scores[lo:hi][local_top])
        items, merged = merge_topk(item_lists, score_lists, k)
        expected = topk_from_scores(scores, k)
        np.testing.assert_array_equal(items, expected)
        assert merged.tobytes() == scores[expected].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 6), st.integers(0, 10**6),
           st.integers(1, 4))
    def test_short_shard_merge_matches_oracle_on_candidate_union(
            self, vocab, shards, seed, levels):
        """Shards returning *fewer* than k candidates (short ANN probe
        lists) must merge bitwise-identically to the exact oracle
        restricted to the union of submitted candidates — the merge may
        never invent, drop, or reorder entries relative to a
        ``topk_from_scores`` pass over just those candidates."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=vocab).astype(float)
        k = int(rng.integers(1, vocab + 1))
        item_lists, score_lists = [], []
        union = []
        for _ in range(shards):
            # Each shard submits an arbitrary-size (possibly empty,
            # possibly < k) candidate subset, disjoint from the others.
            take = int(rng.integers(0, k + 1))
            pool = np.setdiff1d(np.arange(vocab), np.concatenate(
                [np.asarray(u, dtype=np.int64) for u in union])
                if union else np.empty(0, dtype=np.int64))
            ids = rng.choice(pool, size=min(take, pool.size),
                             replace=False)
            local = topk_from_scores(scores[ids], min(k, ids.size)) \
                if ids.size else np.empty(0, dtype=np.int64)
            item_lists.append(ids[local] if ids.size else ids)
            score_lists.append(scores[ids][local] if ids.size
                               else np.empty(0))
            union.append(ids)
        candidates = np.sort(np.concatenate(union).astype(np.int64))
        items, merged = merge_topk(item_lists, score_lists, k)
        if not candidates.size:
            assert items.size == 0 and merged.size == 0
            return
        oracle_local = topk_from_scores(scores[candidates],
                                        min(k, candidates.size))
        expected = candidates[oracle_local]
        np.testing.assert_array_equal(items, expected)
        assert merged.tobytes() == scores[expected].tobytes()

    def test_membership_matches_tie_semantics(self):
        """An item is in the top-k iff fewer than k items precede it under
        the (-score, ascending index) total order — the same order under
        which ``ranks_from_scores`` counts tied competitors."""
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 4, size=(5, 12)).astype(float)
        k = 6
        top = topk_from_scores(scores, k)
        for row in range(scores.shape[0]):
            returned = set(top[row].tolist())
            for item in range(scores.shape[1]):
                s = scores[row, item]
                ahead = ((scores[row] > s).sum()
                         + ((scores[row] == s)
                            & (np.arange(scores.shape[1]) < item)).sum())
                assert (item in returned) == (ahead < k)


def oracle_topk(scores, k):
    """Independent reference: each row's full ``(-score, index)`` lexsort,
    first ``min(k, V)`` entries (NaN sorts last)."""
    scores = np.atleast_2d(scores)
    vocab = scores.shape[1]
    top = [np.lexsort((np.arange(vocab), -row))[:k] for row in scores]
    return np.asarray(top, dtype=np.intp).reshape(len(scores), min(k, vocab))


@pytest.fixture
def partition_rows(monkeypatch):
    """Counts the rows ``topk_from_scores`` sends down the argpartition
    path, so a test can pin which path it exercises."""
    seen = []
    inner = retrieval._topk_partition

    def counted(scores, k):
        seen.append(scores.shape[0])
        return inner(scores, k)

    monkeypatch.setattr(retrieval, "_topk_partition", counted)
    return seen


class TestChunkBoundTopK:
    """``topk_from_scores`` on catalogs of at least K whole chunks, where it
    sorts only the entries that reach the K-th largest chunk max, against
    a full per-row sort.  Every comparison is exact."""

    K = 10
    VOCAB = 24 * CHUNK + 37              # not a multiple of the chunk width

    def check(self, scores, k=K):
        top = topk_from_scores(scores, k)
        assert top.dtype == np.intp
        np.testing.assert_array_equal(top, oracle_topk(scores, k))
        return top

    def test_serving_shape(self, partition_rows):
        rng = np.random.default_rng(0)
        self.check(rng.normal(size=(32, 30001)))
        self.check(rng.normal(size=(32, 30001)).astype(np.float32))
        assert partition_rows == []

    @pytest.mark.parametrize("seed", range(40))
    def test_tie_groups_straddle_chunk_edges_and_the_kth_boundary(
            self, seed, partition_rows):
        rng = np.random.default_rng(seed)
        rows = 4
        k = int(rng.integers(1, 24))
        scores = rng.normal(size=(rows, self.VOCAB))
        for row in range(rows):
            # ``lead`` entries above a tie group that spans chunk edges:
            # K falls inside the group, so its lowest ids must win.
            lead = int(rng.integers(0, k))
            edges = rng.choice(np.arange(1, self.VOCAB // CHUNK),
                               size=3, replace=False) * CHUNK
            group = np.concatenate([np.arange(e - 3, e + 3) for e in edges])
            above = rng.choice(np.setdiff1d(np.arange(self.VOCAB), group),
                               size=lead, replace=False)
            scores[row, group] = 10.0
            scores[row, above] = 10.0 + rng.integers(1, 3, size=lead)
        self.check(scores, k)
        assert partition_rows == []

    @pytest.mark.parametrize("levels", [1, 2, 3, 7])
    def test_few_score_levels(self, levels, partition_rows):
        rng = np.random.default_rng(levels)
        scores = rng.integers(0, levels, size=(5, self.VOCAB)).astype(float)
        self.check(scores)
        self.check(scores, 2 * self.K)
        assert partition_rows == []

    def test_every_score_equal(self):
        top = self.check(np.full((3, self.VOCAB), 0.25))
        np.testing.assert_array_equal(top, np.tile(np.arange(self.K),
                                                   (3, 1)))

    def test_neg_inf_masked_columns(self, partition_rows):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(4, self.VOCAB))
        scores[:, 0] = NEG_INF                           # padding id
        scores[0, rng.random(self.VOCAB) < 0.9] = NEG_INF
        # Fewer than K chunks hold a real score: the bound is NEG_INF
        # itself, and masked entries fill the list in ascending id order.
        scores[1, :] = NEG_INF
        scores[1, [5, CHUNK + 1, self.VOCAB - 1]] = [1.0, 3.0, 2.0]
        scores[2, CHUNK:] = NEG_INF
        self.check(scores)
        assert partition_rows == []

    def test_best_scores_in_the_tail_past_the_last_whole_chunk(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(3, self.VOCAB))
        tail = np.arange(self.VOCAB // CHUNK * CHUNK, self.VOCAB)
        scores[:, tail[::2]] = 50.0 + rng.normal(size=(3, tail[::2].size))
        scores[2, tail] = 9.0                            # tie in the tail
        self.check(scores)

    def test_non_finite_bounds_take_the_partition_path(self,
                                                       partition_rows):
        rng = np.random.default_rng(3)
        chunks = self.VOCAB // CHUNK
        starts = np.arange(chunks) * CHUNK
        scores = rng.normal(size=(7, self.VOCAB))
        scores[0, starts[:chunks - self.K + 1]] = np.nan  # < K non-NaN maxima
        scores[1, :] = np.nan                             # every score NaN
        scores[1, [7, 3 * CHUNK]] = [2.0, 1.0]
        scores[2, starts + 4] = np.inf                    # bound +inf
        scores[3, :] = -np.inf                            # bound -inf
        scores[3, [9, self.VOCAB - 2]] = [0.0, 1.0]
        scores[4, starts[:3] + 1] = np.nan                # finite bound
        scores[5, [11, 700]] = [np.inf, -np.inf]          # finite bound
        self.check(scores)
        assert partition_rows == [4]

    def test_fewer_than_k_whole_chunks(self, partition_rows):
        rng = np.random.default_rng(4)
        vocab = (self.K - 1) * CHUNK + 200
        self.check(rng.integers(0, 3, size=(3, vocab)).astype(float))
        self.check(rng.normal(size=(2, 1301)))            # serve-cold size
        assert partition_rows == [3, 2]

    def test_k_at_least_vocab(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 3, size=(2, 50)).astype(float)
        top = self.check(scores, 50)
        np.testing.assert_array_equal(self.check(scores, 80), top)

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(6)
        row = rng.integers(0, 4, size=self.VOCAB).astype(float)
        top = topk_from_scores(row, self.K)
        np.testing.assert_array_equal(top, oracle_topk(row, self.K)[0])

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(7)
        wide = rng.integers(0, 5, size=(4, 2 * self.VOCAB + 9)).astype(float)
        self.check(wide[:, 5:5 + self.VOCAB])
        self.check(wide[:, ::2])
        self.check(wide[::2, 1::2])

    def test_zero_rows(self):
        top = topk_from_scores(np.empty((0, self.VOCAB)), self.K)
        assert top.shape == (0, self.K) and top.dtype == np.intp
        top = topk_from_scores(np.empty((0, 40)), self.K)
        assert top.shape == (0, self.K)
