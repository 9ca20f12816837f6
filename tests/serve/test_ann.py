"""ANN retrieval: the clustered MIPS index vs the exact oracle.

Every property here is anchored to ``topk_from_scores``: full-probe
search must be *bitwise* identical to the exact top-k over unmasked
items, partitioned shards must merge back to the full-index answer,
and an ANN-serving ``RecommendService`` at ``nprobe >= num_clusters``
must reproduce the exact service's output byte for byte.
"""

import numpy as np
import pytest

from repro.analysis import PlanVerificationError, verify_plan
from repro.models import GRU4Rec, SASRec
from repro.serve import (RecommendService, attach_ann_index,
                         build_ann_index, freeze, merge_topk,
                         topk_from_scores)
from repro.serve.executors import NEG_INF

DIM = 16
MAX_LEN = 10
NUM_ITEMS = 40


def exact_reference(table, masked, reprs, k):
    """Exact oracle restricted to unmasked items, in global ids."""
    scores = reprs @ table.T
    scores[:, list(masked)] = NEG_INF
    return topk_from_scores(scores, k)


@pytest.fixture(scope="module")
def index_setup():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(300, 12))
    # High-norm rows: the norm-augmentation must keep these findable.
    table[::17] *= 5.0
    masked = (0, 5)
    index = build_ann_index(table, masked_columns=masked, seed=3)
    queries = rng.normal(size=(20, 12))
    return table, masked, index, queries


class TestIndexBuild:
    def test_deterministic_across_builds(self, index_setup):
        table, masked, index, _ = index_setup
        again = build_ann_index(table, masked_columns=masked, seed=3)
        np.testing.assert_array_equal(index.centroids, again.centroids)
        np.testing.assert_array_equal(index.packed_ids, again.packed_ids)
        np.testing.assert_array_equal(index.offsets, again.offsets)
        np.testing.assert_array_equal(index.packed_table,
                                      again.packed_table)

    def test_each_unmasked_item_indexed_exactly_once(self, index_setup):
        table, masked, index, _ = index_setup
        expected = np.setdiff1d(np.arange(table.shape[0]),
                                np.asarray(masked))
        np.testing.assert_array_equal(np.sort(index.packed_ids), expected)
        assert index.size == expected.size
        assert int(index.offsets[-1]) == expected.size
        np.testing.assert_array_equal(index.cluster_sizes().sum(),
                                      expected.size)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="must be"):
            build_ann_index(np.zeros(4))
        with pytest.raises(ValueError, match="out of range"):
            build_ann_index(np.zeros((4, 2)), masked_columns=(9,))
        with pytest.raises(ValueError, match="no unmasked rows"):
            build_ann_index(np.zeros((2, 2)), masked_columns=(0, 1))


class TestSearch:
    def test_full_probe_matches_exact_oracle(self, index_setup):
        table, masked, index, queries = index_setup
        items, scores = index.search(queries, k=10,
                                     nprobe=index.num_clusters)
        expected = exact_reference(table, masked, queries, 10)
        # Item ids are bitwise-identical to the oracle; scores agree to
        # matmul rounding (per-cluster partial matmuls block the dot
        # products differently than one full-table matmul).
        np.testing.assert_array_equal(items, expected)
        exact_scores = np.take_along_axis(queries @ table.T, expected,
                                          axis=1)
        np.testing.assert_allclose(scores, exact_scores,
                                   rtol=1e-12, atol=1e-12)

    def test_masked_items_never_returned(self, index_setup):
        table, masked, index, queries = index_setup
        for nprobe in (1, 4, index.num_clusters):
            items, _ = index.search(queries, k=25, nprobe=nprobe)
            assert not np.isin(items, np.asarray(masked)).any()

    def test_short_rows_padded_with_sentinels(self, index_setup):
        _, _, index, queries = index_setup
        smallest = int(index.cluster_sizes().min())
        k = index.size  # k larger than any single cluster
        items, scores = index.search(queries, k=k, nprobe=1)
        assert (items >= 0).sum(axis=1).min() >= smallest
        assert ((items < 0).sum(axis=1) > 0).any()
        assert np.all(scores[items < 0] == NEG_INF)
        # Padding is right-aligned: once -1 starts, it never stops.
        for row in items:
            valid = row >= 0
            assert not np.any(valid[np.argmin(valid):]) or valid.all()

    def test_partitioned_shards_merge_to_full_answer(self, index_setup):
        _, _, index, queries = index_setup
        k, nprobe = 10, 4
        whole_items, whole_scores = index.search(queries, k, nprobe)
        shards = index.partition(3)
        assert sum(s.size for s in shards) == index.size
        # Probe each shard with its local nprobe share of the global
        # probe budget is not well-defined; instead compare against the
        # union semantics: full-probe every shard and merge.
        full_items, full_scores = index.search(
            queries, k, nprobe=index.num_clusters)
        for row in range(queries.shape[0]):
            item_lists, score_lists = [], []
            for shard in shards:
                ids, scs = shard.search_lists(queries[row:row + 1], k,
                                              nprobe=shard.num_clusters)
                item_lists.append(ids[0])
                score_lists.append(scs[0])
            merged_items, merged_scores = merge_topk(item_lists,
                                                     score_lists, k)
            np.testing.assert_array_equal(merged_items, full_items[row])
            np.testing.assert_allclose(merged_scores, full_scores[row],
                                       rtol=1e-12, atol=1e-12)
        assert whole_items.shape == (queries.shape[0], k)
        assert whole_scores.shape == (queries.shape[0], k)

    def test_recall_improves_with_nprobe(self, index_setup):
        table, masked, index, queries = index_setup
        exact = exact_reference(table, masked, queries, 10)
        from repro.eval import recall_against_oracle

        recalls = []
        for nprobe in (1, index.num_clusters // 2, index.num_clusters):
            items, _ = index.search(queries, 10, nprobe)
            recalls.append(recall_against_oracle(items, exact))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 1.0

    def test_rejects_bad_queries(self, index_setup):
        _, _, index, queries = index_setup
        with pytest.raises(ValueError, match="k must be"):
            index.search(queries, 0, 1)
        with pytest.raises(ValueError, match="reprs must be"):
            index.search(queries[:, :5], 3, 1)


class TestPlanIntegration:
    @pytest.fixture(scope="class")
    def ann_plan(self):
        model = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                        rng=np.random.default_rng(0))
        return freeze(model, ann=True, ann_seed=5)

    def test_freeze_with_ann_verifies(self, ann_plan):
        assert ann_plan.ann_index is not None
        verify_plan(ann_plan)  # checks the index and searches it

    def test_ann_topk_full_probe_matches_exact(self, ann_plan):
        rng = np.random.default_rng(2)
        reprs = rng.normal(size=(6, DIM))
        items, scores = ann_plan.ann_topk(
            reprs, k=10, nprobe=ann_plan.ann_index.num_clusters)
        expected = topk_from_scores(ann_plan.score(reprs), 10)
        np.testing.assert_array_equal(items, expected)

    def test_plan_without_index_raises(self):
        model = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                        rng=np.random.default_rng(1))
        plan = freeze(model)
        with pytest.raises(ValueError, match="no ANN index"):
            plan.ann_topk(np.zeros((1, DIM)), k=5)

    def test_corrupted_index_fails_verification(self, ann_plan):
        import copy

        broken = copy.deepcopy(ann_plan)
        broken.ann_index.packed_ids = broken.ann_index.packed_ids[:-3]
        with pytest.raises(PlanVerificationError, match="packed_ids"):
            verify_plan(broken)

    def test_attach_rejects_fallback_plans(self):
        from repro.models import SRGNN
        model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(4))
        plan = freeze(model)
        with pytest.raises(ValueError, match="live model graph"):
            attach_ann_index(plan)


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def plans(self):
        model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                       rng=np.random.default_rng(6))
        return freeze(model)

    def test_full_probe_service_matches_exact(self, plans):
        rng = np.random.default_rng(8)
        requests = [(int(rng.integers(1, 50)),
                     list(rng.integers(1, NUM_ITEMS + 1,
                                       size=rng.integers(1, MAX_LEN))))
                    for _ in range(12)]
        attach_ann_index(plans)
        exact = RecommendService(plans, k=5, cache_size=0)
        ann = RecommendService(plans, k=5, cache_size=0, retrieval="ann",
                               nprobe=plans.ann_index.num_clusters)
        for req in requests:
            a, b = exact.recommend(*req), ann.recommend(*req)
            np.testing.assert_array_equal(a.items, b.items)
            np.testing.assert_allclose(np.asarray(b.scores),
                                       np.asarray(a.scores),
                                       rtol=1e-12, atol=1e-12)

    def test_low_nprobe_still_returns_k_items(self, plans):
        ann = RecommendService(plans, k=5, cache_size=0, retrieval="ann",
                               nprobe=1)
        rec = ann.recommend(1, [3, 7, 9])
        assert len(rec.items) <= 5
        assert all(int(i) > 0 for i in rec.items)

    def test_rejects_unknown_retrieval_mode(self, plans):
        with pytest.raises(ValueError, match="retrieval"):
            RecommendService(plans, k=5, retrieval="annoy")
