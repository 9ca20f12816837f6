"""RecommendService: micro-batching, LRU cache, incremental append,
and failure isolation under injected encode/score/forward faults."""

import numpy as np
import pytest

from repro.models import GRU4Rec, SASRec, SRGNN
from repro.resilience import Fault, FaultPlan, SimulatedCrash
from repro.serve import RecommendService, freeze

DIM = 16
MAX_LEN = 10
NUM_ITEMS = 40


@pytest.fixture(scope="module")
def gru_plan():
    model = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                    rng=np.random.default_rng(0))
    return freeze(model)


@pytest.fixture(scope="module")
def sasrec_plan():
    model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                   rng=np.random.default_rng(1))
    return freeze(model)


def random_requests(rng, count, min_len=1, max_len=MAX_LEN):
    return [(int(rng.integers(1, 100)),
             list(rng.integers(1, NUM_ITEMS + 1,
                               size=rng.integers(min_len, max_len + 1))))
            for _ in range(count)]


class TestBatchingEquivalence:
    def test_batched_equals_single(self, sasrec_plan):
        rng = np.random.default_rng(2)
        requests = random_requests(rng, 9)
        batched = RecommendService(sasrec_plan, k=5, cache_size=0,
                                   max_batch=4)
        single = RecommendService(sasrec_plan, k=5, cache_size=0)
        many = batched.recommend_many(requests)
        assert batched.stats.batches == 3  # ceil(9 / 4)
        for req, rec in zip(requests, many):
            alone = single.recommend(*req)
            np.testing.assert_array_equal(rec.items, alone.items)
            np.testing.assert_allclose(rec.scores, alone.scores, atol=1e-9)

    def test_matches_graph_model_topk(self):
        from repro.data.batching import pad_sequences
        from repro.nn import no_grad
        from repro.serve import topk_from_scores

        model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                       rng=np.random.default_rng(3))
        service = RecommendService(model, k=5)   # freezes internally
        seq = [3, 7, 9, 2]
        rec = service.recommend(11, seq)
        items, mask, _ = pad_sequences([seq], max_len=MAX_LEN)
        model.eval()
        with no_grad():
            logits = model.forward(items, mask).data
        np.testing.assert_array_equal(rec.items,
                                      topk_from_scores(logits, 5)[0])

    def test_fallback_plan_served(self):
        model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(4))
        service = RecommendService(model, k=4)
        recs = service.recommend_many(random_requests(
            np.random.default_rng(5), 5, min_len=2))
        assert len(recs) == 5
        assert all(len(r.items) == 4 for r in recs)

    def test_rejects_empty_sequence(self, gru_plan):
        with pytest.raises(ValueError):
            RecommendService(gru_plan).enqueue(1, [])


class TestScoreBuffer:
    def test_reused_buffer_never_leaks_into_earlier_results(self,
                                                            sasrec_plan):
        """Flushes score into one reused buffer; what a flush returned
        stays intact after later flushes of other sizes, and equals a
        plan forward of its own."""
        rng = np.random.default_rng(21)
        service = RecommendService(sasrec_plan, k=5, cache_size=0)
        batches = [random_requests(rng, size) for size in (6, 2, 9, 4)]
        answers, kept = [], []
        for batch in batches:
            answer = service.recommend_many(batch)
            answers.append(answer)
            kept.append([rec.scores.copy() for rec in answer])
        for answer, copies in zip(answers, kept):
            for rec, scores in zip(answer, copies):
                assert rec.scores.tobytes() == scores.tobytes()
        fresh = RecommendService(sasrec_plan, k=5, cache_size=0)
        for batch, answer in zip(batches, answers):
            for rec, alone in zip(answer, fresh.recommend_many(batch)):
                np.testing.assert_array_equal(rec.items, alone.items)
                assert rec.scores.tobytes() == alone.scores.tobytes()


class TestCache:
    def test_exact_repeat_hits_cache(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5)
        first = service.recommend(1, [2, 3, 4])
        again = service.recommend(1, [2, 3, 4])
        assert not first.from_cache and again.from_cache
        assert service.stats.cache_hits == 1
        assert service.stats.full_encodes == 1
        np.testing.assert_array_equal(first.items, again.items)

    def test_same_sequence_different_user_misses(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5)
        service.recommend(1, [2, 3, 4])
        other = service.recommend(2, [2, 3, 4])
        assert not other.from_cache

    def test_divergent_sequence_misses(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5)
        service.recommend(1, [2, 3, 4])
        diverged = service.recommend(1, [2, 3, 5])
        assert not diverged.from_cache and not diverged.incremental
        assert service.stats.full_encodes == 2

    def test_lru_eviction(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5, cache_size=2)
        service.recommend(1, [2])
        service.recommend(2, [3])
        service.recommend(1, [2])        # refresh user 1 -> user 2 is LRU
        service.recommend(3, [4])        # evicts user 2
        assert service.stats.evictions == 1
        assert service.recommend(1, [2]).from_cache
        assert not service.recommend(2, [3]).from_cache

    def test_cache_disabled(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5, cache_size=0)
        service.recommend(1, [2, 3])
        assert not service.recommend(1, [2, 3]).from_cache
        assert service.stats.cache_hits == 0


class TestIncrementalAppend:
    def test_append_one_item_is_incremental_and_exact(self, gru_plan):
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = [3, 7, 9]
        service.recommend(1, seq)
        extended = service.recommend(1, seq + [2])
        assert extended.incremental
        assert service.stats.incremental_hits == 1

        fresh = RecommendService(gru_plan, k=5, padding="tight",
                                 cache_size=0)
        full = fresh.recommend(1, seq + [2])
        assert not full.incremental
        np.testing.assert_array_equal(extended.items, full.items)
        np.testing.assert_allclose(extended.scores, full.scores, atol=1e-9)

    def test_chained_appends(self, gru_plan):
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = [4, 8]
        service.recommend(2, seq)
        for item in (1, 5, 9):
            seq = seq + [item]
            assert service.recommend(2, seq).incremental
        assert service.stats.incremental_hits == 3

    def test_divergence_forces_full_encode(self, gru_plan):
        service = RecommendService(gru_plan, k=5, padding="tight")
        service.recommend(1, [3, 7])
        rec = service.recommend(1, [3, 8, 2])  # prefix [3, 8] not cached
        assert not rec.incremental
        assert service.stats.incremental_hits == 0

    def test_window_slide_stays_incremental_across_rollover(self,
                                                            gru_plan):
        """Regression (long-session bug): appending past max_len shifts
        the window, so the ``(user, seq[:-1])`` cache key can never
        match — the per-user rolling state must keep the cheap path
        alive.  A slid hit advances the full-history recurrence, so its
        result matches encoding the *untruncated* sequence."""
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = list(range(1, MAX_LEN + 1))       # exactly max_len items
        service.recommend(1, seq)
        slid = service.recommend(1, seq + [11])  # window drops seq[0]
        assert slid.incremental
        assert service.stats.incremental_hits > 0
        # parity: the rolled state tracks the full (untruncated) history
        from repro.data.batching import pad_sequences
        items, mask, _ = pad_sequences([seq + [11]],
                                       max_len=MAX_LEN + 1)
        rep = gru_plan.encode_tight(items, mask)
        expected_scores = gru_plan.score(rep)[0]
        from repro.serve import topk_from_scores
        expected_top = topk_from_scores(expected_scores[None], 5)[0]
        np.testing.assert_array_equal(slid.items, expected_top)
        np.testing.assert_allclose(
            slid.scores, expected_scores[expected_top], atol=1e-9)

    def test_rollover_incremental_hits_survive_many_appends(self,
                                                            gru_plan):
        """Every append after the first stays incremental, even once the
        window is saturated and truncation re-keys the cache."""
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = [1, 2]
        service.recommend(1, seq)
        for item in range(3, MAX_LEN + 6):      # grows well past max_len
            seq = seq + [item]
            assert service.recommend(1, seq).incremental
        assert service.stats.incremental_hits == MAX_LEN + 3
        assert service.stats.incremental_failures == 0

    def test_attention_kv_rollover_reencodes_but_recovers(self,
                                                          sasrec_plan):
        """KV-prefix state is positional, so a slide at max_len must
        force a full re-encode (stale positions would be wrong) — and
        the re-encoded result must match a cold service exactly."""
        service = RecommendService(sasrec_plan, k=5, padding="tight")
        seq = list(range(1, MAX_LEN + 1))
        service.recommend(1, seq)
        slid = service.recommend(1, seq + [11])
        assert not slid.incremental        # positions cannot slide
        fresh = RecommendService(sasrec_plan, k=5, padding="tight",
                                 cache_size=0)
        expected = fresh.recommend(1, seq + [11])
        np.testing.assert_array_equal(slid.items, expected.items)
        np.testing.assert_allclose(slid.scores, expected.scores,
                                   atol=1e-9)

    def test_attention_incremental_append_is_exact(self, sasrec_plan):
        """SASRec KV-prefix append reaches max_len incrementally and
        matches the cold tight encode."""
        service = RecommendService(sasrec_plan, k=5, padding="tight")
        seq = [3, 7, 9]
        service.recommend(1, seq)
        for item in range(1, MAX_LEN - len(seq) + 1):
            seq = seq + [item]
            rec = service.recommend(1, seq)
            assert rec.incremental
            fresh = RecommendService(sasrec_plan, k=5, padding="tight",
                                     cache_size=0)
            full = fresh.recommend(1, seq)
            np.testing.assert_array_equal(rec.items, full.items)
            np.testing.assert_allclose(rec.scores, full.scores,
                                       atol=1e-9)
        assert len(seq) == MAX_LEN             # reached the window edge
        assert service.stats.incremental_hits == MAX_LEN - 3
        assert service.stats.incremental_failures == 0

    def test_tight_requires_tight_capable_plan(self):
        from repro.models import Caser
        model = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(5))
        with pytest.raises(ValueError):
            RecommendService(model, padding="tight")

    def test_incremental_failure_is_counted_and_recovered(self, gru_plan):
        """A broken ``append_item`` must degrade to a full encode *and*
        leave a trace: count + first failure message."""
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = [3, 7, 9]
        service.recommend(1, seq)
        def broken(state, item):
            raise RuntimeError("kv drift")

        service.plan.append_item = broken
        try:
            rec = service.recommend(1, seq + [2])
        finally:
            del service.plan.append_item       # restore the class method
        assert not rec.failed and not rec.incremental
        assert service.stats.incremental_failures == 1
        assert "kv drift" in service.stats.first_incremental_failure
        stats = service.stats
        assert (stats.cache_hits + stats.full_encodes
                + stats.incremental_hits == stats.requests)

    def test_tight_results_independent_of_queue_width(self, gru_plan):
        """Step-masked tight encoding must give a short sequence the same
        scores whether it is batched alone (no padding) or alongside a
        long sequence (heavy left padding)."""
        short = (1, [3, 7])
        long = (2, list(range(1, MAX_LEN + 1)))
        alone = RecommendService(gru_plan, k=5, padding="tight",
                                 cache_size=0).recommend(*short)
        padded = RecommendService(gru_plan, k=5, padding="tight",
                                  cache_size=0).recommend_many(
            [short, long])[0]
        np.testing.assert_array_equal(alone.items, padded.items)
        np.testing.assert_allclose(alone.scores, padded.scores, atol=1e-12)


class TestCacheAccountingUnderLoad:
    """LRU eviction and from_cache accounting across interleaved
    flushes and the per-request retry path (what the cluster's
    per-shard services run under sustained traffic)."""

    def test_interleaved_flushes_account_every_request(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5, cache_size=8,
                                   max_batch=4)
        hot = [(u, (u, u + 1)) for u in (1, 2, 3)]
        first = service.recommend_many(hot)
        assert [r.from_cache for r in first] == [False, False, False]
        mixed = [hot[0], (7, (9, 9)), hot[1], (8, (6, 2)), hot[2]]
        second = service.recommend_many(mixed)
        assert [r.from_cache for r in second] == [True, False, True,
                                                  False, True]
        stats = service.stats
        assert stats.cache_hits == 3
        assert stats.full_encodes == 5
        assert (stats.cache_hits + stats.full_encodes
                + stats.incremental_hits == stats.requests == 8)

    def test_eviction_under_interleaved_flushes(self, sasrec_plan):
        service = RecommendService(sasrec_plan, k=5, cache_size=2)
        service.recommend_many([(1, (2,)), (2, (3,))])   # cache {1, 2}
        service.recommend_many([(1, (2,)), (3, (4,))])   # hit 1, evict 2
        assert service.stats.evictions == 1
        third = service.recommend_many([(2, (3,)), (1, (2,))])
        assert not third[0].from_cache       # user 2 was the eviction
        assert third[1].from_cache           # user 1 stayed resident
        assert service.stats.evictions == 2  # re-adding 2 evicted 3

    def test_duplicates_in_one_flush_encode_then_hit_later(self,
                                                           sasrec_plan):
        # Two identical requests in one flush both miss (the first's
        # entry is not visible mid-partition) — the accounting must
        # show 2 encodes, and only later repeats become hits.
        service = RecommendService(sasrec_plan, k=5)
        results = service.recommend_many([(1, (2, 3)), (1, (2, 3))])
        assert [r.from_cache for r in results] == [False, False]
        assert service.stats.full_encodes == 2
        assert service.recommend(1, (2, 3)).from_cache
        assert service.stats.cache_hits == 1

    def test_per_request_retry_results_are_cached(self, sasrec_plan):
        requests = [(u, (u, u + 1, u + 2)) for u in range(1, 7)]
        service = RecommendService(sasrec_plan, k=5, max_batch=6)
        with FaultPlan([Fault(site="serve.encode", action="raise")]):
            results = service.recommend_many(requests)
        assert not any(r.failed for r in results)
        assert service.stats.chunk_retries == 1
        assert service.stats.full_encodes == len(requests)
        # The retried encodes landed in the LRU like any batched encode:
        # exact repeats are pure cache hits, no re-encode.
        again = service.recommend_many(requests)
        assert all(r.from_cache for r in again)
        assert service.stats.cache_hits == len(requests)
        assert service.stats.full_encodes == len(requests)

    def test_cached_entries_serve_through_encode_outage(self,
                                                        sasrec_plan):
        service = RecommendService(sasrec_plan, k=5, max_batch=4)
        warm = (1, (2, 3, 4))
        service.recommend(*warm)
        with FaultPlan([Fault(site="serve.encode", action="raise",
                              count=1000)]):
            results = service.recommend_many([warm, (9, (8, 7))])
        assert results[0].from_cache and not results[0].failed
        assert results[1].failed
        assert service.stats.errors == 1


class TestFailureIsolation:
    """Injected faults at serve.encode / serve.score / serve.forward:
    one bad chunk must never take down the whole flush."""

    def test_failing_encode_chunk_recovers_per_request(self, sasrec_plan):
        requests = random_requests(np.random.default_rng(6), 8)
        service = RecommendService(sasrec_plan, k=5, max_batch=4,
                                   cache_size=0)
        with FaultPlan([Fault(site="serve.encode", action="raise")]):
            results = service.recommend_many(requests)
        assert len(results) == len(requests)
        assert not any(r.failed for r in results)
        assert service.stats.chunk_retries == 1
        reference = RecommendService(sasrec_plan, k=5, cache_size=0)
        for req, rec in zip(requests, results):
            expected = reference.recommend(*req)
            np.testing.assert_array_equal(rec.items, expected.items)
            np.testing.assert_allclose(rec.scores, expected.scores,
                                       atol=1e-9)

    def test_persistent_encode_fault_answers_with_errors(self, sasrec_plan):
        requests = random_requests(np.random.default_rng(7), 6)
        service = RecommendService(sasrec_plan, k=5, max_batch=4,
                                   cache_size=0)
        with FaultPlan([Fault(site="serve.encode", action="raise",
                              count=1000)]):
            results = service.recommend_many(requests)
        assert len(results) == len(requests)        # nothing dropped
        assert all(r.failed for r in results)
        assert all("FaultInjected" in r.error for r in results)
        assert all(r.items.size == 0 for r in results)
        assert service.stats.errors == len(requests)
        assert service.flush() == []                # queue was drained
        # Error results are never cached: the same request succeeds
        # once the fault clears.
        healthy = service.recommend(*requests[0])
        assert not healthy.failed

    def test_failing_score_chunk_recovers_per_row(self, sasrec_plan):
        requests = random_requests(np.random.default_rng(8), 5)
        service = RecommendService(sasrec_plan, k=5, cache_size=0)
        with FaultPlan([Fault(site="serve.score", action="raise")]):
            results = service.recommend_many(requests)
        assert not any(r.failed for r in results)
        assert service.stats.chunk_retries == 1
        reference = RecommendService(sasrec_plan, k=5, cache_size=0)
        for req, rec in zip(requests, results):
            np.testing.assert_array_equal(
                rec.items, reference.recommend(*req).items)

    def test_fallback_forward_fault_isolated_and_cached(self):
        model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(9))
        service = RecommendService(model, k=4, max_batch=4)
        requests = random_requests(np.random.default_rng(10), 4, min_len=2)
        with FaultPlan([Fault(site="serve.forward", action="raise")]):
            results = service.recommend_many(requests)
        assert not any(r.failed for r in results)
        assert service.stats.chunk_retries == 1
        # Per-request retry results land in the same LRU as the batched
        # path: an exact repeat is a cache hit.
        again = service.recommend(*requests[0])
        assert again.from_cache
        np.testing.assert_array_equal(again.items, results[0].items)

    def test_escaping_exception_preserves_queue(self, sasrec_plan):
        """SimulatedCrash is a BaseException: it escapes the per-chunk
        containment, and the pending queue must survive for a retry."""
        requests = random_requests(np.random.default_rng(11), 3)
        service = RecommendService(sasrec_plan, k=5, cache_size=0)
        for user, seq in requests:
            service.enqueue(user, seq)
        with FaultPlan([Fault(site="serve.encode", action="kill")]):
            with pytest.raises(SimulatedCrash):
                service.flush()
        retried = service.flush()                   # plan disarmed
        assert len(retried) == len(requests)
        assert not any(r.failed for r in retried)


class TestInProcessSwap:
    """``RecommendService.swap_plan``: in-process hot swap clears the
    caches, recomputes incremental support, and returns the old plan."""

    def test_swap_serves_new_plan_and_returns_old(self, sasrec_plan):
        new = freeze(SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                            rng=np.random.default_rng(20)))
        service = RecommendService(sasrec_plan, k=5)
        before = service.recommend(1, (2, 3, 4))
        previous = service.swap_plan(new)
        assert previous is sasrec_plan
        assert service.stats.plan_swaps == 1
        after = service.recommend(1, (2, 3, 4))
        assert not after.from_cache                 # caches were cleared
        want = RecommendService(new, k=5, cache_size=0).recommend(
            1, (2, 3, 4))
        np.testing.assert_array_equal(after.items, want.items)
        assert after.scores.tobytes() == want.scores.tobytes()
        assert before.scores.tobytes() != after.scores.tobytes()

    def test_swap_rejects_incompatible_tight_plan(self, gru_plan):
        from repro.models import Caser
        service = RecommendService(gru_plan, k=5, padding="tight")
        caser = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(21))
        with pytest.raises(ValueError):
            service.swap_plan(caser)
        assert service.stats.plan_swaps == 0
        assert not service.recommend(1, (2, 3)).failed
