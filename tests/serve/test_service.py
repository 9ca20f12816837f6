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
        """A broken ``append_items`` must degrade to a full encode *and*
        leave a trace: count + first failure message."""
        service = RecommendService(gru_plan, k=5, padding="tight")
        seq = [3, 7, 9]
        service.recommend(1, seq)
        def broken(states, items):
            raise RuntimeError("kv drift")

        service.plan.append_items = broken
        try:
            rec = service.recommend(1, seq + [2])
        finally:
            del service.plan.append_items      # restore the class method
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


def count_append_calls(monkeypatch, plan, fail_on=None):
    """Record every ``plan.append_items`` batch (its items); with
    ``fail_on`` a batch holding that item raises."""
    calls = []
    original = plan.append_items

    def counted(states, items):
        calls.append(list(items))
        if fail_on is not None and fail_on in list(items):
            raise RuntimeError("poisoned append")
        return original(states, items)

    monkeypatch.setattr(plan, "append_items", counted)
    return calls


def assert_matches(got, want, atol=1e-9):
    for rec, ref in zip(got, want):
        np.testing.assert_array_equal(rec.items, ref.items)
        np.testing.assert_allclose(rec.scores, ref.scores, rtol=0,
                                   atol=atol)


def assert_accounted(stats):
    assert (stats.cache_hits + stats.full_encodes
            + stats.incremental_hits == stats.requests)


class TestBatchedAppend:
    """One ``append_items`` call per flush: ragged KV prefixes, GRU
    slides beside grows, failure isolation inside the batch."""

    def warm(self, service, rng, users, lengths):
        seqs = {user: tuple(int(i) for i in rng.integers(
                    1, NUM_ITEMS + 1, size=length))
                for user, length in zip(users, lengths)}
        service.recommend_many(list(seqs.items()))
        return seqs

    def test_ragged_sasrec_appends_run_in_one_call(self, sasrec_plan,
                                                   monkeypatch):
        rng = np.random.default_rng(30)
        service = RecommendService(sasrec_plan, k=5, padding="tight")
        seqs = self.warm(service, rng, range(1, 9),
                         [1, 2, 3, 4, 6, 7, 8, 5])
        calls = count_append_calls(monkeypatch, sasrec_plan)
        grown = [(user, seq + (int(rng.integers(1, NUM_ITEMS + 1)),))
                 for user, seq in seqs.items()]
        results = service.recommend_many(grown)
        assert calls == [[seq[-1] for _, seq in grown]]
        assert all(rec.incremental for rec in results)
        fresh = RecommendService(sasrec_plan, k=5, padding="tight",
                                 cache_size=0)
        assert_matches(results, fresh.recommend_many(grown))
        assert service.stats.incremental_hits == len(grown)
        assert_accounted(service.stats)
        # The advanced states chain: a second grow batches again.
        again = [(user, seq + (3,)) for user, seq in grown]
        assert all(rec.incremental
                   for rec in service.recommend_many(again))
        assert len(calls) == 2
        assert_matches(service.recommend_many(again),
                       fresh.recommend_many(again))

    def test_gru_slides_mixed_with_grows(self, gru_plan, monkeypatch):
        from repro.data.batching import pad_sequences
        from repro.serve import topk_from_scores

        rng = np.random.default_rng(31)
        service = RecommendService(gru_plan, k=5, padding="tight")
        seqs = self.warm(service, rng, [1, 2, 3, 4],
                         [MAX_LEN, 3, MAX_LEN, 5])
        calls = count_append_calls(monkeypatch, gru_plan)
        nxt = {user: int(rng.integers(1, NUM_ITEMS + 1)) for user in seqs}
        requests = [(user, (seq + (nxt[user],))[-MAX_LEN:])
                    for user, seq in seqs.items()]
        results = service.recommend_many(requests)
        assert len(calls) == 1 and len(calls[0]) == 4
        assert all(rec.incremental for rec in results)
        fresh = RecommendService(gru_plan, k=5, padding="tight",
                                 cache_size=0)
        for (user, seq), rec in zip(requests, results):
            if len(seqs[user]) < MAX_LEN:              # a grow
                assert_matches([rec], [fresh.recommend(user, seq)])
                continue
            # A slide tracks the untruncated history.
            full = seqs[user] + (nxt[user],)
            items, mask, _ = pad_sequences([full], max_len=len(full))
            scores = gru_plan.score(gru_plan.encode_tight(items, mask))[0]
            top = topk_from_scores(scores[None], 5)[0]
            np.testing.assert_array_equal(rec.items, top)
            np.testing.assert_allclose(rec.scores, scores[top], rtol=0,
                                       atol=1e-9)
        assert_accounted(service.stats)

    def test_failing_row_degrades_alone(self, sasrec_plan, monkeypatch):
        rng = np.random.default_rng(32)
        service = RecommendService(sasrec_plan, k=5, padding="tight")
        seqs = self.warm(service, rng, range(1, 6), [2, 5, 3, 7, 4])
        poison = NUM_ITEMS                  # only user 3 appends it
        grown = [(user, seq + (poison if user == 3 else 1,))
                 for user, seq in seqs.items()]
        calls = count_append_calls(monkeypatch, sasrec_plan,
                                   fail_on=poison)
        results = service.recommend_many(grown)
        # The batch, then each row alone.
        assert len(calls) == 1 + len(grown)
        assert [rec.incremental for rec in results] == [
            user != 3 for user, _ in grown]
        assert not any(rec.failed for rec in results)
        stats = service.stats
        assert stats.incremental_failures == 1
        assert "poisoned append" in stats.first_incremental_failure
        assert stats.chunk_retries == 1
        fresh = RecommendService(sasrec_plan, k=5, padding="tight",
                                 cache_size=0)
        assert_matches(results, fresh.recommend_many(grown))
        assert_accounted(stats)

    def test_predecessor_in_the_same_flush_is_full_encoded(
            self, sasrec_plan, monkeypatch):
        service = RecommendService(sasrec_plan, k=5, padding="tight")
        service.recommend(1, (4, 5))
        calls = count_append_calls(monkeypatch, sasrec_plan)
        requests = [(1, (4, 5, 6)), (1, (4, 5, 6, 7)), (2, (8, 9)),
                    (2, (8, 9, 1))]
        results = service.recommend_many(requests)
        # Only (1, (4, 5, 6)) had a cached predecessor before the flush.
        assert calls == [[6]]
        assert [rec.incremental for rec in results] == [True, False,
                                                         False, False]
        fresh = RecommendService(sasrec_plan, k=5, padding="tight",
                                 cache_size=0)
        assert_matches(results, fresh.recommend_many(requests))
        assert_accounted(service.stats)
        # The next flush builds on what this one stored.
        assert service.recommend(2, (8, 9, 1, 2)).incremental


class TestAppendItems:
    def tight_states(self, plan, seqs):
        from repro.data.batching import pad_sequences
        items, mask, _ = pad_sequences(seqs, max_len=None)
        return plan.split_states(plan.encode_tight_with_state(items,
                                                              mask)[1])

    def test_one_row_equals_the_unbatched_program_bytewise(self,
                                                           sasrec_plan):
        """B = 1 runs the append program on the cached row unchanged:
        the same bytes as stepping the untrimmed encode state."""
        from repro.data.batching import pad_sequences
        from repro.serve.program import execute

        items, mask, _ = pad_sequences([(3, 4, 5), (6, 7, 8, 9, 1)],
                                       max_len=None)
        _, state = sasrec_plan.encode_tight_with_state(items, mask)
        env = {name: value[0:1] for name, value in
               zip(sasrec_plan.state_names, state)}
        env["item"] = np.array([2])
        env = execute(sasrec_plan.programs["append"], env)
        row = sasrec_plan.split_states(state)[0]
        assert row[0].shape[2] == 3             # trimmed to its length
        rep, (new,) = sasrec_plan.append_items([row], [2])
        assert rep.tobytes() == env["rep"].tobytes()
        for name, value in zip(sasrec_plan.state_names, new):
            assert value.tobytes() == env[name].tobytes(), name

    @pytest.mark.parametrize("plan_name", ["sasrec_plan", "gru_plan"])
    def test_batch_matches_rows_appended_alone(self, plan_name, request):
        plan = request.getfixturevalue(plan_name)
        seqs = [(3,), (4, 5, 6, 7), (8, 9), (1, 2, 3, 4, 5, 6, 7)]
        states = self.tight_states(plan, seqs)
        items = [11, 12, 13, 14]
        reps, grown = plan.append_items(states, items)
        assert reps.shape == (len(seqs), DIM)
        for j, (state, item) in enumerate(zip(states, items)):
            rep, (alone,) = plan.append_items([state], [item])
            np.testing.assert_allclose(reps[j], rep[0], rtol=0, atol=1e-12)
            for got, want in zip(grown[j], alone):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
