"""ClusterService: sharded routing, bitwise merge parity with the
single-process service, worker-kill recovery, and stats accounting."""

import numpy as np
import pytest

from repro.models import GRU4Rec, SASRec, SRGNN
from repro.resilience import SERVE_WORKER_SITE, Fault, FaultPlan
from repro.serve import (ClusterService, RecommendService, Router, freeze,
                         shard_of)
from repro.serve.router import Router as RouterDirect

DIM = 16
MAX_LEN = 10
NUM_ITEMS = 40


@pytest.fixture(scope="module")
def sasrec_plan():
    model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                   rng=np.random.default_rng(0))
    return freeze(model)


@pytest.fixture(scope="module")
def gru_plan():
    model = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                    rng=np.random.default_rng(1))
    return freeze(model)


def random_requests(rng, count, min_len=1, max_len=MAX_LEN):
    return [(int(rng.integers(1, 100)),
             tuple(int(x) for x in
                   rng.integers(1, NUM_ITEMS + 1,
                                size=rng.integers(min_len, max_len + 1))))
            for _ in range(count)]


class TestRouter:
    def test_shard_is_deterministic_and_in_range(self):
        for user in (0, 1, 17, 2**40, -3):
            first = shard_of(user, (1, 2), 4)
            assert first == shard_of(user, (9, 9, 9), 4)  # user key only
            assert 0 <= first < 4

    def test_anonymous_requests_route_by_sequence(self):
        a = shard_of(None, (1, 2, 3), 8)
        b = shard_of(None, (1, 2, 3), 8)
        assert a == b
        assert 0 <= a < 8

    def test_partition_preserves_arrival_order(self):
        rng = np.random.default_rng(2)
        requests = random_requests(rng, 50)
        groups = Router(4).partition(requests)
        covered = sorted(i for idx in groups.values() for i in idx)
        assert covered == list(range(len(requests)))
        for shard, indices in groups.items():
            assert indices == sorted(indices)          # arrival order
            for i in indices:
                assert shard_of(requests[i][0], requests[i][1], 4) == shard

    def test_scatter_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            RouterDirect.scatter([None] * 3, [0, 1], ["only-one"])

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            Router(0)
        with pytest.raises(ValueError):
            shard_of(1, (2,), 0)


class TestClusterParity:
    def test_bitwise_identical_to_single_service_per_shard(self,
                                                           sasrec_plan):
        """The acceptance bar: for the same per-shard micro-batches the
        cluster is bitwise transparent — IPC serialization and the
        arrival-order merge change nothing, ties included."""
        rng = np.random.default_rng(3)
        requests = random_requests(rng, 48)
        with ClusterService(sasrec_plan, num_workers=4, k=5,
                            cache_size=0) as cluster:
            actual = cluster.recommend_many(requests)

        router = Router(4)
        groups = router.partition(requests)
        reference = [None] * len(requests)
        service = RecommendService(sasrec_plan, k=5, cache_size=0)
        for shard in sorted(groups):
            indices = groups[shard]
            Router.scatter(reference, indices,
                           service.recommend_many([requests[i]
                                                   for i in indices]))
        for got, want in zip(actual, reference):
            assert not got.failed
            assert got.user == want.user
            np.testing.assert_array_equal(got.items, want.items)
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_full_stream_matches_unsharded_service(self, sasrec_plan):
        """Against a plain unsharded service the batch compositions
        differ, so scores are compared to BLAS reduction tolerance."""
        rng = np.random.default_rng(4)
        requests = random_requests(rng, 24)
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            cache_size=0) as cluster:
            actual = cluster.recommend_many(requests)
        single = RecommendService(sasrec_plan, k=5, cache_size=0)
        for req, got in zip(requests, actual):
            want = single.recommend(*req)
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_allclose(got.scores, want.scores, atol=1e-9)

    def test_ann_cluster_matches_single_ann_service(self, sasrec_plan):
        """ANN retrieval rides the spool: the index is built once before
        spooling, so every worker probes identical clusters and the
        sharded stream reproduces the single-process ANN service."""
        from repro.serve import attach_ann_index

        attach_ann_index(sasrec_plan)
        nprobe = sasrec_plan.ann_index.num_clusters
        rng = np.random.default_rng(11)
        requests = random_requests(rng, 16)
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            cache_size=0, retrieval="ann",
                            nprobe=nprobe) as cluster:
            actual = cluster.recommend_many(requests)
        single = RecommendService(sasrec_plan, k=5, cache_size=0,
                                  retrieval="ann", nprobe=nprobe)
        for req, got in zip(requests, actual):
            want = single.recommend(*req)
            np.testing.assert_array_equal(got.items, want.items)
            np.testing.assert_allclose(got.scores, want.scores, atol=1e-9)

    def test_quantized_spool_round_trips_through_workers(self,
                                                         sasrec_plan):
        """``quantize_spool="fp16"`` ships a compact plan; workers
        dequantize + re-verify on load and still answer every request
        (fp16 noise is far below the top-5 separation at this scale)."""
        requests = random_requests(np.random.default_rng(12), 8)
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            cache_size=0,
                            quantize_spool="fp16") as cluster:
            results = cluster.recommend_many(requests)
        assert [r.user for r in results] == [u for u, _ in requests]
        assert all(len(r.items) == 5 for r in results)

    def test_single_worker_cluster_degenerates_cleanly(self, sasrec_plan):
        requests = random_requests(np.random.default_rng(5), 8)
        with ClusterService(sasrec_plan, num_workers=1, k=5,
                            cache_size=0) as cluster:
            results = cluster.recommend_many(requests)
        assert [r.user for r in results] == [u for u, _ in requests]

    def test_shard_cache_and_incremental_survive_flushes(self, gru_plan):
        """A user's LRU entry and GRU hidden state live on one worker:
        an exact repeat is a cache hit there, an append is incremental,
        and the front-end surfaces both flags."""
        with ClusterService(gru_plan, num_workers=2, k=5,
                            padding="tight") as cluster:
            first = cluster.recommend(7, (3, 1, 4))
            repeat = cluster.recommend(7, (3, 1, 4))
            extended = cluster.recommend(7, (3, 1, 4, 2))
            assert not first.from_cache
            assert repeat.from_cache
            assert extended.incremental
            per_worker = cluster.worker_stats()
            assert sum(s["cache_hits"] for s in per_worker.values()) == 1
            assert sum(s["incremental_hits"]
                       for s in per_worker.values()) == 1


class TestValidation:
    def test_rejects_fallback_plan(self):
        model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match="fallback"):
            ClusterService(model, num_workers=2)

    def test_rejects_bad_parameters(self, sasrec_plan):
        with pytest.raises(ValueError):
            ClusterService(sasrec_plan, num_workers=0)
        with pytest.raises(ValueError):
            ClusterService(sasrec_plan, k=0)
        with pytest.raises(ValueError):
            ClusterService(sasrec_plan, padding="sideways")
        from repro.models import Caser
        caser = Caser(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(9))
        with pytest.raises(ValueError):
            ClusterService(caser, padding="tight")  # width-sensitive

    def test_rejects_empty_sequence(self, sasrec_plan):
        with ClusterService(sasrec_plan, num_workers=2) as cluster:
            with pytest.raises(ValueError):
                cluster.enqueue(1, [])

    def test_flush_after_close_raises(self, sasrec_plan):
        cluster = ClusterService(sasrec_plan, num_workers=1)
        cluster.close()
        cluster.close()                                 # idempotent
        with pytest.raises(RuntimeError):
            cluster.flush()


class TestChaos:
    def test_hard_killed_worker_is_revived_and_batch_rerouted(
            self, sasrec_plan):
        rng = np.random.default_rng(7)
        requests = random_requests(rng, 120)
        kill = FaultPlan([Fault(site=SERVE_WORKER_SITE, action="kill",
                                hit=2, hard=True)])
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            worker_fault_plans={0: kill.to_json()}
                            ) as cluster:
            answered = []
            for at in range(0, len(requests), 30):
                answered.extend(cluster.recommend_many(
                    requests[at:at + 30]))
            assert len(answered) == len(requests)       # zero dropped
            assert not any(r.failed for r in answered)
            assert cluster.stats.worker_restarts == 1
            assert cluster.stats.rerouted_requests > 0
            # The respawned worker keeps serving correct results.
            reference = RecommendService(sasrec_plan, k=5, cache_size=0)
            probe = requests[0]
            np.testing.assert_array_equal(
                cluster.recommend(*probe).items,
                reference.recommend(*probe).items)

    def test_worker_exception_surfaces_as_error_results(self,
                                                        sasrec_plan):
        rng = np.random.default_rng(8)
        requests = random_requests(rng, 40)
        boom = FaultPlan([Fault(site=SERVE_WORKER_SITE, action="raise",
                                count=1000)])
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            worker_fault_plans={1: boom.to_json()}
                            ) as cluster:
            results = cluster.recommend_many(requests)
            assert len(results) == len(requests)
            failed = [r for r in results if r.failed]
            healthy = [r for r in results if not r.failed]
            assert failed and healthy                   # shard isolation
            assert all(r.error.startswith("shard worker:")
                       for r in failed)
            assert cluster.stats.errors == len(failed)
            assert cluster.stats.worker_restarts == 0   # it never died

    def test_kill_worker_helper_triggers_revival(self, sasrec_plan):
        requests = random_requests(np.random.default_rng(9), 20)
        with ClusterService(sasrec_plan, num_workers=2, k=5) as cluster:
            cluster.recommend_many(requests[:10])
            cluster.kill_worker(0)
            results = cluster.recommend_many(requests[10:])
            assert len(results) == 10
            assert not any(r.failed for r in results)
            assert cluster.stats.worker_restarts >= 1


class TestStats:
    def test_front_end_accounting(self, sasrec_plan):
        rng = np.random.default_rng(10)
        requests = random_requests(rng, 30)
        with ClusterService(sasrec_plan, num_workers=4, k=5) as cluster:
            cluster.recommend_many(requests[:20])
            cluster.recommend_many(requests[20:])
            stats = cluster.stats
            assert stats.requests == 30
            assert stats.flushes == 2
            assert sum(stats.shard_requests.values()) == 30
            assert stats.dispatches >= len(stats.shard_requests)
            payload = stats.as_dict()
            assert payload["requests"] == 30
            per_worker = cluster.worker_stats()
            assert set(per_worker) == {0, 1, 2, 3}
            served = sum(s["requests"] for s in per_worker.values()
                         if s is not None)
            assert served == 30


class TestPlanHotSwap:
    """Two-phase swap protocol: prepare/commit over the versioned spool,
    chaos-tested at every swap fault site (satellite of the online
    learning PR)."""

    @pytest.fixture(scope="class")
    def new_plan(self):
        model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                       rng=np.random.default_rng(11))
        return freeze(model)

    @staticmethod
    def _shard_reference(plan, requests, num_workers, k=5):
        """Cold single-process service fed the same per-shard batches."""
        groups = Router(num_workers).partition(requests)
        reference = [None] * len(requests)
        service = RecommendService(plan, k=k, cache_size=0)
        for shard in sorted(groups):
            indices = groups[shard]
            Router.scatter(reference, indices,
                           service.recommend_many([requests[i]
                                                   for i in indices]))
        return reference

    def test_swap_bitwise_parity_with_cold_service(self, sasrec_plan,
                                                   new_plan):
        requests = random_requests(np.random.default_rng(12), 16)
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            cache_size=0) as cluster:
            cluster.recommend_many(requests)
            version = cluster.swap_plan(new_plan)
            assert version == 1
            assert cluster.stats.plan_swaps == 1
            got = cluster.recommend_many(requests)
            want = self._shard_reference(new_plan, requests, 2)
            for g, w in zip(got, want):
                assert not g.failed
                np.testing.assert_array_equal(g.items, w.items)
                assert g.scores.tobytes() == w.scores.tobytes()

    def test_every_shard_prepares_before_the_first_ack_is_read(
            self, sasrec_plan, new_plan, monkeypatch):
        """The workers load and verify the new spool in parallel: when
        the front-end reads its first prepare ack, every worker has
        already received its prepare (and answers without being sent
        anything more)."""
        with ClusterService(sasrec_plan, num_workers=3, k=5,
                            cache_size=0) as cluster:
            cluster.recommend_many(random_requests(
                np.random.default_rng(17), 6))
            reply = cluster._swap_reply
            answered = []

            def first_read_sees_all(worker, swap_id):
                if not answered:
                    answered.extend(w.conn.poll(30.0)
                                    for w in cluster._workers)
                return reply(worker, swap_id)

            monkeypatch.setattr(cluster, "_swap_reply", first_read_sees_all)
            assert cluster.swap_plan(new_plan) == 1
            assert answered == [True, True, True]

    def test_corrupt_spool_aborts_and_keeps_old_plan(self, sasrec_plan,
                                                     new_plan):
        from repro.resilience import active_plan
        from repro.serve import PlanSwapError
        requests = random_requests(np.random.default_rng(13), 12)
        with ClusterService(sasrec_plan, num_workers=2, k=5,
                            cache_size=0) as cluster:
            FaultPlan([Fault(site="serve.swap.spool",
                             action="corrupt")]).arm()
            try:
                with pytest.raises(PlanSwapError):
                    cluster.swap_plan(new_plan)
            finally:
                armed = active_plan()
                if armed is not None:
                    armed.disarm()
            assert cluster.stats.plan_swaps == 0
            got = cluster.recommend_many(requests)
            want = self._shard_reference(sasrec_plan, requests, 2)
            for g, w in zip(got, want):
                assert not g.failed
                assert g.scores.tobytes() == w.scores.tobytes()

    def test_worker_killed_at_prepare_is_revived_and_swap_lands(
            self, sasrec_plan, new_plan):
        from repro.resilience import SWAP_PREPARE_SITE
        kill = FaultPlan([Fault(site=SWAP_PREPARE_SITE, action="kill",
                                hard=True)])
        requests = random_requests(np.random.default_rng(14), 12)
        with ClusterService(sasrec_plan, num_workers=2, k=5, cache_size=0,
                            worker_fault_plans={0: kill.to_json()}
                            ) as cluster:
            cluster.recommend_many(requests)
            assert cluster.swap_plan(new_plan) == 1
            assert cluster.stats.worker_restarts == 1
            got = cluster.recommend_many(requests)
            want = self._shard_reference(new_plan, requests, 2)
            for g, w in zip(got, want):
                assert not g.failed
                assert g.scores.tobytes() == w.scores.tobytes()

    def test_worker_killed_at_commit_converges_on_new_plan(
            self, sasrec_plan, new_plan):
        from repro.resilience import SWAP_COMMIT_SITE
        kill = FaultPlan([Fault(site=SWAP_COMMIT_SITE, action="kill",
                                hard=True)])
        requests = random_requests(np.random.default_rng(15), 12)
        with ClusterService(sasrec_plan, num_workers=2, k=5, cache_size=0,
                            worker_fault_plans={1: kill.to_json()}
                            ) as cluster:
            cluster.recommend_many(requests)
            assert cluster.swap_plan(new_plan) == 1
            assert cluster.stats.worker_restarts == 1
            got = cluster.recommend_many(requests)
            want = self._shard_reference(new_plan, requests, 2)
            for g, w in zip(got, want):
                assert not g.failed
                assert g.scores.tobytes() == w.scores.tobytes()

    def test_swap_rejects_incompatible_plan(self, sasrec_plan):
        srgnn = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(16))
        with ClusterService(sasrec_plan, num_workers=1, k=5) as cluster:
            with pytest.raises(ValueError, match="fallback"):
                cluster.swap_plan(srgnn)
            assert cluster.stats.plan_swaps == 0
            assert not cluster.recommend(1, [2, 3]).failed
