"""``FrozenPlan.topk``: the certified float32 score-and-select path.

Every case compares against the float64 oracle the plan already has,
``topk_from_scores(plan.score(reprs))``: ids exactly, scores within
1e-12.  (The guarantee allows items whose float64 scores lie within
float64 rounding of each other in either order; exact ties, as between
duplicate rows, always order by id, and no case holds closer distinct
scores.)  Each fixture also pins which rows the certificate covers, so a
case meant for the float32 path cannot pass through the fallback.
"""

import numpy as np
import pytest

from repro.data.dataset import PAD_ID
from repro.models import BERT4Rec, GRU4Rec, SASRec
from repro.serve import RecommendService, freeze, topk_from_scores
from repro.serve.plan import FrozenPlan
from repro.serve.retrieval import CHUNK

K = 10
DIM = 32
VOCAB = 24 * CHUNK + 37                   # not a multiple of the chunk width


def table_plan(table, masked_columns=(PAD_ID,)):
    """A bare plan (score program + float32 table) over ``table``."""
    return FrozenPlan(np.asarray(table, dtype=np.float64), max_len=10,
                      masked_columns=masked_columns)


def check(plan, reprs, k=K, certified=True):
    """``plan.topk`` equals the float64 oracle; ``certified`` is the
    expected per-row coverage of the float32 path (a bool or a mask)."""
    reprs = np.asarray(reprs, dtype=np.float64)
    scores = plan.score(reprs)
    want = topk_from_scores(scores, k)
    top, values = plan.topk(reprs, k)
    np.testing.assert_array_equal(top, want)
    # Absolute 1e-12, relative at the 1e30+ magnitudes some cases use.
    np.testing.assert_allclose(values, np.take_along_axis(scores, want, 1),
                               rtol=1e-12, atol=1e-12)
    if plan.certifies(k):
        covered = plan.table32.topk(reprs, min(k, plan.vocab_size))[2]
        np.testing.assert_array_equal(
            covered, np.broadcast_to(certified, covered.shape))
    else:
        assert certified is False
    return top, values


class TestCertifiedOracle:
    def test_serving_shape(self):
        rng = np.random.default_rng(0)
        plan = table_plan(rng.normal(size=(30001, DIM)) * 0.1)
        assert plan.certifies(K)
        for rows in (1, 32):
            check(plan, rng.normal(size=(rows, DIM)))

    @pytest.mark.parametrize("seed", range(12))
    def test_duplicate_rows_tie_across_chunk_edges(self, seed):
        """Copies of one item row score exactly alike wherever they sit;
        a copy group straddling chunk edges must come back lowest ids
        first, also when the K-th boundary falls inside it."""
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(VOCAB, DIM)) * 0.1
        query = rng.normal(size=DIM)
        edges = rng.choice(np.arange(1, VOCAB // CHUNK), size=3,
                           replace=False) * CHUNK
        group = np.concatenate([np.arange(e - 3, e + 3) for e in edges])
        # The copies tie with the ``lead``-th best item, so the tie
        # group runs from position ``<= lead`` past the K-th.
        lead = int(rng.integers(0, K))
        table[group] = table[np.argsort(-(table @ query))[lead]]
        reprs = np.stack([query, -query, query * 3.0])
        _, values = check(table_plan(table), reprs)
        assert values[0, K - 1] == values[0, lead]

    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_below_float32_resolution(self, seed):
        """Hundreds of unrelated item rows whose float64 scores differ by
        less than their float32 rounding: float32 scrambles their order,
        so the true top-K is found only through the certificate's error
        band and the float64 re-score."""
        rng = np.random.default_rng(100 + seed)
        table = rng.normal(size=(VOCAB, DIM)) * 0.01
        query = rng.normal(size=DIM)
        group = rng.choice(VOCAB, size=400, replace=False)
        rows = rng.normal(size=(group.size, DIM))
        # Project out the query direction, then score 1 + tiny spread.
        rows -= np.outer(rows @ query, query) / (query @ query)
        score = 1.0 + rng.uniform(0, 4e-6, size=group.size)
        table[group] = rows + np.outer(score, query) / (query @ query)
        reprs = np.stack([query, query * 0.5])
        top, _ = check(table_plan(table), reprs)
        assert np.isin(top, group).all()

    def test_zero_reprs_and_zero_item_rows(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(VOCAB, DIM))
        table[rng.random(VOCAB) < 0.3] = 0.0
        plan = table_plan(table)
        reprs = rng.normal(size=(4, DIM))
        reprs[1] = 0.0                       # every score ties at 0
        check(plan, reprs)
        zeros = table_plan(np.zeros((VOCAB, DIM)))
        top, values = check(zeros, reprs)
        np.testing.assert_array_equal(top, np.tile(np.arange(1, K + 1),
                                                   (4, 1)))
        assert not values.any()

    def test_masked_columns(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(VOCAB, DIM))
        masked = (0, 5, CHUNK, VOCAB - 1)
        query = rng.normal(size=DIM)
        # The masked rows would otherwise be the best items.
        table[list(masked)] = query * 10.0
        top, _ = check(table_plan(table, masked), np.stack([query,
                                                            -query]))
        assert not np.isin(top, masked).any()

    def test_best_items_in_the_tail(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(VOCAB, DIM)) * 0.1
        query = rng.normal(size=DIM)
        tail = np.arange(VOCAB // CHUNK * CHUNK, VOCAB)
        table[tail[::3]] = query * rng.uniform(1, 2, size=(tail[::3].size,
                                                           1))
        top, _ = check(table_plan(table), query[None])
        assert np.isin(top, tail).all()

    def test_fewer_than_k_chunks_take_the_float64_path(self):
        rng = np.random.default_rng(4)
        for vocab in ((K - 1) * CHUNK + 200, 1301):
            plan = table_plan(rng.normal(size=(vocab, DIM)))
            assert not plan.certifies(K)
            check(plan, rng.normal(size=(3, DIM)), certified=False)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)))
        assert plan.certifies(VOCAB // CHUNK)
        assert not plan.certifies(VOCAB // CHUNK + 1)

    def test_non_finite_reprs_take_the_float64_path(self):
        rng = np.random.default_rng(5)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)))
        reprs = rng.normal(size=(5, DIM))
        reprs[1, 3] = np.nan
        reprs[2, 0] = np.inf
        reprs[3, 7] = -np.inf
        with np.errstate(invalid="ignore"):
            check(plan, reprs, certified=[True, False, False, False, True])

    def test_float32_overflowing_norms_take_the_float64_path(self):
        rng = np.random.default_rng(6)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)))
        reprs = rng.normal(size=(3, DIM))
        reprs[0] *= 1e37                     # float32 products overflow
        reprs[2] *= 1e30                     # large, still certified
        check(plan, reprs, certified=[False, True, True])
        huge = table_plan(rng.normal(size=(VOCAB, DIM)) * 1e38)
        assert not huge.certifies(K)
        check(huge, reprs[1:2], certified=False)

    def test_tiny_magnitudes_near_float32_underflow(self):
        rng = np.random.default_rng(7)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)) * 1e-20)
        check(plan, rng.normal(size=(3, DIM)) * 1e-25)

    def test_k_clamps_and_zero_rows(self):
        rng = np.random.default_rng(8)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)))
        check(plan, rng.normal(size=(2, DIM)), k=1)
        check(plan, rng.normal(size=(2, DIM)), k=VOCAB // CHUNK)
        top, values = plan.topk(np.empty((0, DIM)), K)
        assert top.shape == values.shape == (0, K)

    def test_reused_float32_buffer(self):
        rng = np.random.default_rng(9)
        plan = table_plan(rng.normal(size=(VOCAB, DIM)))
        reprs = rng.normal(size=(6, DIM))
        buffer = np.empty((8, VOCAB), dtype=np.float32)
        want = plan.topk(reprs, K)
        for _ in range(2):
            got = plan.topk(reprs, K, out=buffer[:6])
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("model_cls", [SASRec, GRU4Rec, BERT4Rec])
def test_frozen_plans_select_the_oracle_top_k(model_cls):
    """Real plans over catalogs of more than K chunks, including
    BERT4Rec's masked ``[MASK]`` column."""
    model = model_cls(num_items=12 * CHUNK, dim=16, max_len=8,
                      rng=np.random.default_rng(10))
    plan = freeze(model)
    assert plan.certifies(K)
    rng = np.random.default_rng(11)
    items = rng.integers(1, 12 * CHUNK + 1, size=(31, 8))
    reprs = plan.encode(items)
    check(plan, reprs)
    check(plan, reprs[:1])


@pytest.mark.parametrize("rows", [1, 31])
def test_served_sasrec_matches_graph_logits(rows):
    """End to end on the certified path: a frozen SASRec serves the ids
    ``topk_from_scores`` picks from the graph model's logits, with
    scores within 1e-12 of those logits."""
    from repro.data.batching import pad_sequences
    from repro.nn import no_grad

    model = SASRec(num_items=12 * CHUNK, dim=16, max_len=10,
                   rng=np.random.default_rng(12))
    service = RecommendService(model, k=K, cache_size=0)
    assert service.plan.certifies(K)
    rng = np.random.default_rng(13 + rows)
    requests = [(user, list(rng.integers(1, 12 * CHUNK + 1,
                                         size=rng.integers(1, 11))))
                for user in range(rows)]
    served = service.recommend_many(requests)
    items, mask, _ = pad_sequences([seq for _, seq in requests],
                                   max_len=10)
    model.eval()
    with no_grad():
        logits = model.forward(items, mask).data
    want = topk_from_scores(logits, K)
    for row, rec in enumerate(served):
        np.testing.assert_array_equal(rec.items, want[row])
        np.testing.assert_allclose(rec.scores, logits[row, want[row]],
                                   rtol=0, atol=1e-12)
