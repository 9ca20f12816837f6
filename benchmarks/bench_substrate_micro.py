"""Micro-benchmarks of the substrate: autograd ops, layers, graph build.

These complement the per-table experiment benchmarks with stable,
repeatable timings of the building blocks — useful for tracking
performance regressions in the ``repro.nn`` framework itself.
"""

import numpy as np
import pytest

from repro.data import generate
from repro.graph import build_multi_relation_graph
from repro.nn import (GRU, LSTM, BiLSTM, Tensor, TransformerEncoder,
                      gumbel_softmax, reference, scaled_dot_product_attention)
from repro.nn import functional as F

RNG = np.random.default_rng(0)


def test_micro_matmul_backward(benchmark):
    a = Tensor(RNG.normal(size=(128, 64)), requires_grad=True)
    b = Tensor(RNG.normal(size=(64, 64)), requires_grad=True)

    def step():
        a.grad = b.grad = None
        ((a @ b).tanh().sum()).backward()

    benchmark(step)
    assert a.grad is not None


def test_micro_softmax_cross_entropy(benchmark):
    logits = Tensor(RNG.normal(size=(256, 500)), requires_grad=True)
    targets = RNG.integers(0, 500, size=256)

    def step():
        logits.grad = None
        F.cross_entropy(logits, targets).backward()

    benchmark(step)


def test_micro_bilstm_forward_backward(benchmark):
    lstm = BiLSTM(32, 32, rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(64, 20, 32)))

    def step():
        lstm.zero_grad()
        left, right = lstm(x)
        (left.sum() + right.sum()).backward()

    benchmark(step)


def test_micro_transformer_forward_backward(benchmark):
    encoder = TransformerEncoder(32, num_layers=2, num_heads=2, dropout=0.0,
                                 rng=np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(64, 20, 32)))

    def step():
        encoder.zero_grad()
        encoder(x).sum().backward()

    benchmark(step)


def test_micro_gumbel_softmax(benchmark):
    logits = Tensor(RNG.normal(size=(256, 300)))
    rng = np.random.default_rng(0)
    benchmark(lambda: gumbel_softmax(logits, tau=0.5, hard=True, rng=rng))


def test_micro_graph_construction(benchmark):
    dataset = generate("beauty", seed=0, scale=0.5)
    graph = benchmark(lambda: build_multi_relation_graph(dataset))
    assert graph.transitional.nnz > 0


# ---------------------------------------------------------------------------
# Fused vs. unfused kernels (PR 1 fusion layer).  Benchmarks sharing a group
# are compared side-by-side by pytest-benchmark; the unfused variants come
# from repro.nn.reference and reproduce the pre-fusion compositions, so each
# group is a before/after measurement of the same workload.
# ``scripts/perf_smoke.py`` runs the same pairs as a regression gate.
# ---------------------------------------------------------------------------

def _attention_inputs():
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    k = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    v = Tensor(rng.normal(size=(64, 50, 32)), requires_grad=True)
    mask = np.tril(np.ones((50, 50), dtype=bool))
    return q, k, v, mask


@pytest.mark.benchmark(group="attention-fwd-bwd")
def test_micro_attention_fused(benchmark):
    q, k, v, mask = _attention_inputs()

    def step():
        q.grad = k.grad = v.grad = None
        scaled_dot_product_attention(q, k, v, attn_mask=mask).sum().backward()

    benchmark(step)
    assert q.grad is not None


@pytest.mark.benchmark(group="attention-fwd-bwd")
def test_micro_attention_unfused(benchmark):
    q, k, v, mask = _attention_inputs()

    def step():
        q.grad = k.grad = v.grad = None
        reference.attention_unfused(q, k, v, attn_mask=mask).sum().backward()

    benchmark(step)


@pytest.mark.benchmark(group="cross-entropy")
def test_micro_cross_entropy_fused(benchmark):
    logits = Tensor(RNG.normal(size=(256, 2000)), requires_grad=True)
    targets = RNG.integers(0, 2000, size=256)

    def step():
        logits.grad = None
        F.cross_entropy(logits, targets).backward()

    benchmark(step)


@pytest.mark.benchmark(group="cross-entropy")
def test_micro_cross_entropy_unfused(benchmark):
    logits = Tensor(RNG.normal(size=(256, 2000)), requires_grad=True)
    targets = RNG.integers(0, 2000, size=256)

    def step():
        logits.grad = None
        reference.cross_entropy_unfused(logits, targets).backward()

    benchmark(step)


@pytest.mark.benchmark(group="lstm-recurrence")
def test_micro_lstm_recurrence_fused(benchmark):
    # The whole 20-step recurrence runs as one lstm_sequence graph node.
    lstm = LSTM(32, 32, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(3).normal(size=(64, 20, 32)),
               requires_grad=True)

    def step():
        lstm.zero_grad()
        x.grad = None
        outs, _ = lstm(x)
        outs.sum().backward()

    benchmark(step)


@pytest.mark.benchmark(group="lstm-recurrence")
def test_micro_lstm_recurrence_unfused(benchmark):
    lstm = LSTM(32, 32, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(3).normal(size=(64, 20, 32)),
               requires_grad=True)
    cell = lstm.cell

    def step():
        lstm.zero_grad()
        x.grad = None
        h = Tensor(np.zeros((64, 32)))
        c = Tensor(np.zeros((64, 32)))
        outs = []
        for t in range(20):
            h, c = reference.lstm_step_unfused(x[:, t, :], h, c, cell.w_ih,
                                               cell.w_hh, cell.bias, 32)
            outs.append(h)
        Tensor.stack(outs, axis=1).sum().backward()

    benchmark(step)


def _gru_training_batch():
    """A ``train-stream``-shaped GRU batch: B = 1024, L = 30, d = 32,
    left-padded with zero inputs, about 30% of positions valid."""
    rng = np.random.default_rng(4)
    lengths = np.clip(rng.geometric(1 / 9, size=1024), 1, 30)
    mask = np.arange(30)[None] >= (30 - lengths)[:, None]
    x = np.where(mask[:, :, None], rng.normal(size=(1024, 30, 32)), 0.0)
    return (GRU(32, 32, rng=np.random.default_rng(0)),
            Tensor(x, requires_grad=True), mask)


def _gru_forward_backward(benchmark, packed):
    gru, x, mask = _gru_training_batch()
    grad = np.random.default_rng(5).normal(size=x.shape)

    def step():
        gru.zero_grad()
        x.grad = None
        outs, _ = gru(x, mask=mask if packed else None)
        outs.backward(grad)

    benchmark(step)


@pytest.mark.benchmark(group="gru-packed")
def test_micro_gru_packed(benchmark):
    # Each row steps from its first valid position; the padding is one
    # shared trajectory.
    _gru_forward_backward(benchmark, packed=True)


@pytest.mark.benchmark(group="gru-packed")
def test_micro_gru_unmasked(benchmark):
    # The same batch with every row stepping through its padding.
    _gru_forward_backward(benchmark, packed=False)


@pytest.mark.benchmark(group="softmax")
def test_micro_softmax_fused(benchmark):
    x = Tensor(RNG.normal(size=(256, 2000)), requires_grad=True)

    def step():
        x.grad = None
        F.softmax(x).sum().backward()

    benchmark(step)


@pytest.mark.benchmark(group="softmax")
def test_micro_softmax_unfused(benchmark):
    x = Tensor(RNG.normal(size=(256, 2000)), requires_grad=True)

    def step():
        x.grad = None
        reference.softmax_unfused(x).sum().backward()

    benchmark(step)


# ---------------------------------------------------------------------------
# Serving primitives (PR 3).  Same group convention: each pair compares a
# fused/partial-sort implementation against the legacy composition on the
# identical workload.
# ---------------------------------------------------------------------------

def _rank_inputs():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(512, 4000))
    targets = rng.integers(1, 4000, size=512)
    return scores, targets


def _legacy_two_pass_ranks(scores, targets):
    """Pre-PR3 ranks_from_scores: float64 upcast + two comparison passes."""
    scores = np.asarray(scores, dtype=np.float64)
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    higher = (scores > target_scores).sum(axis=1)
    ties = (scores == target_scores).sum(axis=1) - 1
    return higher + ties + 1


@pytest.mark.benchmark(group="ranks-from-scores")
def test_micro_ranks_one_pass(benchmark):
    from repro.eval import ranks_from_scores

    scores, targets = _rank_inputs()
    benchmark(lambda: ranks_from_scores(scores, targets))


@pytest.mark.benchmark(group="ranks-from-scores")
def test_micro_ranks_legacy_two_pass(benchmark):
    scores, targets = _rank_inputs()
    benchmark(lambda: _legacy_two_pass_ranks(scores, targets))


@pytest.mark.benchmark(group="topk")
def test_micro_topk_argpartition(benchmark):
    from repro.serve import topk_from_scores

    scores, _ = _rank_inputs()
    benchmark(lambda: topk_from_scores(scores, 20))


@pytest.mark.benchmark(group="topk")
def test_micro_topk_full_argsort(benchmark):
    scores, _ = _rank_inputs()
    benchmark(lambda: np.argsort(-scores, axis=1, kind="stable")[:, :20])


def _serving_scores():
    """One ``serve-session`` flush: 32 rows over a 30,001-item catalog."""
    return np.random.default_rng(6).normal(size=(32, 30001))


@pytest.mark.benchmark(group="topk")
def test_micro_topk_serving_chunk_bound(benchmark):
    from repro.serve import topk_from_scores

    scores = _serving_scores()
    benchmark(lambda: topk_from_scores(scores, 10))


@pytest.mark.benchmark(group="topk")
def test_micro_topk_serving_argpartition(benchmark):
    from repro.serve.retrieval import _topk_partition

    scores = _serving_scores()
    benchmark(lambda: _topk_partition(scores, 10))


def _tie_heavy_scores():
    """Scores quantized to few distinct values: nearly every row has a
    tie group straddling the k-th boundary, so the tie re-rank path
    dominates ``topk_from_scores``.  Many narrow rows — the shape of a
    micro-batched shard-local catalog — is where the per-row Python
    loop's overhead shows."""
    rng = np.random.default_rng(5)
    return np.round(rng.normal(size=(8192, 64)) * 2.0) / 2.0


def _legacy_loop_tiebreak_topk(scores, k):
    """Pre-PR8 topk_from_scores boundary handling: a per-row Python loop
    re-ranking each affected row with its own lexsort."""
    rows, vocab = scores.shape
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    sel = np.take_along_axis(scores, part, axis=1)
    rank = np.lexsort((part, -sel), axis=-1)
    top = np.take_along_axis(part, rank, axis=1)
    kth = np.take_along_axis(scores, top[:, -1:], axis=1)
    outside = (scores == kth).sum(axis=1) > (
        np.take_along_axis(scores, top, axis=1) == kth).sum(axis=1)
    for row in np.nonzero(outside)[0]:
        order = np.lexsort((np.arange(vocab), -scores[row]))
        top[row] = order[:k]
    return top


@pytest.mark.benchmark(group="topk-tiebreak")
def test_micro_topk_tiebreak_batched(benchmark):
    from repro.serve import topk_from_scores

    scores = _tie_heavy_scores()
    benchmark(lambda: topk_from_scores(scores, 10))


@pytest.mark.benchmark(group="topk-tiebreak")
def test_micro_topk_tiebreak_row_loop(benchmark):
    scores = _tie_heavy_scores()
    benchmark(lambda: _legacy_loop_tiebreak_topk(scores, 10))


def _serving_plan():
    """A bare plan over one ``serve-session`` catalog: 30,001 x 32."""
    from repro.serve.plan import FrozenPlan

    table = np.random.default_rng(7).normal(size=(30001, 32)) * 0.1
    return FrozenPlan(table, max_len=30)


def _score_and_select_f64(plan, reprs):
    from repro.serve import topk_from_scores

    scores = plan.score(reprs)
    top = topk_from_scores(scores, 10)
    return top, np.take_along_axis(scores, top, axis=1)


@pytest.mark.benchmark(group="score-select-b1")
def test_micro_score_select_b1_float64(benchmark):
    plan = _serving_plan()
    reprs = np.random.default_rng(8).normal(size=(1, 32))
    benchmark(lambda: _score_and_select_f64(plan, reprs))


@pytest.mark.benchmark(group="score-select-b1")
def test_micro_score_select_b1_certified_float32(benchmark):
    plan = _serving_plan()
    reprs = np.random.default_rng(8).normal(size=(1, 32))
    buffer = np.empty((1, plan.vocab_size), dtype=np.float32)
    benchmark(lambda: plan.topk(reprs, 10, out=buffer))


@pytest.mark.benchmark(group="score-select-b32")
def test_micro_score_select_b32_float64(benchmark):
    plan = _serving_plan()
    reprs = np.random.default_rng(9).normal(size=(32, 32))
    benchmark(lambda: _score_and_select_f64(plan, reprs))


@pytest.mark.benchmark(group="score-select-b32")
def test_micro_score_select_b32_certified_float32(benchmark):
    plan = _serving_plan()
    reprs = np.random.default_rng(9).normal(size=(32, 32))
    buffer = np.empty((32, plan.vocab_size), dtype=np.float32)
    benchmark(lambda: plan.topk(reprs, 10, out=buffer))


def _append_inputs():
    """Six cached SASRec KV states of ragged lengths (2-12 items) on a
    ``serve-session``-shaped model, and one new item each."""
    from repro.data.batching import pad_sequences
    from repro.models import SASRec
    from repro.serve import freeze

    plan = freeze(SASRec(3000, dim=32, max_len=30,
                         rng=np.random.default_rng(10)))
    rng = np.random.default_rng(11)
    seqs = [list(rng.integers(1, 3001, size=n)) for n in (2, 4, 5, 7, 9, 12)]
    items, mask, _ = pad_sequences(seqs, max_len=None)
    states = plan.split_states(plan.encode_tight_with_state(items, mask)[1])
    return plan, states, list(rng.integers(1, 3001, size=len(seqs)))


@pytest.mark.benchmark(group="append-batch")
def test_micro_append_items_one_call(benchmark):
    plan, states, items = _append_inputs()
    benchmark(lambda: plan.append_items(states, items))


@pytest.mark.benchmark(group="append-batch")
def test_micro_append_items_six_one_row_calls(benchmark):
    plan, states, items = _append_inputs()
    benchmark(lambda: [plan.append_items([state], [item])
                       for state, item in zip(states, items)])
