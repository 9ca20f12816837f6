"""Blocked evaluation against a direct reference: the ranks ``Evaluator``
returns equal ``ranks_from_scores`` on one unchunked score matrix, on
both backends, across every scoring path (vectorized encode, frozen plan,
per-batch forward) and any ``score_chunk``."""

import numpy as np
import pytest

from repro.core.ssdrec import SSDRec
from repro.data import (DataLoader, generate, leave_one_out_split,
                        write_store_from_dataset)
from repro.eval import Evaluator, metric_report, ranks_from_scores
from repro.models import GRU4Rec, SASRec
from repro.nn import Tensor, no_grad
from repro.serve import freeze

BATCH = 16


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    ds = generate("ml-100k", seed=6)
    store = write_store_from_dataset(
        ds, tmp_path_factory.mktemp("streval") / "s")
    valid = [leave_one_out_split(view, max_len=10).valid
             for view in (ds, store)]
    model = GRU4Rec(ds.num_items, dim=8, max_len=10,
                    rng=np.random.default_rng(0))
    return ds, valid, model


def reference_ranks(examples, reprs_of, score_all):
    """Per-batch representations, then one unchunked score matrix."""
    batches = list(DataLoader(examples, batch_size=BATCH, max_len=10,
                              shuffle=False))
    reprs = np.concatenate([reprs_of(batch) for batch in batches])
    targets = np.concatenate([batch.targets for batch in batches])
    return ranks_from_scores(score_all(reprs), targets)


def encode_reference(model, examples):
    model.eval()
    with no_grad():
        return reference_ranks(
            examples, lambda b: model.encode(b.items, b.mask).data,
            lambda reprs: model.score(Tensor(reprs)).data)


@pytest.mark.parametrize("score_chunk", [None, 7, 4096, 1])
def test_vectorized_ranks_bitwise_identical(prepared, score_chunk):
    _, valid, model = prepared
    want = encode_reference(model, valid[0])
    for examples in valid:
        got = Evaluator(examples, batch_size=BATCH, max_len=10,
                        score_chunk=score_chunk).ranks(model)
        np.testing.assert_array_equal(want, got)


def test_frozen_plan_path_identical(prepared):
    _, valid, model = prepared
    plan = freeze(model)
    want = reference_ranks(valid[0], plan.encode_batch, plan.score)
    for score_chunk in (1, 7, None):
        for examples in valid:
            got = Evaluator(examples, batch_size=BATCH, max_len=10,
                            score_chunk=score_chunk).ranks(model, fast=True)
            np.testing.assert_array_equal(want, got)


def test_forward_batch_path_identical(prepared):
    ds, valid, _ = prepared
    model = SSDRec(ds, backbone_cls=SASRec, rng=np.random.default_rng(1))
    model.eval()
    with no_grad():
        want = reference_ranks(valid[0],
                               lambda b: model.forward_batch(b).data,
                               lambda scores: scores)
    for score_chunk in (1, 7, None):
        for examples in valid:
            got = Evaluator(examples, batch_size=BATCH, max_len=10,
                            score_chunk=score_chunk).ranks(model)
            np.testing.assert_array_equal(want, got)


def test_metrics_identical(prepared):
    _, valid, model = prepared
    want = metric_report(encode_reference(model, valid[0]), (5, 10, 20))
    for examples in valid:
        assert Evaluator(examples, batch_size=BATCH,
                         max_len=10).evaluate(model) == want
