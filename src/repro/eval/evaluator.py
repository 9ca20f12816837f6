"""Full-ranking evaluation over a :class:`~repro.data.stream.SequenceSplit`."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.stream import DataLoader
from ..nn import Tensor, no_grad
from .metrics import metric_report, ranks_from_scores

#: Default cap on users scored per matmul chunk.  Scoring all N users at
#: once materialises an (N, V) float64 matrix; chunking keeps peak memory
#: flat at (score_chunk, V) without measurably slowing the matmul.
DEFAULT_SCORE_CHUNK = 4096


class Evaluator:
    """Evaluate any model exposing ``forward(items, mask) -> logits``.

    Models are put in eval mode, run without gradient tracking, and scored
    by full ranking against the entire item universe.  ``examples`` is an
    :class:`~repro.data.stream.ExampleStream` or any sized re-iterable of
    examples; batches are its consecutive ``batch_size`` slices.

    Candidate scoring is vectorized: models exposing the
    ``encode``/``score`` API (every :class:`SequentialRecommender`) have
    their per-batch sequence representations gathered until
    ``score_chunk`` rows are buffered, then scored against the item table
    in exact ``score_chunk``-row blocks — at small model dimensions the
    scoring matmuls dominate eval cost, and peak memory stays at one
    block, O(score_chunk * vocab).  Models with a custom
    ``forward_batch`` (e.g. SSDRec, which needs user ids) or without the
    encode/score split fall back to per-batch scoring.

    ``fast=True`` routes ranking through a frozen forward plan
    (:func:`repro.serve.freeze`): a pure-NumPy executor that skips
    autograd graph construction entirely.  Ranks are identical to the
    graph path within float tolerance (asserted by
    ``tests/serve/test_evaluator_fast.py``); the plan is recompiled from
    the model's current weights on every :meth:`ranks` call, so it is
    always safe to toggle mid-training.
    """

    def __init__(self, examples, batch_size: int = 256,
                 max_len: Optional[int] = None,
                 ks: Sequence[int] = (5, 10, 20), fast: bool = False,
                 score_chunk: Optional[int] = DEFAULT_SCORE_CHUNK):
        if len(examples) == 0:
            raise ValueError("evaluator needs at least one example")
        if score_chunk is not None and score_chunk < 1:
            raise ValueError("score_chunk must be >= 1 or None")
        self.loader = DataLoader(examples, batch_size=batch_size,
                                 max_len=max_len, shuffle=False)
        self.num_examples = len(examples)
        self.ks = tuple(ks)
        self.fast = fast
        self.score_chunk = score_chunk

    def ranks(self, model, fast: Optional[bool] = None) -> np.ndarray:
        """Target ranks for every example, in example order.

        ``fast`` overrides the instance default for this call only, so
        callers sharing a cached evaluator can pick the frozen-plan path
        without mutating state other callers observe.
        """
        was_training = getattr(model, "training", False)
        model.eval()
        try:
            if self.fast if fast is None else fast:
                from ..serve import freeze  # lazy: avoids an import cycle
                all_ranks = self._ranks_plan(freeze(model))
            else:
                with no_grad():
                    batch_forward = getattr(model, "forward_batch", None)
                    encode = getattr(model, "encode", None)
                    score = getattr(model, "score", None)
                    if (batch_forward is None and encode is not None
                            and score is not None):
                        all_ranks = self._ranks_vectorized(encode, score)
                    else:
                        all_ranks = self._ranks_per_batch(model,
                                                          batch_forward)
        finally:
            if was_training:
                model.train()
        return all_ranks

    def ranks_frozen(self, plan) -> np.ndarray:
        """Rank through a pre-compiled frozen plan (no model, no re-freeze).

        Unlike ``fast=True`` — which recompiles the plan from the model's
        current weights on every call — this trusts the caller's plan.
        Use it when weights are fixed (serving, benchmarks) to amortize
        compilation across calls.
        """
        return self._ranks_plan(plan)

    def _ranks_blocked(self, pairs, score_block) -> np.ndarray:
        """Drive ``score_block`` over exact ``score_chunk``-row blocks.

        ``pairs`` yields per-batch ``(reprs, targets)``; block ``i``
        covers examples ``[i * score_chunk, (i + 1) * score_chunk)``
        whatever the batch size, so ranks do not depend on it.
        """
        total = self.num_examples
        step = self.score_chunk or total
        ranks = np.empty(total, dtype=np.int64)
        pending_r: List[np.ndarray] = []
        pending_t: List[np.ndarray] = []
        buffered = written = 0

        def drain(final: bool) -> None:
            nonlocal pending_r, pending_t, buffered, written
            while buffered >= step or (final and buffered):
                reprs = (pending_r[0] if len(pending_r) == 1
                         else np.concatenate(pending_r, axis=0))
                targets = (pending_t[0] if len(pending_t) == 1
                           else np.concatenate(pending_t))
                take = min(step, buffered)
                ranks[written:written + take] = score_block(
                    reprs[:take], targets[:take])
                pending_r, pending_t = [reprs[take:]], [targets[take:]]
                buffered -= take
                written += take

        for reprs, targets in pairs:
            pending_r.append(reprs)
            pending_t.append(np.asarray(targets))
            buffered += reprs.shape[0]
            drain(final=False)
        drain(final=True)
        return ranks

    def _ranks_vectorized(self, encode, score) -> np.ndarray:
        pairs = ((encode(batch.items, batch.mask).data, batch.targets)
                 for batch in self.loader)
        return self._ranks_blocked(
            pairs, lambda reprs, targets: ranks_from_scores(
                score(Tensor(reprs)).data, targets))

    def _ranks_plan(self, plan) -> np.ndarray:
        """Graph-free ranking through a frozen forward plan."""
        if not plan.supports_encode:
            return self._ranks_per_batch(None, plan.forward_batch,
                                         plan=True)
        buf: List[Optional[np.ndarray]] = [None]

        def score_block(reprs: np.ndarray, targets: np.ndarray) -> np.ndarray:
            if buf[0] is None or buf[0].shape[0] != reprs.shape[0]:
                buf[0] = np.empty((reprs.shape[0], plan.vocab_size))
            return ranks_from_scores(plan.score(reprs, out=buf[0]), targets)

        pairs = ((plan.encode_batch(batch), batch.targets)
                 for batch in self.loader)
        return self._ranks_blocked(pairs, score_block)

    def _ranks_per_batch(self, model, batch_forward,
                         plan: bool = False) -> np.ndarray:
        all_ranks: List[np.ndarray] = []
        for batch in self.loader:
            if batch_forward is not None:
                logits = batch_forward(batch)
            else:
                logits = model.forward(batch.items, batch.mask)
            scores = logits if plan else logits.data
            all_ranks.append(ranks_from_scores(scores, batch.targets))
        return np.concatenate(all_ranks)

    def evaluate(self, model, fast: Optional[bool] = None) -> Dict[str, float]:
        """Full metric block (HR/N@K + MRR) on the held-out examples."""
        return metric_report(self.ranks(model, fast=fast), self.ks)


#: Name the benchmark (``bench/workloads.py``) imports.
StreamingEvaluator = Evaluator
