"""``RecommendService``: micro-batched top-K serving on a frozen plan.

Single-user requests queue up (``enqueue``) and execute as one padded
batch (``flush``) against the plan's pinned item-embedding table.  An LRU
user-state cache keyed by ``(user, sequence)`` makes exact repeats free
and — for recurrent plans in ``padding="tight"`` mode — lets an
append-one-item request advance the cached recurrent (GRU) or KV-prefix
(attention) state by a single step instead of re-encoding the whole
history.  A per-user rolling state backs the exact-sequence cache so the
cheap path survives the ``max_len`` window rollover, where truncation
re-keys the LRU on every request.

Padding modes
-------------
``"model"`` (default)
    Every batch is padded to the plan's ``max_len``, reproducing the
    training/evaluation batch layout exactly — scores match the graph
    path bit-for-bit (models with positional embeddings or unmasked
    recurrences are sensitive to the padding width).
``"tight"``
    Batches pad only to the longest queued sequence; recurrent plans
    step through valid positions only and attention plans use their
    canonical right-aligned position layout.  Padding-width invariant
    by construction (requires a ``"tight"`` program on the plan) and the
    only mode where incremental append (an ``"append"`` program) is
    sound.

Failure isolation
-----------------
``flush`` never drops a request.  The queue is drained only after every
request has a result; an encode/score/forward error in one micro-batch
chunk triggers a per-request retry of that chunk alone (other chunks are
unaffected), and a request that still fails comes back as a
:class:`Recommendation` with ``error`` set (``failed`` is True) rather
than an exception.  An incremental-append failure falls back to a full
encode and is counted (``stats.incremental_failures``, first message
recorded).  The fault sites ``serve.encode`` / ``serve.score`` /
``serve.forward`` let the chaos harness (:mod:`repro.resilience`) drive
these paths deterministically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.batching import pad_sequences
from ..resilience.faults import fault_point
from .ann import DEFAULT_NPROBE
from .plan import FrozenPlan, check_padding, prepare_plan
from .retrieval import topk_from_scores


@dataclass
class Recommendation:
    """Top-K result for one request (items best-first).

    A request that could not be served (its encode/score failed even
    after per-request retry) carries the failure in ``error`` and empty
    ``items``/``scores`` — the flush still answers it.
    """

    user: Optional[int]
    items: np.ndarray
    scores: np.ndarray
    from_cache: bool = False
    incremental: bool = False
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ServiceStats:
    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    incremental_hits: int = 0
    full_encodes: int = 0
    evictions: int = 0
    #: micro-batch chunks whose batched execution failed and were
    #: re-executed request-by-request.
    chunk_retries: int = 0
    #: requests answered with an error result.
    errors: int = 0
    #: ``append_item`` failures that degraded to a full encode — a
    #: nonzero count means the incremental path is broken, not idle.
    incremental_failures: int = 0
    #: first ``append_item`` failure message, for diagnosis.
    first_incremental_failure: Optional[str] = None
    #: per-user rolling states dropped by the LRU bound.
    state_evictions: int = 0
    #: successful in-place plan hot-swaps.
    plan_swaps: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (what workers ship over the pipe)."""
        return dict(vars(self))


class RecommendService:
    """Serve top-K recommendations from a frozen forward plan.

    Parameters
    ----------
    model_or_plan:
        A trained model (frozen on the spot) or an existing plan.
    k:
        Recommendations per request.
    max_batch:
        Micro-batch width: a flush executes queued requests in padded
        batches of at most this many rows.
    cache_size:
        LRU capacity of the user-state cache (0 disables caching).
    padding:
        ``"model"`` or ``"tight"`` (see module docstring).
    verify:
        Run the plan's programs on probe batches before serving, once,
        after any ANN index is attached (default True; see
        :mod:`repro.analysis.dataflow`).  A drifted or corrupted plan
        raises ``PlanVerificationError`` here instead of failing mid
        request.
    retrieval:
        ``"exact"`` (default) scores the full item table and selects
        with ``topk_from_scores``; ``"ann"`` probes the plan's
        clustered MIPS index (:mod:`repro.serve.ann`) and scores only
        the probed clusters — sub-linear in the catalog, at a measured
        recall cost (see ``BENCH_retrieval.json``).  An index is built
        on the spot if the plan does not carry one.
    nprobe:
        Clusters probed per request in ``"ann"`` mode; ``nprobe >=
        num_clusters`` reproduces the exact results bitwise.  A request
        whose probed clusters hold fewer than ``k`` items returns a
        short (still best-first) recommendation list.
    """

    def __init__(self, model_or_plan, k: int = 10, max_batch: int = 64,
                 cache_size: int = 1024, padding: str = "model",
                 verify: bool = True, retrieval: str = "exact",
                 nprobe: int = DEFAULT_NPROBE):
        if retrieval not in ("exact", "ann"):
            raise ValueError(
                f"retrieval must be 'exact' or 'ann', got {retrieval!r}")
        plan = prepare_plan(model_or_plan, verify=verify,
                            ann=retrieval == "ann")
        check_padding(plan, padding)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.retrieval = retrieval
        self.nprobe = max(1, int(nprobe))
        self.plan = plan
        self.k = k
        self.max_batch = max(1, int(max_batch))
        self.cache_size = int(cache_size)
        self.padding = padding
        self._incremental = (padding == "tight"
                             and "append" in plan.programs
                             and self.cache_size > 0)
        self._cache: OrderedDict = OrderedDict()
        #: user -> {"seq", "state"}: the rolling incremental state.
        #: Keyed per *user* (not per exact sequence) so it survives the
        #: window rollover that re-keys the LRU cache — once a sequence
        #: reaches ``max_len``, ``enqueue`` truncation shifts the
        #: ``(user, seq[:-1])`` cache key every request, and only this
        #: lineage probe keeps long-session users on the cheap path.
        self._user_state: OrderedDict = OrderedDict()
        self._pending: List[Tuple[Optional[int], tuple]] = []
        self._scores = np.empty((0, 0), dtype=np.float64)
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    def enqueue(self, user: Optional[int], sequence: Sequence[int]) -> int:
        """Queue one request; returns its index in the next flush."""
        seq = tuple(map(int, sequence))
        if not seq:
            raise ValueError("cannot recommend from an empty sequence")
        if self.plan.max_len is not None:
            seq = seq[-self.plan.max_len:]
        self._pending.append((user, seq))
        self.stats.requests += 1
        return len(self._pending) - 1

    def recommend(self, user: Optional[int],
                  sequence: Sequence[int]) -> Recommendation:
        """Single-request convenience: enqueue + flush."""
        self.enqueue(user, sequence)
        return self.flush()[0]

    def recommend_many(self, requests: Sequence[Tuple[Optional[int], Sequence[int]]]
                       ) -> List[Recommendation]:
        for user, sequence in requests:
            self.enqueue(user, sequence)
        return self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> List[Recommendation]:
        """Execute all queued requests as padded micro-batches.

        The pending queue is drained only once every request has a
        result (success or error) — an exception escaping mid-flush
        leaves the queue intact for a retry, and a contained chunk
        failure surfaces as per-request error results.
        """
        pending = list(self._pending)
        if not pending:
            return []
        if self.plan.supports_encode:
            results = self._flush_encode(pending)
        else:
            results = self._flush_fallback(pending)
        del self._pending[:len(pending)]
        return results

    def _flush_encode(self, pending) -> List[Recommendation]:
        count = len(pending)
        reprs: List[Optional[np.ndarray]] = [None] * count
        flags = [(False, False)] * count
        errors: List[Optional[str]] = [None] * count
        to_encode = []
        for i, (user, seq) in enumerate(pending):
            key = (user, seq)
            entry = self._cache_get(key)
            if entry is not None and entry.get("repr") is not None:
                reprs[i] = entry["repr"]
                flags[i] = (True, False)
                self.stats.cache_hits += 1
                continue
            if self._incremental and len(seq) > 1:
                advanced = self._probe_incremental(user, seq)
                if advanced is not None:
                    rep, state = advanced
                    reprs[i] = rep
                    flags[i] = (False, True)
                    self.stats.incremental_hits += 1
                    self._cache_put(key, rep, state)
                    self._user_state_put(user, seq, state)
                    continue
            to_encode.append(i)

        for start in range(0, len(to_encode), self.max_batch):
            chunk = to_encode[start:start + self.max_batch]
            try:
                rows, states = self._encode_chunk(
                    [pending[i] for i in chunk])
            except Exception:
                self._retry_encodes(pending, chunk, reprs, errors)
                continue
            self.stats.batches += 1
            self.stats.full_encodes += len(chunk)
            for j, i in enumerate(chunk):
                reprs[i] = rows[j]
                state = None if states is None else [
                    layer[j:j + 1].copy() for layer in states]
                self._cache_put((pending[i][0], pending[i][1]),
                                rows[j], state)
                self._user_state_put(pending[i][0], pending[i][1], state)

        ranked = self._topk_reprs(reprs, errors)
        results: List[Optional[Recommendation]] = [None] * count
        for i, (top, values) in ranked.items():
            if self.retrieval == "ann":
                keep = top >= 0          # strip short-probe-list padding
                top, values = top[keep], values[keep]
            results[i] = Recommendation(
                user=pending[i][0], items=top, scores=values,
                from_cache=flags[i][0], incremental=flags[i][1])
        for i in range(count):
            if results[i] is None:
                results[i] = self._error_result(
                    pending[i][0], errors[i] or "not scored")
        return results

    def _probe_incremental(self, user, seq
                           ) -> Optional[Tuple[np.ndarray, list]]:
        """Find a cached state one item behind ``seq`` and advance it.

        Two probes, cheapest first: the exact ``(user, seq[:-1])`` LRU
        entry, then the per-user rolling state.  The rolling probe
        accepts a *grow* (previous request was exactly ``seq[:-1]``) or
        — on plans whose state summarizes the full history
        (``plan.rolls_over``) — a window *slide*: both
        sequences sit at ``max_len`` and ``seq`` drops the oldest item
        for one new one.  A slid hit advances the full-history state, so
        its result tracks the untruncated sequence (exact w.r.t. the
        model) rather than re-encoding the truncated window.

        An ``append_item`` failure is counted in
        ``stats.incremental_failures`` (first message recorded) and
        degrades to a full encode of this request only.
        """
        prev = self._cache_get((user, seq[:-1]))
        state = None if prev is None else prev.get("state")
        if state is None and user is not None:
            rolled = self._user_state.get(user)
            if rolled is not None:
                prev_seq = rolled["seq"]
                grow = (len(seq) == len(prev_seq) + 1
                        and seq[:-1] == prev_seq)
                slide = (self.plan.rolls_over
                         and self.plan.max_len is not None
                         and len(seq) == len(prev_seq) == self.plan.max_len
                         and seq[:-1] == prev_seq[1:])
                if grow or slide:
                    self._user_state.move_to_end(user)
                    state = rolled["state"]
        if state is None:
            return None
        try:
            new_state = self.plan.append_item(state, seq[-1])
            rep = self.plan.state_repr(new_state)
        except Exception as exc:
            self.stats.incremental_failures += 1
            if self.stats.first_incremental_failure is None:
                self.stats.first_incremental_failure = (
                    f"{type(exc).__name__}: {exc}")
            return None
        return rep, new_state

    def _retry_encodes(self, pending, chunk, reprs, errors) -> None:
        """Batched encode failed: isolate by encoding request-by-request."""
        self.stats.chunk_retries += 1
        for i in chunk:
            try:
                rows, states = self._encode_chunk([pending[i]])
            except Exception as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
                self.stats.errors += 1
                continue
            self.stats.batches += 1
            self.stats.full_encodes += 1
            reprs[i] = rows[0]
            state = None if states is None else [
                layer[0:1].copy() for layer in states]
            self._cache_put((pending[i][0], pending[i][1]), rows[0], state)
            self._user_state_put(pending[i][0], pending[i][1], state)

    def _topk_reprs(self, reprs, errors
                    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Rank all encoded rows, isolating a scoring failure per row."""
        ok = [i for i, rep in enumerate(reprs)
              if rep is not None and errors[i] is None]
        ranked: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        if not ok:
            return ranked
        try:
            tops, values = self._rank(np.stack([reprs[i] for i in ok]))
        except Exception:
            self.stats.chunk_retries += 1
            for i in ok:
                try:
                    top, value = self._rank(reprs[i][None])
                except Exception as exc:
                    errors[i] = f"{type(exc).__name__}: {exc}"
                    self.stats.errors += 1
                    continue
                ranked[i] = (top[0], value[0])
            return ranked
        for j, i in enumerate(ok):
            ranked[i] = (tops[j], values[j])
        return ranked

    def _rank(self, reprs: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(B, d) -> ((B, k) items, (B, k) scores)`` on the configured
        retrieval path (both behind the ``serve.score`` fault site)."""
        if self.retrieval == "ann":
            fault_point("serve.score")
            return self.plan.ann_topk(reprs, self.k, self.nprobe)
        scores = self._score(reprs)
        top = topk_from_scores(scores, self.k)
        return top, np.take_along_axis(scores, top, axis=1)

    @staticmethod
    def _error_result(user, error: str) -> Recommendation:
        return Recommendation(user=user,
                              items=np.empty(0, dtype=np.int64),
                              scores=np.empty(0, dtype=np.float64),
                              error=error)

    # ------------------------------------------------------------------
    def _score(self, reprs: np.ndarray) -> np.ndarray:
        """Score into one ``(B, V)`` buffer reused across flushes.

        A fresh buffer per flush is large (7.7 MB for 32 rows of a 30k
        catalog), and whether the allocator keeps such blocks or returns
        them to the OS, to be faulted in page by page on the next flush,
        depends on what the process allocated before; reusing one makes
        the steady state independent of that history.  Callers copy what
        they keep before the next flush.
        """
        fault_point("serve.score")
        rows, vocab = reprs.shape[0], self.plan.vocab_size
        if self._scores.shape[0] < rows or self._scores.shape[1] != vocab:
            self._scores = np.empty((rows, vocab), dtype=np.float64)
        return self.plan.score(reprs, out=self._scores[:rows])

    def _encode_chunk(self, rows) -> Tuple[np.ndarray, Optional[list]]:
        fault_point("serve.encode")
        width = self.plan.max_len if self.padding == "model" else None
        items, mask, _ = pad_sequences([seq for _, seq in rows],
                                       max_len=width)
        users = [user for user, _ in rows]
        users_arr = (None if any(user is None for user in users)
                     else np.asarray(users))
        if self.padding == "tight":
            if self._incremental:
                return self.plan.encode_tight_with_state(items, mask)
            return self.plan.encode_tight(items, mask, users_arr), None
        return self.plan.encode(items, mask, users_arr), None

    def _flush_fallback(self, pending) -> List[Recommendation]:
        """No separate encode/score on fallback plans: forward per chunk.

        Score rows are cached under the same LRU as encode-path state, so
        repeat sequences are served from cache with ``from_cache=True``.
        """
        results: List[Optional[Recommendation]] = [None] * len(pending)
        to_run = []
        for i, (user, seq) in enumerate(pending):
            entry = self._cache_get((user, seq))
            if entry is not None and entry.get("scores") is not None:
                row = entry["scores"]
                top = topk_from_scores(row[None], self.k)
                values = np.take_along_axis(row[None], top, axis=1)
                results[i] = Recommendation(user=user, items=top[0],
                                            scores=values[0],
                                            from_cache=True)
                self.stats.cache_hits += 1
                continue
            to_run.append(i)
        for start in range(0, len(to_run), self.max_batch):
            chunk = to_run[start:start + self.max_batch]
            try:
                scores = self._forward_rows([pending[i] for i in chunk])
            except Exception:
                self.stats.chunk_retries += 1
                for i in chunk:
                    try:
                        row = self._forward_rows([pending[i]])[0]
                    except Exception as exc:
                        results[i] = self._error_result(
                            pending[i][0], f"{type(exc).__name__}: {exc}")
                        self.stats.errors += 1
                        continue
                    self.stats.batches += 1
                    self.stats.full_encodes += 1
                    results[i] = self._fallback_result(pending[i], row)
                continue
            self.stats.batches += 1
            self.stats.full_encodes += len(chunk)
            top = topk_from_scores(scores, self.k)
            values = np.take_along_axis(scores, top, axis=1)
            for j, i in enumerate(chunk):
                self._cache_put(pending[i], None, None,
                                scores=scores[j].copy())
                results[i] = Recommendation(user=pending[i][0], items=top[j],
                                            scores=values[j])
        return results

    def _fallback_result(self, request, row: np.ndarray) -> Recommendation:
        self._cache_put(request, None, None, scores=row.copy())
        top = topk_from_scores(row[None], self.k)
        values = np.take_along_axis(row[None], top, axis=1)
        return Recommendation(user=request[0], items=top[0],
                              scores=values[0])

    def _forward_rows(self, rows) -> np.ndarray:
        fault_point("serve.forward")
        width = self.plan.max_len if self.padding == "model" else None
        items, mask, _ = pad_sequences([seq for _, seq in rows],
                                       max_len=width)
        users = [user for user, _ in rows]
        users_arr = (None if any(user is None for user in users)
                     else np.asarray(users))
        return self.plan.forward(items, mask, users_arr)

    # ------------------------------------------------------------------
    def _cache_get(self, key) -> Optional[dict]:
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key, rep: Optional[np.ndarray],
                   state: Optional[list],
                   scores: Optional[np.ndarray] = None) -> None:
        if self.cache_size <= 0:
            return
        self._cache[key] = {"repr": rep, "state": state, "scores": scores}
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _user_state_put(self, user, seq: tuple,
                        state: Optional[list]) -> None:
        """Roll the per-user state forward (bounded by ``cache_size``)."""
        if user is None or state is None or self.cache_size <= 0:
            return
        self._user_state[user] = {"seq": seq, "state": state}
        self._user_state.move_to_end(user)
        while len(self._user_state) > self.cache_size:
            self._user_state.popitem(last=False)
            self.stats.state_evictions += 1

    def clear_cache(self) -> None:
        self._cache.clear()
        self._user_state.clear()

    # ------------------------------------------------------------------
    def swap_plan(self, model_or_plan, verify: bool = True) -> FrozenPlan:
        """Hot-swap the serving plan in place; returns the old plan.

        The incoming plan is verified (its programs run on probe
        batches) and checked against this service's padding/retrieval
        configuration *before* anything changes — a plan that fails
        verification leaves the service serving the old plan untouched.
        Queued-but-unflushed requests survive the swap and are answered
        by the new plan; both caches are invalidated (representations
        and recurrent/KV states from the old plan must never leak into
        the new plan's results).
        """
        incoming = prepare_plan(model_or_plan, verify=verify,
                                ann=self.retrieval == "ann")
        check_padding(incoming, self.padding)
        previous = self.plan
        self.plan = incoming
        self._incremental = (self.padding == "tight"
                             and "append" in incoming.programs
                             and self.cache_size > 0)
        self._cache.clear()
        self._user_state.clear()
        self.stats.plan_swaps += 1
        return previous
