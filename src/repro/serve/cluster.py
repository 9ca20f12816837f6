"""``ClusterService``: sharded multi-process serving on frozen plans.

One :class:`~repro.serve.service.RecommendService` is capped by a single
interpreter: one GIL, one LRU, one micro-batch queue.  FrozenPlans are
pure NumPy and pickle cheaply, which makes horizontal sharding the
natural scale-out: ``ClusterService`` spawns N worker processes, each of
which loads the plan **once** from a pickle spool file and runs its own
``RecommendService`` over the shard of users it owns.  The front-end
routes every request to ``shard_of(user) % N`` (:mod:`.router`), so a
user's cached state — LRU entries, incremental GRU hidden state — lives
on exactly one worker and no cross-process invalidation exists at all.

A ``flush`` partitions the queue by owning shard, sends each shard its
micro-batch over a private pipe (all shards in flight at once), and
scatters the replies back into arrival order.  Each request is answered
whole by one worker, so reassembly preserves the exact ``(-score,
index)`` tie order of ``topk_from_scores`` — the cluster is bitwise
transparent over a single-process service fed the same per-shard
batches (``tests/serve/test_cluster.py`` pins this).

Failure handling mirrors the single-process contract: **no request is
ever dropped**.  A worker that dies mid-batch (crash, kill, or the
``serve.worker.batch`` chaos site armed via ``worker_fault_plans``) is
respawned from the spool file and the batch is re-routed to the fresh
process once; requests that still cannot be served come back as
:class:`~repro.serve.service.Recommendation` error results.  A worker
that *survives* a batch failure replies with a ``failed`` message and
the batch is answered as error results immediately.

Online learning re-freezes the plan periodically; ``swap_plan`` installs
the new plan into the running cluster with a two-phase protocol over the
same spool (versioned ``plan-v{n}.pkl`` files, written atomically):
every worker *prepares* (loads + verifies into a pending slot), then the
respawn path is repointed and every worker *commits*.  Verification
failure on any shard aborts the swap with the old plan intact
everywhere; worker deaths at either phase are absorbed by the revival
path (chaos sites ``serve.swap.spool`` / ``serve.swap.prepare`` /
``serve.swap.commit`` pin this in ``tests/serve/test_cluster.py``).

Only plain primitives and NumPy arrays may cross the worker boundary —
batches are ``(user, item-tuple)`` pairs, replies are ``(user, items,
scores, flags, error)`` tuples, and workers receive the plan as a file
*path*, never as a live object.  The ``worker-boundary`` lint rule
(:mod:`repro.analysis.lint`) enforces this mechanically.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience.atomic import atomic_write_bytes
from ..resilience.faults import (KILL_EXIT_CODE, SERVE_WORKER_SITE,
                                 SWAP_COMMIT_SITE, SWAP_PREPARE_SITE,
                                 SWAP_SPOOL_SITE, active_plan, arm_json,
                                 fault_point)
from .ann import DEFAULT_NPROBE
from .plan import check_padding, prepare_plan
from .quant import QuantizedPlan, quantize_plan
from .router import Router
from .service import Recommendation, RecommendService

#: Wire tags of the worker protocol (tuple messages over a duplex pipe).
_BATCH, _RESULT, _FAILED, _STATS, _READY, _STOP = (
    "batch", "result", "failed", "stats", "ready", "stop")

#: Wire tags of the two-phase plan hot-swap (see
#: :meth:`ClusterService.swap_plan`).  ``prepare`` ships a versioned
#: spool *path*; ``ok``/``err`` acks echo the swap version so stale
#: batch replies are never mistaken for swap acks.
_SWAP_PREPARE, _SWAP_COMMIT, _SWAP_ABORT, _SWAP_OK, _SWAP_ERR = (
    "swap-prepare", "swap-commit", "swap-abort", "swap-ok", "swap-err")


class PlanSwapError(RuntimeError):
    """A hot swap aborted; every worker still serves the previous plan."""


def _wire(rec: Recommendation) -> tuple:
    """Flatten a Recommendation to primitives + NumPy arrays."""
    return (rec.user, rec.items, rec.scores, rec.from_cache,
            rec.incremental, rec.error)


def _unwire(payload: tuple) -> Recommendation:
    user, items, scores, from_cache, incremental, error = payload
    return Recommendation(user=user, items=items, scores=scores,
                          from_cache=from_cache, incremental=incremental,
                          error=error)


def _load_service(plan_path: str, config: dict) -> RecommendService:
    """Load the spooled plan and build the shard's service.

    With ``config["verify"]`` (the default) the unpickled plan's
    programs run once on probe batches (and its ANN index, if any, is
    checked and searched) *before* the worker reports ready — a
    corrupted or drifted spool fails the ``_handshake`` with a
    ``PlanVerificationError`` message naming the step, instead of
    crashing mid-batch.  A quantized spool is verified once, after
    dequantization.  The inner service skips re-verification (the
    spool-load check just ran).
    """
    with open(plan_path, "rb") as fh:
        loaded = pickle.load(fh)
    if isinstance(loaded, QuantizedPlan):
        # Quantized spool: reconstruct the float64 plan (validating
        # every scale/codes record) and re-verify the result.
        loaded = loaded.dequantize(verify=config.get("verify", True))
    elif config.get("verify", True):
        loaded.verify()
    return RecommendService(loaded, k=config["k"],
                            max_batch=config["max_batch"],
                            cache_size=config["cache_size"],
                            padding=config["padding"], verify=False,
                            retrieval=config.get("retrieval", "exact"),
                            nprobe=config.get("nprobe", DEFAULT_NPROBE))


def _worker_main(shard: int, service: RecommendService, conn,
                 config: dict) -> None:
    """Worker serve loop: answer batches until stop.

    A ``SimulatedCrash`` from the chaos site exits the process with the
    kill code — exactly what the front-end's revival path must absorb.
    Swap messages load the incoming spool into a *pending* slot
    (prepare), adopt it (commit), or drop it (abort); a prepare whose
    load or verification fails answers ``_SWAP_ERR`` and keeps the
    current service untouched.
    """
    prepared: Dict[int, RecommendService] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        tag = message[0]
        if tag == _STOP:
            return
        if tag == _STATS:
            conn.send((_STATS, shard, service.stats.as_dict()))
            continue
        if tag == _SWAP_PREPARE:
            _, swap_id, spool_path = message
            try:
                fault_point(SWAP_PREPARE_SITE)
                candidate = _load_service(spool_path, config)
            except SystemExit:
                raise
            except BaseException as exc:  # noqa: BLE001
                if not isinstance(exc, Exception):
                    os._exit(KILL_EXIT_CODE)   # SimulatedCrash et al.
                conn.send((_SWAP_ERR, swap_id,
                           f"{type(exc).__name__}: {exc}"))
                continue
            prepared[swap_id] = candidate
            conn.send((_SWAP_OK, swap_id, None))
            continue
        if tag == _SWAP_COMMIT:
            _, swap_id, _ = message
            try:
                fault_point(SWAP_COMMIT_SITE)
            except SystemExit:
                raise
            except BaseException as exc:  # noqa: BLE001
                if not isinstance(exc, Exception):
                    os._exit(KILL_EXIT_CODE)
                conn.send((_SWAP_ERR, swap_id,
                           f"{type(exc).__name__}: {exc}"))
                continue
            candidate = prepared.pop(swap_id, None)
            if candidate is None:
                conn.send((_SWAP_ERR, swap_id,
                           f"no prepared plan for swap {swap_id}"))
                continue
            service = candidate
            conn.send((_SWAP_OK, swap_id, None))
            continue
        if tag == _SWAP_ABORT:
            _, swap_id, _ = message
            prepared.pop(swap_id, None)
            conn.send((_SWAP_OK, swap_id, None))
            continue
        _, batch_id, requests = message
        try:
            fault_point(SERVE_WORKER_SITE)
            results = service.recommend_many(requests)
        except SystemExit:
            raise
        except BaseException as exc:  # noqa: BLE001
            if not isinstance(exc, Exception):
                os._exit(KILL_EXIT_CODE)       # SimulatedCrash et al.
            conn.send((_FAILED, batch_id,
                       f"{type(exc).__name__}: {exc}"))
            continue
        conn.send((_RESULT, batch_id, [_wire(r) for r in results]))


def _worker_ready(shard: int, conn) -> None:
    conn.send((_READY, shard, None))


def _worker_entry(shard: int, plan_path: str, config: dict, conn,
                  fault_plan: Optional[str]) -> None:
    """Worker bootstrap: primitives only (the pipe connection aside).

    The plan arrives as a *path* into the spool directory, the fault
    schedule as a JSON string.  Spool load + verification runs before
    the ready handshake; a failure answers ``_handshake`` with a ``_FAILED``
    message carrying the structured error text.
    """
    inherited = active_plan()
    if inherited is not None:      # fork leaks the parent's armed plan
        inherited.disarm()
    arm_json(fault_plan)
    try:
        service = _load_service(plan_path, config)
    except Exception as exc:  # noqa: BLE001 — report, don't hang _handshake
        try:
            conn.send((_FAILED, shard, f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        return
    _worker_ready(shard, conn)
    _worker_main(shard, service, conn, config)


@dataclass
class ClusterStats:
    """Front-end counters (per-worker service stats live in the workers;
    snapshot them with :meth:`ClusterService.worker_stats`)."""

    requests: int = 0
    flushes: int = 0
    #: per-shard micro-batches dispatched over pipes.
    dispatches: int = 0
    #: requests answered with an error result.
    errors: int = 0
    #: dead workers respawned from the spool file.
    worker_restarts: int = 0
    #: requests re-routed to a respawned worker after its predecessor died.
    rerouted_requests: int = 0
    #: committed plan hot-swaps (see :meth:`ClusterService.swap_plan`).
    plan_swaps: int = 0
    #: requests routed per shard (shard id -> count).
    shard_requests: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = dict(vars(self))
        payload["shard_requests"] = dict(self.shard_requests)
        return payload


class _Worker:
    """One shard's process + pipe endpoint (front-end side)."""

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn


class ClusterService:
    """Serve top-K requests across N user-sharded worker processes.

    Parameters mirror :class:`~repro.serve.service.RecommendService`
    (``k`` / ``max_batch`` / ``cache_size`` / ``padding`` apply to the
    per-shard service inside each worker), plus:

    num_workers:
        Shard count; each worker owns ``hash(user) % num_workers``.
    start_method:
        ``multiprocessing`` start method (default ``fork`` where
        available — workers inherit nothing they use besides the spool
        path, so ``spawn`` behaves identically, just slower to boot).
    dispatch_timeout:
        Seconds to wait for a worker's reply before declaring it hung
        (it is then killed, respawned, and the batch re-routed once).
    worker_fault_plans:
        Optional ``{shard: FaultPlan-JSON}`` armed inside the matching
        worker at startup — the chaos harness's handle on the
        ``serve.worker.batch`` kill site.  Respawned workers never
        inherit a fault plan.
    verify:
        Verify the plan once before spooling it (after the ANN index is
        attached) *and* at every worker's spool load (default True): a
        corrupted spool fails the spawn handshake with the verifier's
        structured error instead of crashing mid-batch.
    retrieval / nprobe:
        Per-shard retrieval path (see
        :class:`~repro.serve.service.RecommendService`).  With
        ``retrieval="ann"`` the index is built **once**, before the
        plan is spooled, so every worker (and every respawn) loads the
        identical cluster partition — per-shard results stay bitwise
        deterministic.
    quantize_spool:
        ``"int8"`` / ``"fp16"`` spool a quantized plan instead of the
        float64 snapshot (8x / 4x smaller on disk); workers dequantize
        on load, validating every scale/codes record.  Dequantized
        weights carry the documented quantization error, so this mode
        trades exact single-process parity for spool size.
    """

    def __init__(self, model_or_plan, num_workers: int = 2, k: int = 10,
                 max_batch: int = 64, cache_size: int = 1024,
                 padding: str = "model",
                 start_method: Optional[str] = None,
                 dispatch_timeout: float = 60.0,
                 worker_fault_plans: Optional[Dict[int, str]] = None,
                 verify: bool = True, retrieval: str = "exact",
                 nprobe: int = DEFAULT_NPROBE,
                 quantize_spool: Optional[str] = None):
        if retrieval not in ("exact", "ann"):
            raise ValueError(
                f"retrieval must be 'exact' or 'ann', got {retrieval!r}")
        plan = prepare_plan(model_or_plan, verify=verify,
                            ann=retrieval == "ann")
        if not plan.supports_encode:
            raise ValueError(
                f"{plan.model_name} plan wraps a live model (fallback "
                "path) and cannot cross a process boundary; cluster "
                "serving needs a compiled FrozenPlan")
        check_padding(plan, padding)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, "
                             f"got {num_workers}")
        import multiprocessing

        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.num_workers = int(num_workers)
        self.router = Router(self.num_workers)
        self.dispatch_timeout = float(dispatch_timeout)
        self._config = {"k": int(k), "max_batch": max(1, int(max_batch)),
                        "cache_size": int(cache_size), "padding": padding,
                        "verify": bool(verify), "retrieval": retrieval,
                        "nprobe": int(nprobe)}
        self.k = int(k)
        self.max_len = plan.max_len
        self.stats = ClusterStats()
        self._pending: List[Tuple[Optional[int], tuple]] = []
        self._batch_counter = 0
        self._swap_counter = 0
        self._closed = False

        # Spool the plan once; every worker (and every respawn) loads it
        # from here instead of receiving a pickled object over a pipe.
        self._spool_dir = tempfile.mkdtemp(prefix="repro-cluster-")
        self._plan_path = os.path.join(self._spool_dir, "plan.pkl")
        payload = plan if quantize_spool is None \
            else quantize_plan(plan, quantize_spool)
        atomic_write_bytes(self._plan_path,
                           pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL))

        # Start every worker before awaiting any handshake, so the
        # workers load and verify the spool in parallel.
        fault_plans = dict(worker_fault_plans or {})
        started = [self._start(shard, fault_plans.get(shard))
                   for shard in range(self.num_workers)]
        self._workers: List[_Worker] = [self._handshake(worker)
                                        for worker in started]

    # ------------------------------------------------------------------
    # lifecycle
    def _start(self, shard: int, fault_plan: Optional[str]) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(shard, self._plan_path, dict(self._config), child_conn,
                  fault_plan),
            daemon=True, name=f"repro-serve-worker-{shard}")
        process.start()
        child_conn.close()
        return _Worker(shard, process, parent_conn)

    def _handshake(self, worker: _Worker) -> _Worker:
        """Wait for a started worker's ready (or failure) message."""
        shard, parent_conn = worker.shard, worker.conn
        if not parent_conn.poll(self.dispatch_timeout):
            raise RuntimeError(f"worker {shard} did not come up within "
                               f"{self.dispatch_timeout}s")
        tag, ready_shard, payload = parent_conn.recv()
        if tag == _FAILED:
            worker.process.join(timeout=5.0)
            parent_conn.close()
            raise RuntimeError(f"worker {shard} failed to load the plan "
                               f"spool: {payload}")
        if tag != _READY or ready_shard != shard:
            raise RuntimeError(f"worker {shard} sent unexpected "
                               f"handshake {tag!r}")
        return worker

    def _revive(self, shard: int) -> _Worker:
        """Replace a dead/hung worker with a fresh one (empty cache)."""
        old = self._workers[shard]
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5.0)
        old.conn.close()
        fresh = self._handshake(self._start(shard, fault_plan=None))
        self._workers[shard] = fresh
        self.stats.worker_restarts += 1
        return fresh

    def kill_worker(self, shard: int) -> None:
        """Hard-kill one worker (chaos/testing helper).

        The next flush that touches the shard detects the dead pipe,
        respawns the worker, and re-routes the batch.
        """
        self._workers[shard].process.kill()
        self._workers[shard].process.join(timeout=5.0)

    # ------------------------------------------------------------------
    # plan hot-swap
    def swap_plan(self, model_or_plan,
                  quantize_spool: Optional[str] = None) -> int:
        """Two-phase crash-safe hot swap; returns the new plan version.

        Phase 1 (*prepare*): the incoming plan is verified in the
        front-end, spooled atomically to a **versioned** path
        (``plan-v{n}.pkl``, never overwriting the serving spool), and
        every worker loads + re-verifies it into a pending slot — all
        workers at once: every prepare is sent before the first ack is
        read.  Any
        rejection — a corrupted spool, a verification failure, a worker
        that dies twice — aborts the whole swap with
        :class:`PlanSwapError` and the old plan still serving on every
        shard.

        Phase 2 (*commit*): once every worker has acknowledged, the
        respawn path is repointed at the new spool (the point of no
        return) and each worker adopts its prepared service.  A worker
        that dies between prepare and commit is revived from the
        repointed spool, so the cluster converges on the new version
        either way.  Workers swap between batches, never mid-batch, and
        the front-end queue survives — no request is dropped and none is
        answered by a retired plan after the swap returns.
        """
        if self._closed:
            raise RuntimeError("ClusterService is closed")
        incoming = prepare_plan(
            model_or_plan, verify=self._config.get("verify", True),
            ann=self._config.get("retrieval") == "ann")
        if not incoming.supports_encode:
            raise ValueError(
                f"{incoming.model_name} plan wraps a live model "
                "(fallback path) and cannot cross a process boundary")
        check_padding(incoming, self._config["padding"])
        self._swap_counter += 1
        version = self._swap_counter
        spool_path = os.path.join(self._spool_dir, f"plan-v{version}.pkl")
        payload = incoming if quantize_spool is None \
            else quantize_plan(incoming, quantize_spool)
        atomic_write_bytes(spool_path,
                           pickle.dumps(payload,
                                        protocol=pickle.HIGHEST_PROTOCOL),
                           site=SWAP_SPOOL_SITE)

        # Send every prepare before awaiting any ack, so the workers
        # load and verify the new spool in parallel (as at start-up).
        prepare = (_SWAP_PREPARE, version, spool_path)
        sent = [self._send(worker, prepare) for worker in self._workers]
        acks = [self._swap_ack(shard, prepare, sent[shard],
                               revive_retry=True)
                for shard in range(self.num_workers)]
        failed = [f"shard {shard}: {detail}"
                  for shard, (ok, detail) in enumerate(acks) if not ok]
        if failed:
            for shard, (ok, _) in enumerate(acks):
                if ok:
                    self._swap_request(shard, _SWAP_ABORT, version, None,
                                       revive_retry=False)
            raise PlanSwapError(
                f"swap v{version} aborted; every worker still serves "
                f"the previous plan ({'; '.join(failed)})")

        # Point of no return: revivals from here on load the new spool.
        self._plan_path = spool_path
        self.max_len = incoming.max_len
        for shard in range(self.num_workers):
            ok, _ = self._swap_request(shard, _SWAP_COMMIT, version, None,
                                       revive_retry=False)
            if not ok:
                # Died (or faulted) at commit: the respawn loads the
                # repointed spool, which IS the committed state.
                self._revive(shard)
        self.stats.plan_swaps += 1
        return version

    def _swap_request(self, shard: int, tag: str, swap_id: int,
                      spool_path: Optional[str], revive_retry: bool
                      ) -> Tuple[bool, str]:
        """Send one swap message and await its ack (see :meth:`_swap_ack`)."""
        message = (tag, swap_id, spool_path)
        return self._swap_ack(shard, message,
                              self._send(self._workers[shard], message),
                              revive_retry)

    def _swap_ack(self, shard: int, message: tuple, sent: bool,
                  revive_retry: bool) -> Tuple[bool, str]:
        """Await the ack of a swap ``message`` already sent to ``shard``
        (``sent`` False: the send found the pipe dead).

        With ``revive_retry`` (the prepare phase) a *dead* worker is
        revived — from the still-old serving spool — and the message
        retried once.  An explicit ``_SWAP_ERR`` reply is never retried:
        it is a verification verdict, not a crash.
        """
        swap_id = message[1]
        reply = (self._swap_reply(self._workers[shard], swap_id)
                 if sent else None)
        if reply is None:
            if not revive_retry:
                return False, "worker died"
            worker = self._revive(shard)
            if not self._send(worker, message):
                return False, "worker died after revival"
            reply = self._swap_reply(worker, swap_id)
            if reply is None:
                return False, "worker died after revival"
        return reply

    def _swap_reply(self, worker: _Worker, swap_id: int
                    ) -> Optional[Tuple[bool, str]]:
        """Await this swap's ack, skipping stale replies; None = dead."""
        while True:
            try:
                if not worker.conn.poll(self.dispatch_timeout):
                    return None
                tag, reply_id, detail = worker.conn.recv()
            except (EOFError, OSError):
                return None
            if tag == _SWAP_OK and reply_id == swap_id:
                return True, ""
            if tag == _SWAP_ERR and reply_id == swap_id:
                return False, str(detail)
            # Stale batch/stats reply from before the swap: skip it.

    def close(self) -> None:
        """Stop all workers and remove the plan spool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send((_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        shutil.rmtree(self._spool_dir, ignore_errors=True)

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # request API (mirrors RecommendService)
    def enqueue(self, user: Optional[int], sequence: Sequence[int]) -> int:
        """Queue one request; returns its index in the next flush."""
        seq = tuple(int(item) for item in sequence)
        if not seq:
            raise ValueError("cannot recommend from an empty sequence")
        if self.max_len is not None:
            seq = seq[-self.max_len:]
        self._pending.append((user, seq))
        self.stats.requests += 1
        return len(self._pending) - 1

    def recommend(self, user: Optional[int],
                  sequence: Sequence[int]) -> Recommendation:
        self.enqueue(user, sequence)
        return self.flush()[0]

    def recommend_many(self, requests: Sequence[Tuple[Optional[int],
                                                      Sequence[int]]]
                       ) -> List[Recommendation]:
        for user, sequence in requests:
            self.enqueue(user, sequence)
        return self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> List[Recommendation]:
        """Route the queue to its shards and gather every result.

        All shards are in flight concurrently: batches are sent first,
        replies collected after.  The queue drains only once every
        request has a result (success or error) — a dead worker answers
        via respawn + re-route, never by dropping requests.
        """
        if self._closed:
            raise RuntimeError("ClusterService is closed")
        pending = list(self._pending)
        if not pending:
            return []
        self.stats.flushes += 1
        results: List[Optional[Recommendation]] = [None] * len(pending)
        groups = self.router.partition(pending)
        in_flight: List[Tuple[int, List[int], list, int, bool]] = []
        for shard in sorted(groups):
            indices = groups[shard]
            batch = [pending[i] for i in indices]
            self.stats.shard_requests[shard] = (
                self.stats.shard_requests.get(shard, 0) + len(batch))
            batch_id = self._next_batch_id()
            sent = self._send(self._workers[shard], (_BATCH, batch_id,
                                                     batch))
            in_flight.append((shard, indices, batch, batch_id, sent))
        for shard, indices, batch, batch_id, sent in in_flight:
            reply = (self._receive(self._workers[shard], batch_id)
                     if sent else None)
            if reply is None:
                reply = self._reroute(shard, batch)
                if reply is not None:
                    self.stats.rerouted_requests += len(batch)
            self._scatter(results, indices, batch, reply)
        del self._pending[:len(pending)]
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # dispatch plumbing
    def _next_batch_id(self) -> int:
        self._batch_counter += 1
        self.stats.dispatches += 1
        return self._batch_counter

    @staticmethod
    def _send(worker: _Worker, message: tuple) -> bool:
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            return False
        return True

    def _receive(self, worker: _Worker, batch_id: int):
        """One shard's reply: wire results, a failure string, or None
        (worker dead/hung — caller revives and re-routes)."""
        while True:
            try:
                if not worker.conn.poll(self.dispatch_timeout):
                    return None                      # hung
                tag, reply_id, payload = worker.conn.recv()
            except (EOFError, OSError):
                return None                          # died mid-batch
            if tag == _RESULT and reply_id == batch_id:
                return payload
            if tag == _FAILED and reply_id == batch_id:
                return payload                       # failure string
            # Stale reply from a pre-revival batch: skip it.

    def _reroute(self, shard: int, batch: list):
        """Respawn a dead shard worker and retry its batch once."""
        fresh = self._revive(shard)
        batch_id = self._next_batch_id()
        if not self._send(fresh, (_BATCH, batch_id, batch)):
            return None
        return self._receive(fresh, batch_id)

    def _scatter(self, results: list, indices: List[int], batch: list,
                 reply) -> None:
        if isinstance(reply, list):
            Router.scatter(results, indices,
                           [_unwire(item) for item in reply])
            self.stats.errors += sum(
                1 for item in reply if item[-1] is not None)
            return
        error = (reply if isinstance(reply, str)
                 else "worker died and re-route failed")
        self.stats.errors += len(indices)
        for index, (user, _) in zip(indices, batch):
            results[index] = Recommendation(
                user=user, items=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
                error=f"shard worker: {error}")

    # ------------------------------------------------------------------
    def worker_stats(self) -> Dict[int, Optional[dict]]:
        """Per-shard ``ServiceStats`` snapshots (None for a dead shard)."""
        snapshots: Dict[int, Optional[dict]] = {}
        for worker in self._workers:
            if not self._send(worker, (_STATS, 0, None)):
                snapshots[worker.shard] = None
                continue
            try:
                if not worker.conn.poll(self.dispatch_timeout):
                    snapshots[worker.shard] = None
                    continue
                tag, shard, payload = worker.conn.recv()
            except (EOFError, OSError):
                snapshots[worker.shard] = None
                continue
            snapshots[worker.shard] = (payload if tag == _STATS
                                       else None)
        return snapshots
