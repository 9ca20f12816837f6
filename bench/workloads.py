"""The benchmark's four workloads, their inputs, and their output checks.

Every input comes from the ``seed`` argument: the request streams and
datasets are generated here, by the benchmark, so a change to the
program's own load tools cannot shift a workload.  Each workload sets
itself up ``SETUP_REPEATS`` times (``setup_s`` is the median), measures
for ``seconds``, then checks a seeded sample of its outputs against a
reference.

``serve-*`` drive an open loop: requests are due on a fixed schedule
whether or not earlier ones have finished, and each request's latency
runs from when it was due, so a stall is charged to the requests queued
behind it.  One thread generates and dispatches: it spins until the next
request is due, then sends everything due as one flush.  After the paced
window a closed loop sends full ``SATURATION_BATCH`` flushes back to back
to measure capacity.

``train-*`` run ``Trainer.fit`` until the time budget is spent; the
benchmark ends training at a step boundary through the loader the
trainer builds, and times evaluation passes through a delegating
evaluator, so training throughput excludes them.

A traced pass (``detail=True``) wraps the public calls into each layer
(see :mod:`bench.spans`) and derives the per-layer metrics listed in
``LAYER_METRICS``; metrics of layers a workload does not use read 0.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from bench.spans import (Summary, Tracer, batch_key, root_filter, root_of,
                         write_jsonl)

WORKLOADS = ("serve-session", "serve-cold", "train-ssdrec", "train-stream")

SETUP_REPEATS = 5
#: share of ``seconds`` spent warming up, at the nominal rate, and in the
#: closed-loop saturation phase.
WARMUP_SHARE, NOMINAL_SHARE, SATURATION_SHARE = 0.1, 0.55, 0.35
SATURATION_BATCH = 64
#: sizes the request pool generated before the saturation phase starts
#: (extended during the phase if the program is faster than this).
SATURATION_POOL_RPS = 6_000
CHECK_SAMPLE = 512
K = 10

#: Workload sizes.  ``smoke`` keeps every code path but shrinks the data
#: so the tier-1 tests can run all four workloads in seconds.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "serve-session": {"items": 30_000, "users": 20_000, "rate": 500.0},
        "serve-cold": {"dataset_scale": 5.0, "rate": 500.0},
        "train-ssdrec": {"dataset_scale": 0.7},
        "train-stream": {"dataset_scale": 0.1, "eval_users": 16_384},
    },
    "smoke": {
        "serve-session": {"items": 2_000, "users": 500, "rate": 200.0},
        "serve-cold": {"dataset_scale": 1.0, "rate": 200.0},
        "train-ssdrec": {"dataset_scale": 0.3},
        "train-stream": {"dataset_scale": 0.01, "eval_users": 1_024},
    },
}

#: Every per-layer metric and its unit.  ``BENCHMARK.json`` lists the
#: same names; ``bench/README.md`` maps each to the layer it times and
#: the end-to-end metric it should move.
NN_OPS = {"attention": "fused.attention", "lstm_sequence": "fused.lstm_sequence",
          "gru_sequence": "fused.gru_sequence", "linear": "fused.linear",
          "layer_norm": "fused.layer_norm", "dropout": "functional.dropout",
          "tensor.mul": "tensor.mul", "cross_entropy": "fused.cross_entropy"}
LAYER_METRICS: Dict[str, str] = {
    "loadgen.queue_wait_p50_ms": "ms",
    "loadgen.flush_size_p50": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.samples": "count",
    "serve.cluster.flush_p50_ms": "ms",
    "serve.cluster.flush_p99_ms": "ms",
    "serve.cluster.frontend_us_per_req": "us",
    "serve.cluster.transport_ms_per_flush": "ms",
    "serve.cluster.shard_imbalance": "ratio",
    "serve.router.partition_us_per_req": "us",
    "serve.service.busy_ms_per_flush": "ms",
    "serve.service.self_us_per_req": "us",
    "serve.service.cache_hit_ratio": "ratio",
    "serve.service.incremental_ratio": "ratio",
    "serve.service.evictions_per_req": "ratio",
    "data.batching.pad_us_per_req": "us",
    "serve.plan.encode_us_per_row": "us",
    "serve.plan.denoise_us_per_row": "us",
    "serve.plan.append_item_us": "us",
    "serve.plan.score_us_per_row": "us",
    "serve.retrieval.topk_us_per_row": "us",
    "train.steps": "count",
    "train.step_p50_ms": "ms",
    "train.step_p90_ms": "ms",
    "train.self_ms_per_step": "ms",
    "data.loader.next_ms_per_step": "ms",
    "models.loss_fwd_ms_per_step": "ms",
    "models.backbone_fwd_ms_per_step": "ms",
    "core.encoder_fwd_ms_per_step": "ms",
    "core.augmentation_fwd_ms_per_step": "ms",
    "core.hierarchical_fwd_ms_per_step": "ms",
    "nn.backward_ms_per_step": "ms",
    "nn.clip_ms_per_step": "ms",
    "nn.optim.step_ms_per_step": "ms",
    **{f"nn.op.{op}.{way}_ms_per_step": "ms"
       for op in NN_OPS for way in ("fwd", "bwd")},
    "eval.pass_ms": "ms",
    "eval.users_per_s": "1/s",
    "eval.score_us_per_user": "us",
    "eval.rank_us_per_user": "us",
    "eval.hr10": "ratio",
    "data.generate_s": "s",
    "data.k_core_s": "s",
    "data.split_s": "s",
    "graph.build_s": "s",
    "serve.freeze_s": "s",
    "serve.cluster.spawn_s": "s",
    "trace.child_coverage_pct": "%",
    "trace.overhead_pct": "%",
}
SETUP_PHASES = ("data.generate", "data.k_core", "data.split", "graph.build",
                "serve.freeze", "serve.cluster.spawn")


# ----------------------------------------------------------------------
# results
@dataclass
class PassResult:
    """One set-up + measurement pass of a workload."""

    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)


class SetupClock:
    """Times named set-up phases across the repeated set-ups."""

    def __init__(self):
        self.runs: List[Dict[str, float]] = []

    def start(self) -> None:
        self.runs.append({})

    def time(self, phase: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.runs[-1][phase] = (self.runs[-1].get(phase, 0.0)
                                + time.perf_counter() - start)
        return result

    def median(self, phase: str) -> float:
        return statistics.median(run.get(phase, 0.0) for run in self.runs)


def _repeat_setup(setup: Callable, clock: SetupClock):
    """Run ``setup`` SETUP_REPEATS times, keep the last state, and return
    it with the median set-up time."""
    durations, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
            state = None
        clock.start()
        start = time.perf_counter()
        state = setup(clock)
        durations.append(time.perf_counter() - start)
    return state, statistics.median(durations)


def _percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1e3


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# request generators
class SessionStream:
    """Continuing session traffic: Zipf-popular users whose sequences grow.

    A new user arrives with 1-3 random items; a returning user appends one
    item with probability ``append_p`` and otherwise repeats exactly.
    """

    def __init__(self, rng: np.random.Generator, users: int, items: int,
                 max_len: int, exponent: float = 1.1, append_p: float = 0.6):
        weights = np.arange(1, users + 1, dtype=np.float64) ** -exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng, self.items, self.max_len = rng, items, max_len
        self.append_p = append_p
        #: user -> the last ``max_len`` items, as a tuple of ints: the
        #: collector stops tracking such tuples, so the stream adds no
        #: garbage-collection pauses to the front end it drives.
        self.sessions: Dict[int, tuple] = {}

    def take(self, count: int) -> list:
        rng = self.rng
        users = np.searchsorted(self.cdf, rng.random(count), side="right")
        users = np.minimum(users, self.cdf.shape[0] - 1)
        appends = rng.random(count) < self.append_p
        fresh = rng.integers(1, self.items + 1, size=(count, 3))
        starts = rng.integers(1, 4, size=count)
        out = []
        for n, user in enumerate(users.tolist()):
            seq = self.sessions.get(user)
            if seq is None:
                seq = tuple(fresh[n, :starts[n]].tolist())
            elif appends[n]:
                seq = (seq + (int(fresh[n, 0]),))[-self.max_len:]
            self.sessions[user] = seq
            out.append((user, seq))
        return out


class ColdStream:
    """Fresh requests: uniform user, uniform length, uniform items."""

    def __init__(self, rng: np.random.Generator, users: int, items: int,
                 min_len: int = 5, max_len: int = 50):
        self.rng, self.users, self.items = rng, users, items
        self.min_len, self.max_len = min_len, max_len

    def take(self, count: int) -> list:
        rng = self.rng
        users = rng.integers(1, self.users + 1, size=count)
        lengths = rng.integers(self.min_len, self.max_len + 1, size=count)
        items = rng.integers(1, self.items + 1, size=(count, self.max_len))
        return [(int(users[n]), tuple(items[n, :lengths[n]].tolist()))
                for n in range(count)]


# ----------------------------------------------------------------------
# load generation
class Sample:
    """Seeded uniform sample of at most ``CHECK_SAMPLE`` answered requests
    (reservoir sampling), so the benchmark holds a few hundred results
    instead of every one."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.items: list = []
        self.seen = 0

    def offer(self, request, result) -> None:
        if len(self.items) < CHECK_SAMPLE:
            self.items.append((request, result))
        else:
            slot = self.rng.randrange(self.seen + 1)
            if slot < CHECK_SAMPLE:
                self.items[slot] = (request, result)
        self.seen += 1


@dataclass
class Traffic:
    requests: int = 0
    failed: int = 0
    latency: np.ndarray = field(default_factory=lambda: np.empty(0))
    wait: np.ndarray = field(default_factory=lambda: np.empty(0))
    sizes: List[int] = field(default_factory=list)
    #: wall time of each flush (saturation phase).
    durations: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    seconds: float = 0.0


def paced(service, requests: list, rate: float, tracer: Tracer,
          answered: Optional[Sample]) -> Traffic:
    """Open loop at ``rate`` requests/s over the given request list."""
    count = len(requests)
    latency = np.empty(count)
    wait = np.empty(count)
    traffic = Traffic(requests=count)
    due = time.perf_counter() + 0.001 + np.arange(count) / rate
    i = flush = 0
    while i < count:
        now = time.perf_counter()
        if due[i] > now:
            # Spin rather than sleep: on a virtual machine a sleeping vCPU
            # is halted and wakes slowly, which added 0.5-2 ms to a
            # single request and made it swing with the neighbours' load.
            while now < due[i]:
                now = time.perf_counter()
            traffic.lags.append(now - due[i])
        j = max(i + 1, int(np.searchsorted(due, now, side="right")))
        tracer.trace = flush
        results = service.recommend_many(requests[i:j])
        done = time.perf_counter()
        wait[i:j] = now - due[i:j]
        latency[i:j] = done - due[i:j]
        for offset, rec in enumerate(results):
            if rec.failed:
                latency[i + offset] = np.inf
                traffic.failed += 1
            elif answered is not None:
                answered.offer(requests[i + offset], rec)
        traffic.sizes.append(j - i)
        flush += 1
        i = j
    traffic.latency, traffic.wait = latency, wait
    traffic.seconds = time.perf_counter() - due[0]
    return traffic


def saturate(service, stream, seconds: float, answered: Sample) -> Traffic:
    """Closed loop: full flushes back to back for ``seconds``."""
    pool = stream.take(int(seconds * SATURATION_POOL_RPS) + SATURATION_BATCH)
    traffic = Traffic()
    start = time.perf_counter()
    end = start + seconds
    last = start
    i = 0
    while last < end or traffic.requests == 0:
        if i + SATURATION_BATCH > len(pool):
            pool.extend(stream.take(64 * SATURATION_BATCH))
        chunk = pool[i:i + SATURATION_BATCH]
        sent = time.perf_counter()
        results = service.recommend_many(chunk)
        last = time.perf_counter()
        traffic.durations.append(last - sent)
        traffic.sizes.append(len(chunk))
        for request, rec in zip(chunk, results):
            if rec.failed:
                traffic.failed += 1
            else:
                answered.offer(request, rec)
        traffic.requests += len(chunk)
        i += SATURATION_BATCH
    return traffic


# ----------------------------------------------------------------------
# serving workloads
@dataclass
class Served:
    service: object
    stream: object
    rate: float
    check: Callable[[list], List[str]]
    close: Callable[[], None]
    cluster: bool


def _service_counters(served: Served) -> Dict[str, float]:
    if served.cluster:
        totals: Dict[str, float] = {}
        for snapshot in served.service.worker_stats().values():
            for key, value in (snapshot or {}).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        totals["shards"] = dict(served.service.stats.shard_requests)
        return totals
    return served.service.stats.as_dict()


def setup_session(params: dict, seed: int, clock: SetupClock) -> Served:
    from repro.models import SASRec
    from repro.serve import freeze
    from repro.serve.cluster import ClusterService
    from repro.serve.service import RecommendService

    model = SASRec(params["items"], dim=32, max_len=30,
                   rng=np.random.default_rng(seed))
    plan = clock.time("serve.freeze", freeze, model)
    service = clock.time("serve.cluster.spawn", ClusterService, plan,
                         num_workers=2, padding="tight", cache_size=4096, k=K)
    stream = SessionStream(np.random.default_rng(seed + 1), params["users"],
                           params["items"], plan.max_len)

    def check(sample: list) -> List[str]:
        reference = RecommendService(plan, k=K, padding="tight",
                                     cache_size=0, verify=False)
        expected = []
        for at in range(0, len(sample), SATURATION_BATCH):
            expected += reference.recommend_many(
                [request for request, _ in sample[at:at + SATURATION_BATCH]])
        wrong = []
        for (request, got), ref in zip(sample, expected):
            if not (np.array_equal(got.items, ref.items)
                    and np.allclose(got.scores, ref.scores, rtol=0,
                                    atol=1e-9)):
                wrong.append(f"user {request[0]}: items/scores differ "
                             "from a cache-free single-process service")
        return wrong

    return Served(service, stream, params["rate"], check, service.close,
                  cluster=True)


def setup_cold(params: dict, seed: int, clock: SetupClock) -> Served:
    from repro.core import SSDRec, SSDRecConfig
    from repro.data import generate
    from repro.data.batching import pad_sequences
    from repro.graph.multi_relation import build_multi_relation_graph
    from repro.nn import no_grad
    from repro.serve import freeze
    from repro.serve.service import RecommendService

    dataset = clock.time("data.generate", generate, "ml-1m", seed=seed,
                         scale=params["dataset_scale"])
    graph = clock.time("graph.build", build_multi_relation_graph, dataset)
    config = SSDRecConfig(dim=32, max_len=50, augment_threshold=32,
                          target_drop_rate=0.2)
    model = SSDRec(dataset, config=config, graph=graph,
                   rng=np.random.default_rng(seed))
    plan = clock.time("serve.freeze", freeze, model)
    service = RecommendService(plan, k=K, padding="model", cache_size=1024)
    stream = ColdStream(np.random.default_rng(seed + 1), dataset.num_users,
                        dataset.num_items, max_len=plan.max_len)

    def check(sample: list) -> List[str]:
        items, mask, _ = pad_sequences([list(req[1]) for req, _ in sample],
                                       max_len=plan.max_len)
        users = np.array([req[0] for req, _ in sample])
        model.eval()
        with no_grad():
            logits = model.forward(items, mask, users=users).data
        top = -np.partition(-logits, K - 1, axis=1)[:, :K]
        top = -np.sort(-top, axis=1)
        wrong = []
        for row, (request, got) in enumerate(sample):
            if not (got.items.shape == (K,)
                    and np.allclose(logits[row, got.items], got.scores,
                                    rtol=0, atol=1e-6)
                    and np.allclose(top[row], got.scores, rtol=0,
                                    atol=1e-6)):
                wrong.append(f"user {request[0]}: top-{K} differs from "
                             "the graph model beyond ties")
        return wrong

    return Served(service, stream, params["rate"], check, lambda: None,
                  cluster=False)


def _install_serving(tracer: Tracer) -> None:
    """Wrap the public calls into each serving layer."""
    from repro.serve import service as service_module
    from repro.serve.cluster import ClusterService
    from repro.serve.plan import FrozenPlan, SASRecPlan, SSDRecPlan
    from repro.serve.router import Router
    from repro.serve.service import RecommendService

    def rows(_self, items, *args, **kwargs):
        return {"rows": int(np.shape(items)[0])}

    def shard_batches(groups, _self, requests):
        return {"batches": [[batch_key([requests[i] for i in indices]),
                             shard, len(indices)]
                            for shard, indices in groups.items()]}

    tracer.wrap(ClusterService, "flush", "serve.cluster.flush")
    tracer.wrap(Router, "partition", "serve.router.partition",
                after=shard_batches)
    tracer.wrap(ClusterService, "_send", "serve.cluster.send")
    tracer.wrap(ClusterService, "_receive", "serve.cluster.wait")
    tracer.wrap(ClusterService, "_scatter", "serve.cluster.merge")
    tracer.wrap(RecommendService, "flush", "serve.service.flush",
                before=lambda self: {"key": batch_key(self._pending),
                                     "rows": len(self._pending)})
    tracer.wrap(service_module, "pad_sequences", "data.batching.pad",
                before=lambda seqs, *a, **k: {"rows": len(seqs)})
    for owner, attr in ((FrozenPlan, "encode"), (SSDRecPlan, "encode"),
                        (SASRecPlan, "encode_tight"),
                        (SASRecPlan, "encode_tight_with_state")):
        tracer.wrap(owner, attr, "serve.plan.encode", before=rows)
    tracer.wrap(SSDRecPlan, "sequence_states", "serve.plan.denoise")
    tracer.wrap(SSDRecPlan, "_gate_keep", "serve.plan.denoise")
    tracer.wrap(SASRecPlan, "append_item", "serve.plan.append_item")
    tracer.wrap(FrozenPlan, "score", "serve.plan.score", before=rows)
    tracer.wrap(service_module, "topk_from_scores", "serve.retrieval.topk",
                before=lambda scores, *a, **k: {"rows": len(scores)})


def _serving_layers(served: Served, tracer: Tracer, traffic: Traffic,
                    before: dict, after: dict) -> Dict[str, float]:
    layers: Dict[str, float] = {
        "loadgen.queue_wait_p50_ms": _percentile_ms(traffic.wait, 50),
        "loadgen.flush_size_p50": float(np.median(traffic.sizes)),
        "loadgen.lag_p99_ms": (_percentile_ms(traffic.lags, 99)
                               if traffic.lags else 0.0),
        "loadgen.latency_p99_ms": _percentile_ms(traffic.latency, 99),
        "loadgen.samples": float(traffic.requests),
    }
    requests = max(after["requests"] - before["requests"], 1)
    for key, name in (("cache_hits", "serve.service.cache_hit_ratio"),
                      ("incremental_hits", "serve.service.incremental_ratio"),
                      ("evictions", "serve.service.evictions_per_req")):
        layers[name] = (after[key] - before[key]) / requests

    front = tracer.spans
    if served.cluster:
        shards = {s: after["shards"].get(s, 0) - before["shards"].get(s, 0)
                  for s in after["shards"]}
        layers["serve.cluster.shard_imbalance"] = (
            max(shards.values()) / max(np.mean(list(shards.values())), 1e-9))
        fsum = Summary(front)
        flushes = fsum.durations("serve.cluster.flush")
        reqs = max(traffic.requests, 1)
        layers["serve.cluster.flush_p50_ms"] = _percentile_ms(flushes, 50)
        layers["serve.cluster.flush_p99_ms"] = _percentile_ms(flushes, 99)
        layers["serve.cluster.frontend_us_per_req"] = 1e6 * (
            fsum.self_total("serve.cluster.flush")
            + fsum.total("serve.cluster.send")
            + fsum.total("serve.cluster.merge")) / reqs
        layers["serve.router.partition_us_per_req"] = (
            1e6 * fsum.total("serve.router.partition") / reqs)
        layers["trace.child_coverage_pct"] = (
            100.0 * fsum.child_total("serve.cluster.flush")
            / max(fsum.total("serve.cluster.flush"), 1e-12))
        # Match each worker batch to the flush that sent it.
        owner: Dict[int, object] = {}
        for index in fsum.indices("serve.router.partition"):
            for key, _, _ in front[index].attrs["batches"]:
                owner[key] = front[index].trace
        spans = tracer.worker_spans()
        roots = {i for i, s in enumerate(spans)
                 if s.parent < 0 and s.attrs.get("key") in owner}
        root = root_of(spans)
        service = Summary(spans, keep=lambda i: root(i) in roots)
        busiest: Dict[object, float] = {}
        for index in service.indices("serve.service.flush"):
            trace = owner[spans[index].attrs["key"]]
            busiest[trace] = max(busiest.get(trace, 0.0),
                                 spans[index].duration)
        waits: Dict[object, float] = {}
        for index in fsum.indices("serve.cluster.wait"):
            waits[front[index].trace] = (waits.get(front[index].trace, 0.0)
                                         + front[index].duration)
        transport = [waits[t] - busiest.get(t, 0.0) for t in waits]
        layers["serve.cluster.transport_ms_per_flush"] = (
            1e3 * float(np.mean(transport)) if transport else 0.0)
    else:
        service = Summary(front)
        layers["trace.child_coverage_pct"] = (
            100.0 * service.child_total("serve.service.flush")
            / max(service.total("serve.service.flush"), 1e-12))
    rows = max(service.attr_total("serve.service.flush", "rows"), 1.0)
    layers["serve.service.busy_ms_per_flush"] = 1e3 * float(
        np.mean(service.durations("serve.service.flush")))
    layers["serve.service.self_us_per_req"] = (
        1e6 * service.self_total("serve.service.flush") / rows)
    layers["data.batching.pad_us_per_req"] = (
        1e6 * service.total("data.batching.pad") / rows)
    for name, metric in (("serve.plan.encode", "serve.plan.encode_us_per_row"),
                         ("serve.plan.score", "serve.plan.score_us_per_row"),
                         ("serve.retrieval.topk",
                          "serve.retrieval.topk_us_per_row")):
        layers[metric] = (1e6 * service.total(name)
                          / max(service.attr_total(name, "rows"), 1.0))
    encoded = max(service.attr_total("serve.plan.encode", "rows"), 1.0)
    layers["serve.plan.denoise_us_per_row"] = (
        1e6 * service.total("serve.plan.denoise") / encoded)
    appends = service.durations("serve.plan.append_item")
    layers["serve.plan.append_item_us"] = (
        1e6 * float(appends.mean()) if appends.size else 0.0)
    return layers


def serve_pass(name: str, params: dict, seed: int, seconds: float,
               tracer: Tracer) -> PassResult:
    setup = setup_session if name == "serve-session" else setup_cold
    if tracer.detail:
        _install_serving(tracer)
    clock = SetupClock()
    served, setup_s = _repeat_setup(
        lambda c: setup(params, seed, c), clock)
    result = PassResult()
    try:
        rate = served.rate
        answered = Sample(seed + 2)
        tracer.enabled = False
        warm = paced(served.service,
                     served.stream.take(max(1, int(rate * seconds
                                                   * WARMUP_SHARE))),
                     rate, tracer, None)
        nominal_requests = served.stream.take(
            max(1, int(rate * seconds * NOMINAL_SHARE)))
        before = _service_counters(served)
        tracer.enabled = tracer.detail
        nominal = paced(served.service, nominal_requests, rate, tracer,
                        answered)
        tracer.enabled = False
        after = _service_counters(served)
        saturation = saturate(served.service, served.stream,
                              seconds * SATURATION_SHARE, answered)
        wrong = served.check(answered.items)
        result.checks += wrong[:5]
        result.attempted = warm.requests + nominal.requests \
            + saturation.requests
        result.failed = (warm.failed + nominal.failed + saturation.failed
                         + len(wrong))
        if warm.failed + nominal.failed + saturation.failed:
            result.checks.append("error results returned")
        result.metrics = {
            "setup_s": setup_s,
            "p50_ms": _percentile_ms(nominal.latency, 50),
            "throughput_per_s": (sum(saturation.sizes)
                                 / sum(saturation.durations)),
        }
        result.info = {
            "nominal_rps": rate,
            "latency_samples": nominal.requests,
            "latency_p95_ms": _percentile_ms(nominal.latency, 95),
            "latency_p99_ms": _percentile_ms(nominal.latency, 99),
            "achieved_rps": nominal.requests / max(nominal.seconds, 1e-9),
            "saturation_requests": saturation.requests,
            "checked": len(answered.items),
            "lag_p99_ms": (_percentile_ms(nominal.lags, 99)
                           if nominal.lags else 0.0),
        }
        if tracer.detail:
            result.layers = _serving_layers(served, tracer, nominal,
                                            before, after)
    finally:
        served.close()
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    for phase in SETUP_PHASES:
        result.layers.setdefault(phase + "_s", clock.median(phase))
    return result


# ----------------------------------------------------------------------
# training workloads
class StopTraining(Exception):
    """Raised by the step clock once the time budget is spent."""


class StepClock:
    """Proxy for the loader ``Trainer`` builds: one ``train.step`` span
    per batch (from asking for the batch to asking for the next one), and
    the end of training once ``seconds`` of non-evaluation time passed."""

    def __init__(self, loader, tracer: Tracer, deadline: float,
                 evaluator: "TimedEvaluator"):
        self.loader, self.tracer = loader, tracer
        self.deadline, self.evaluator = deadline, evaluator
        self.steps = 0

    def __iter__(self):
        inner = iter(self.loader)
        while True:
            start = time.perf_counter()
            self.tracer.end_step(start)
            if start - self.evaluator.seconds >= self.deadline:
                raise StopTraining
            try:
                batch = next(inner)
            except StopIteration:
                return
            self.tracer.begin_step(start, self.steps,
                                   rows=int(batch.targets.shape[0]))
            self.steps += 1
            if self.tracer.detail:
                self.tracer.record("data.loader.next", start,
                                   time.perf_counter())
            yield batch


class TimedEvaluator:
    """Delegates to an evaluator and times each pass as ``eval.pass``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner, self.tracer = inner, tracer
        self.seconds = 0.0
        self.users = (getattr(inner, "num_examples", None)
                      or len(inner.loader.examples))

    def evaluate(self, model, fast=None):
        from repro.nn.profiler import profiler

        profiling = profiler.enabled
        profiler.disable()
        start = time.perf_counter()
        index = self.tracer.open("eval.pass", rows=self.users)
        try:
            return self.inner.evaluate(model, fast=fast)
        finally:
            self.tracer.close(index)
            self.seconds += time.perf_counter() - start
            if profiling:
                profiler.enable()


@dataclass
class Trained:
    model: object
    split: object
    batch_size: int
    loss_fn: Callable
    evaluator: object
    final_evaluator: object
    close: Callable[[], None]


def setup_ssdrec(params: dict, seed: int, clock: SetupClock) -> Trained:
    from repro.core import SSDRec
    from repro.data import generate, leave_one_out_split
    from repro.eval import Evaluator
    from repro.experiments.config import SCALES, max_len_for
    from repro.graph.multi_relation import build_multi_relation_graph
    from repro.registry import ssdrec_default_config

    scale = SCALES["quick"]
    max_len = max_len_for("ml-1m", scale)
    dataset = clock.time("data.generate", generate, "ml-1m", seed=seed,
                         scale=params["dataset_scale"])
    split = clock.time("data.split", leave_one_out_split, dataset,
                       max_len=max_len, augment_prefixes=True)
    graph = clock.time("graph.build", build_multi_relation_graph, dataset)
    model = SSDRec(dataset, config=ssdrec_default_config(scale, max_len),
                   graph=graph, rng=np.random.default_rng(seed))
    return Trained(model, split, scale.batch_size, model.loss,
                   Evaluator(split.valid, batch_size=scale.batch_size,
                             max_len=max_len),
                   Evaluator(split.test, batch_size=scale.batch_size,
                             max_len=max_len),
                   lambda: None)


def setup_stream(params: dict, seed: int, clock: SetupClock,
                 scratch: Path) -> Trained:
    from repro.data import (generate_to_store, stream_k_core_filter,
                            streaming_leave_one_out)
    from repro.eval import StreamingEvaluator
    from repro.models import GRU4Rec

    root = scratch / f"store-{len(clock.runs)}"
    raw = clock.time("data.generate", generate_to_store, "scale-1m",
                     root / "raw", seed=seed, scale=params["dataset_scale"])
    core = clock.time("data.k_core", stream_k_core_filter, raw,
                      root / "core5", min_seq_len=5, min_item_freq=5)
    split = clock.time("data.split", streaming_leave_one_out, core,
                       max_len=30)
    model = GRU4Rec(core.num_items, dim=32, max_len=30,
                    rng=np.random.default_rng(seed))
    evaluator = StreamingEvaluator(split.valid.take(params["eval_users"]),
                                   batch_size=1024, max_len=30,
                                   score_chunk=256)
    return Trained(model, split, 1024,
                   lambda batch: model.sampled_loss(batch, 128),
                   evaluator, evaluator,
                   lambda: shutil.rmtree(root, ignore_errors=True))


def _install_training(tracer: Tracer) -> None:
    from repro.core.augmentation import SelfAugmentation
    from repro.core.encoder import GlobalRelationEncoder
    from repro.core.hierarchical import HierarchicalDenoising
    from repro.eval import evaluator as evaluator_module
    from repro.models import GRU4Rec, SASRec
    from repro.nn import Adam, Tensor
    from repro.train import trainer as trainer_module

    tracer.wrap(Adam, "zero_grad", "nn.optim.zero_grad")
    tracer.wrap(Adam, "step", "nn.optim.step")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(trainer_module, "clip_grad_norm", "nn.clip")
    tracer.wrap(SASRec, "encode_states", "models.backbone")
    tracer.wrap(GRU4Rec, "encode_states", "models.backbone")
    tracer.wrap(GlobalRelationEncoder, "forward", "core.encoder")
    tracer.wrap(SelfAugmentation, "forward", "core.augmentation")
    tracer.wrap(HierarchicalDenoising, "forward", "core.hierarchical")
    tracer.wrap(evaluator_module, "ranks_from_scores", "eval.rank")


def train_pass(name: str, params: dict, seed: int, seconds: float,
               tracer: Tracer, scratch: Path) -> PassResult:
    from repro.nn.profiler import profiler
    from repro.train import TrainConfig, Trainer
    from repro.train import trainer as trainer_module

    if name == "train-ssdrec":
        def setup(clock):
            return setup_ssdrec(params, seed, clock)
    else:
        def setup(clock):
            return setup_stream(params, seed, clock, scratch)
    if tracer.detail:
        _install_training(tracer)
    clock = SetupClock()
    state, setup_s = _repeat_setup(setup, clock)
    result = PassResult()
    try:
        evaluator = TimedEvaluator(state.evaluator, tracer)
        losses: List[float] = []

        def loss_fn(batch):
            index = tracer.open("models.loss") if tracer.detail else None
            loss = state.loss_fn(batch)
            if index is not None:
                tracer.close(index)
            losses.append(float(loss.data))
            return loss

        def clocked(build):
            def build_clocked(*args, **kwargs):
                return StepClock(build(*args, **kwargs), tracer,
                                 start + seconds, evaluator)
            return build_clocked

        tracer.replace(trainer_module, "build_loader", clocked)
        config = TrainConfig(epochs=10 ** 9, batch_size=state.batch_size,
                             patience=10 ** 9, seed=seed)
        trainer = Trainer(state.model, state.split, config, loss_fn=loss_fn,
                          evaluator=evaluator)
        if tracer.detail:
            profiler.reset()
            profiler.enable()
        start = time.perf_counter()
        try:
            trainer.fit()
            raise RuntimeError("training ended before its time budget")
        except StopTraining:
            pass
        finally:
            profiler.disable()
        in_fit_eval = evaluator.seconds
        final = (evaluator if state.final_evaluator is state.evaluator
                 else TimedEvaluator(state.final_evaluator, tracer))
        metrics = final.evaluate(state.model)

        steps = [s for s in tracer.spans if s.name == "train.step"]
        durations = np.array([s.duration for s in steps])
        examples = sum(s.attrs["rows"] for s in steps)
        nonfinite = int(sum(not np.isfinite(v) for v in losses))
        result.attempted = len(steps)
        result.failed = nonfinite
        if nonfinite:
            result.checks.append(f"{nonfinite} steps had a non-finite loss")
        if not np.isfinite(metrics["HR@10"]):
            result.checks.append("HR@10 is not finite")
        result.metrics = {
            "setup_s": setup_s,
            "p50_ms": _percentile_ms(durations, 50),
            "throughput_per_s": float(examples / durations.sum()),
        }
        result.info = {"steps": len(steps), "examples": examples,
                       "step_p90_ms": _percentile_ms(durations, 90),
                       "hr10": metrics["HR@10"],
                       "in_fit_eval_s": in_fit_eval,
                       "first_loss": losses[0], "last_loss": losses[-1]}
        if tracer.detail:
            result.layers = _training_layers(tracer, durations, profiler,
                                             metrics["HR@10"])
    finally:
        state.close()
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    for phase in SETUP_PHASES:
        result.layers.setdefault(phase + "_s", clock.median(phase))
    return result


def _training_layers(tracer: Tracer, durations: np.ndarray, profiler,
                     hr10: float) -> Dict[str, float]:
    spans = tracer.spans
    steps = max(len(durations), 1)
    in_step = Summary(spans, keep=root_filter(spans, "train.step"))
    layers: Dict[str, float] = {
        "train.steps": float(len(durations)),
        "train.step_p50_ms": _percentile_ms(durations, 50),
        "train.step_p90_ms": _percentile_ms(durations, 90),
        "train.self_ms_per_step": 1e3 * in_step.self_total("train.step") / steps,
        "trace.child_coverage_pct": 100.0 * in_step.child_total("train.step")
        / max(in_step.total("train.step"), 1e-12),
    }
    for span, metric in (
            ("data.loader.next", "data.loader.next_ms_per_step"),
            ("models.loss", "models.loss_fwd_ms_per_step"),
            ("models.backbone", "models.backbone_fwd_ms_per_step"),
            ("core.encoder", "core.encoder_fwd_ms_per_step"),
            ("core.augmentation", "core.augmentation_fwd_ms_per_step"),
            ("core.hierarchical", "core.hierarchical_fwd_ms_per_step"),
            ("nn.backward", "nn.backward_ms_per_step"),
            ("nn.clip", "nn.clip_ms_per_step"),
            ("nn.optim.step", "nn.optim.step_ms_per_step")):
        layers[metric] = 1e3 * in_step.self_total(span) / steps
    stats = profiler.as_dict()
    for op, key in NN_OPS.items():
        stat = stats.get(key, {})
        layers[f"nn.op.{op}.fwd_ms_per_step"] = (
            1e3 * stat.get("forward_seconds", 0.0) / steps)
        layers[f"nn.op.{op}.bwd_ms_per_step"] = (
            1e3 * stat.get("backward_seconds", 0.0) / steps)
    evals = Summary(spans, keep=root_filter(spans, "eval.pass"))
    users = max(evals.attr_total("eval.pass", "rows"), 1.0)
    passes = evals.total("eval.pass")
    ranking = evals.total("eval.rank")
    layers.update({
        "eval.pass_ms": 1e3 * float(np.mean(evals.durations("eval.pass"))),
        "eval.users_per_s": users / max(passes, 1e-12),
        "eval.score_us_per_user": 1e6 * (passes - ranking) / users,
        "eval.rank_us_per_user": 1e6 * ranking / users,
        "eval.hr10": float(hr10),
    })
    return layers


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str, scratch: Path,
                 spans_path: Optional[Path] = None) -> dict:
    """Run one workload; return the record ``bench/run.py`` prints for it.

    With ``trace`` a second, traced pass follows the untraced one; its
    spans go to ``spans_path`` as JSON lines and ``trace.overhead_pct``
    compares the two passes' ``p50_ms``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; options: {WORKLOADS}")
    params = SIZES[size][name]

    def one_pass(detail: bool) -> PassResult:
        tracer = Tracer(scratch / ("spans-detail" if detail else "spans"),
                        detail=detail)
        try:
            if name.startswith("serve-"):
                outcome = serve_pass(name, params, seed, seconds, tracer)
            else:
                outcome = train_pass(name, params, seed, seconds, tracer,
                                     scratch)
        finally:
            tracer.uninstall()
        outcome.info["tracer"] = tracer
        return outcome

    base = one_pass(detail=False)
    base.info.pop("tracer")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "size": size, "attempted": base.attempted,
              "failed": base.failed, "checks": base.checks,
              "metrics": base.metrics, "info": base.info}
    if trace:
        traced = one_pass(detail=True)
        tracer = traced.info.pop("tracer")
        layers = {name: 0.0 for name in LAYER_METRICS}
        layers.update(traced.layers)
        layers["trace.overhead_pct"] = 100.0 * (
            traced.metrics["p50_ms"] / base.metrics["p50_ms"] - 1.0)
        record.update(attempted=base.attempted + traced.attempted,
                      failed=base.failed + traced.failed,
                      checks=base.checks + traced.checks,
                      layers=layers, traced_metrics=traced.metrics)
        if spans_path is not None:
            write_jsonl(spans_path, {"main": tracer.spans,
                                     "workers": tracer.worker_spans()})
    return record
