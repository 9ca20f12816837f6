#!/usr/bin/env python
"""Online-learning smoke gate: event log -> fine-tune -> hot-swap.

Drives the full online loop on a small synthetic stream and gates on
its three contracts:

1. **stream fine-tune** — events arrive in temporally ordered waves
   through the append-only :class:`~repro.data.eventlog.EventLog`; after
   each wave a memoized :class:`~repro.train.FineTuneStore` job trains
   on the materialized log.  Every wave's model must be bitwise
   identical to a *full-retrain oracle* (a plain ``Trainer`` run on the
   same materialized dataset — the store's crash safety and memoization
   must add nothing to the weights), and re-triggering a job on an
   unchanged log must be a pure cache hit.
2. **incremental serving state** — a tight-padding service answers a
   per-user append stream past ``max_len``: the recurrent backbone must
   keep rolling through the window rollover (``incremental_hits > 0``
   at max_len) and the attention backbone must serve its grow phase from
   cached KV prefixes, with zero counted incremental failures.
3. **swap chaos** — a :class:`~repro.serve.ClusterService` absorbs a
   request burst, hot-swaps to the fine-tuned plan mid-stream while one
   worker is hard-killed at the swap prepare site, then absorbs another
   burst.  Zero requests may drop across the swap, and every post-swap
   answer must be bitwise identical to a cold single-process service
   running the new plan on the same per-shard batches (zero stale
   answers from the old plan).

Writes machine-readable results to ``BENCH_online.json`` and exits
nonzero on any gate failure:

    PYTHONPATH=src python scripts/online_smoke.py [--trials N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.report import finish, write_json_report  # noqa: E402
from repro.data import open_event_log  # noqa: E402
from repro.data import leave_one_out_split  # noqa: E402
from repro.models import SASRec  # noqa: E402
from repro.registry import model_spec  # noqa: E402
from repro.resilience import (Fault, FaultPlan,  # noqa: E402
                              SWAP_PREPARE_SITE)
from repro.serve import (ClusterService, RecommendService,  # noqa: E402
                         Router, freeze)
from repro.train import (FineTuneStore, Trainer,  # noqa: E402
                         dataset_from_log, fine_tune_spec)

NUM_USERS = 14
NUM_ITEMS = 30
MAX_LEN = 10
WAVES = 3
EVENTS_PER_WAVE = 60
SERVE_BURST = 16


def stream_spec():
    return fine_tune_spec(model_spec("GRU4Rec"), scale="smoke", seed=0,
                          max_len=MAX_LEN, train={"epochs": 2})


def synthetic_waves(seed):
    """A temporally ordered event stream cut into append waves."""
    rng = np.random.default_rng(seed)
    users = rng.integers(1, NUM_USERS + 1, WAVES * EVENTS_PER_WAVE)
    items = rng.integers(1, NUM_ITEMS + 1, WAVES * EVENTS_PER_WAVE)
    stamps = np.arange(users.size, dtype=np.int64)
    return [(users[w * EVENTS_PER_WAVE:(w + 1) * EVENTS_PER_WAVE],
             items[w * EVENTS_PER_WAVE:(w + 1) * EVENTS_PER_WAVE],
             stamps[w * EVENTS_PER_WAVE:(w + 1) * EVENTS_PER_WAVE])
            for w in range(WAVES)]


def oracle_weights(log, spec):
    """Full retrain on the materialized log, outside the store."""
    dataset = dataset_from_log(log, num_items=NUM_ITEMS)
    split = leave_one_out_split(dataset, max_len=MAX_LEN,
                                min_length=spec.min_length)
    from types import SimpleNamespace
    from repro.registry import build
    model = build(spec.model,
                  SimpleNamespace(dataset=dataset, max_len=MAX_LEN),
                  spec.resolve_scale(), rng=spec.seed)
    result = Trainer(model, split, spec.train_config()).fit()
    return model, result


def stream_section(workdir, seed):
    log = open_event_log(workdir / "log")
    store = FineTuneStore(workdir / "jobs")
    spec = stream_spec()
    trajectory, failures = [], []
    matches = cache_hits = 0
    final_model = None
    for wave, (users, items, stamps) in enumerate(synthetic_waves(seed)):
        log.append(users, items, timestamps=stamps)
        outcome = store.fine_tune(log, spec, num_items=NUM_ITEMS)
        oracle, oracle_result = oracle_weights(log, spec)
        wave_matches = all(
            np.array_equal(ours.data, theirs.data)
            for ours, theirs in zip(outcome.model.parameters(),
                                    oracle.parameters()))
        matches += wave_matches
        if not wave_matches:
            failures.append(f"wave {wave} diverges from the oracle")
        retrigger = store.fine_tune(log, spec, num_items=NUM_ITEMS)
        cache_hits += retrigger.cached
        if not retrigger.cached:
            failures.append(f"wave {wave} re-trigger missed the cache")
        trajectory.append({
            "wave": wave, "num_events": log.num_events,
            "best_metric": outcome.result.best_metric,
            "oracle_best_metric": oracle_result.best_metric,
            "matches_oracle": bool(wave_matches),
        })
        final_model = outcome.model
        print(f"  wave {wave}: {log.num_events} events, "
              f"best={outcome.result.best_metric:.4f}, "
              f"oracle match={bool(wave_matches)}")
    section = {"waves": trajectory, "oracle_matches": int(matches),
               "cache_hits": int(cache_hits),
               "chain_head": log.chain_head}
    return section, failures, final_model


def incremental_section(model, seed):
    plan = freeze(model)
    service = RecommendService(plan, k=5, padding="tight")
    rng = np.random.default_rng(seed)
    user = 1
    seq = [int(x) for x in rng.integers(1, NUM_ITEMS + 1, 2)]
    hits_at_max_len = 0
    for _ in range(MAX_LEN + 4):
        seq.append(int(rng.integers(1, NUM_ITEMS + 1)))
        window = tuple(seq[-MAX_LEN:])
        result = service.recommend(user, window)
        if len(window) == MAX_LEN and result.incremental:
            hits_at_max_len += 1

    sas = freeze(SASRec(num_items=NUM_ITEMS, dim=16, max_len=MAX_LEN,
                        rng=np.random.default_rng(seed)))
    kv_service = RecommendService(sas, k=5, padding="tight")
    kv_hits = 0
    grow = [3, 1]
    for _ in range(MAX_LEN - 2):
        grow.append(int(rng.integers(1, NUM_ITEMS + 1)))
        kv_hits += kv_service.recommend(2, tuple(grow)).incremental

    failures = []
    if hits_at_max_len == 0:
        failures.append("no incremental hits at max_len (rollover broken)")
    if kv_hits == 0:
        failures.append("no KV-prefix incremental hits (attention)")
    stats = service.stats
    if stats.incremental_failures or kv_service.stats.incremental_failures:
        failures.append("incremental failures were counted")
    section = {"rolling_hits_at_max_len": int(hits_at_max_len),
               "kv_prefix_hits": int(kv_hits),
               "incremental_failures": int(
                   stats.incremental_failures
                   + kv_service.stats.incremental_failures)}
    print(f"  rollover hits at max_len={hits_at_max_len}, "
          f"KV-prefix hits={kv_hits}")
    return section, failures


def shard_reference(plan, requests, num_workers, k=5):
    groups = Router(num_workers).partition(requests)
    reference = [None] * len(requests)
    service = RecommendService(plan, k=k, cache_size=0)
    for shard in sorted(groups):
        indices = groups[shard]
        Router.scatter(reference, indices,
                       service.recommend_many([requests[i]
                                               for i in indices]))
    return reference


def swap_section(old_model, new_model, seed, trials):
    old_plan, new_plan = freeze(old_model), freeze(new_model)
    rng = np.random.default_rng(seed)
    dropped = stale = restarts = 0
    failures = []
    for trial in range(trials):
        requests = [(int(rng.integers(1, 100)),
                     tuple(int(x) for x in
                           rng.integers(1, NUM_ITEMS + 1,
                                        size=rng.integers(1, MAX_LEN + 1))))
                    for _ in range(SERVE_BURST)]
        kill = FaultPlan([Fault(site=SWAP_PREPARE_SITE, action="kill",
                                hard=True)])
        with ClusterService(old_plan, num_workers=2, k=5, cache_size=0,
                            worker_fault_plans={0: kill.to_json()}
                            ) as cluster:
            before = cluster.recommend_many(requests)
            version = cluster.swap_plan(new_plan)
            after = cluster.recommend_many(requests)
            restarts += cluster.stats.worker_restarts
            dropped += sum(r.failed for r in before + after)
            want = shard_reference(new_plan, requests, 2)
            stale += sum(g.scores.tobytes() != w.scores.tobytes()
                         or not np.array_equal(g.items, w.items)
                         for g, w in zip(after, want))
        if version != 1:
            failures.append(f"trial {trial}: unexpected swap version "
                            f"{version}")
    if dropped:
        failures.append(f"{dropped} requests dropped across the swap")
    if stale:
        failures.append(f"{stale} post-swap answers differ from the "
                        f"new-plan reference")
    section = {"trials": trials, "dropped_requests": int(dropped),
               "stale_answers": int(stale),
               "worker_restarts_absorbed": int(restarts)}
    print(f"  {trials} trial(s): dropped={dropped}, stale={stale}, "
          f"restarts absorbed={restarts}")
    return section, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2,
                        help="mid-burst swap chaos trials")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "BENCH_online.json")
    parser.add_argument("--no-stream", action="store_true",
                        help="skip the stream fine-tune section")
    parser.add_argument("--no-incremental", action="store_true",
                        help="skip the incremental serving section")
    parser.add_argument("--no-swap", action="store_true",
                        help="skip the swap chaos section")
    args = parser.parse_args()

    report = {"spec": stream_spec().as_dict(), "seed": args.seed,
              "trials": args.trials}
    failures = []
    with tempfile.TemporaryDirectory(prefix="online-smoke-") as tmp:
        workdir = Path(tmp)
        print("stream fine-tune (event log -> memoized jobs vs oracle)...")
        section, section_failures, model = stream_section(workdir,
                                                          args.seed)
        if not args.no_stream:
            report["stream"] = section
            failures.extend(section_failures)

        if not args.no_incremental:
            print("\nincremental serving state (rollover + KV prefix)...")
            section, section_failures = incremental_section(model,
                                                            args.seed)
            report["incremental"] = section
            failures.extend(section_failures)

        if not args.no_swap:
            print("\nswap chaos (mid-burst hot-swap + worker kill)...")
            from repro.registry import build
            from types import SimpleNamespace
            log = open_event_log(workdir / "log")
            spec = stream_spec()
            dataset = dataset_from_log(log, num_items=NUM_ITEMS)
            fresh = build(spec.model,
                          SimpleNamespace(dataset=dataset, max_len=MAX_LEN),
                          spec.resolve_scale(), rng=99)
            section, section_failures = swap_section(fresh, model,
                                                     args.seed, args.trials)
            report["swap"] = section
            failures.extend(section_failures)

    write_json_report(args.json, report)
    return finish(
        ok=not failures,
        ok_message=("online gates passed: fine-tune matches the "
                    "full-retrain oracle, incremental state survives "
                    "rollover, zero dropped or stale requests across "
                    "the chaos swap"),
        fail_message=f"online gate failures: {', '.join(failures)}")


if __name__ == "__main__":
    raise SystemExit(main())
