"""Crash-safe, memoized fine-tune jobs over the append-only event log.

The online loop is: events stream into an :class:`~repro.data.eventlog.
EventLog`, a periodic fine-tune job materializes the log into a
leave-one-out split and trains a fresh model, and the resulting
:class:`~repro.serve.FrozenPlan` hot-swaps into the running service
(:meth:`RecommendService.swap_plan` / :meth:`ClusterService.swap_plan`).
This module is the middle step, built on two guarantees:

* **Crash safety.**  Training runs with a per-epoch resume point
  (``train_state.npz`` via :class:`~repro.train.trainer.TrainConfig`
  ``checkpoint_path``/``resume``), so a killed job continues from its
  last completed epoch instead of restarting — the same machinery the
  run store uses, pointed at the job's own entry directory.

* **Memoization on the stream state.**  Entries are keyed on
  ``(spec.content_hash(), log.chain_head)``.  The chain head is a single
  digest committing to the entire event history, so a re-triggered job
  over an unchanged log is a pure cache hit (the committed checkpoint is
  reloaded, bitwise), while one new segment changes the key and retrains.
  ``metrics.json`` is the commit marker, mirroring ``repro.runs``.

``scripts/online_smoke.py`` drives the full loop — ingest, fine-tune,
hot-swap under chaos — and gates on ``BENCH_online.json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..data.dataset import InteractionDataset
from ..data.stream import leave_one_out_split
from ..data.eventlog import EventLog
from ..registry import ModelSpec, build
from ..resilience.atomic import atomic_write_text, clean_stale_tmp
from .checkpoint import load_checkpoint, save_checkpoint
from .trainer import TrainConfig, Trainer, TrainResult

_METRICS_FILE = "metrics.json"   # written last: the commit marker
_CHECKPOINT_FILE = "model.npz"
_TRAIN_STATE_FILE = "train_state.npz"


def dataset_from_log(log: EventLog, num_items: Optional[int] = None,
                     name: Optional[str] = None) -> InteractionDataset:
    """Materialize the full log as an :class:`InteractionDataset`.

    Event ids are already 1-based dense ids (the log validates this on
    append), so no remapping happens: user ``u``'s sequence is their
    events in timestamp order (stable, so same-stamp events keep append
    order).  ``num_items`` widens the item universe beyond the largest
    id seen, for logs that have not yet touched every item.
    """
    log.refresh()
    per_user: Dict[int, list] = {}
    max_item = 0
    for user, item, stamp in log.events():
        per_user.setdefault(user, []).append((stamp, item))
        max_item = max(max_item, item)
    num_users = max(per_user) if per_user else 0
    if num_items is None:
        num_items = max_item
    elif num_items < max_item:
        raise ValueError(f"log contains item id {max_item}, beyond the "
                         f"declared universe of {num_items}")
    sequences: list = [[] for _ in range(num_users + 1)]
    for user, events in per_user.items():
        events.sort(key=lambda pair: pair[0])
        sequences[user] = [item for _, item in events]
    return InteractionDataset(
        name=name or f"eventlog-{log.chain_head[:12]}",
        num_users=num_users, num_items=num_items, sequences=sequences,
        metadata={"eventlog_chain_head": log.chain_head,
                  "eventlog_segments": log.num_segments})


@dataclass(frozen=True)
class FineTuneSpec:
    """Hashable description of one fine-tune job (sans stream state).

    The content hash deliberately excludes the event log: the job key is
    ``(spec, chain_head)``, so one spec reused across a growing stream
    produces one entry per distinct log state.
    """

    model: ModelSpec
    scale: str = "smoke"
    train: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0
    max_len: Optional[int] = None
    min_length: int = 3

    def as_dict(self) -> Dict[str, object]:
        return {"model": self.model.as_dict(), "scale": self.scale,
                "train": dict(self.train), "seed": self.seed,
                "max_len": self.max_len, "min_length": self.min_length}

    def content_hash(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def resolve_scale(self):
        from ..experiments.config import SCALES
        try:
            return SCALES[self.scale]
        except KeyError:
            raise KeyError(f"FineTuneSpec scale {self.scale!r} is not a "
                           f"named experiment scale; "
                           f"options: {sorted(SCALES)}")

    def resolved_max_len(self) -> int:
        if self.max_len is not None:
            return self.max_len
        return self.resolve_scale().max_len

    def train_config(self, **extras) -> TrainConfig:
        scale = self.resolve_scale()
        config = TrainConfig(epochs=scale.epochs,
                             batch_size=scale.batch_size,
                             patience=scale.patience, seed=self.seed)
        overrides = dict(self.train)
        overrides.update(extras)
        return replace(config, **overrides)


def fine_tune_spec(model: ModelSpec, scale: str = "smoke",
                   train: Optional[Dict[str, object]] = None,
                   seed: int = 0, max_len: Optional[int] = None,
                   min_length: int = 3) -> FineTuneSpec:
    """Canonical :class:`FineTuneSpec` factory (validates overrides)."""
    from ..runs import TRAIN_FIELDS
    train = dict(train or {})
    unknown = set(train) - set(TRAIN_FIELDS)
    if unknown:
        raise KeyError(f"unknown train-config overrides {sorted(unknown)}; "
                       f"valid: {TRAIN_FIELDS}")
    return FineTuneSpec(model=model, scale=scale,
                        train=tuple(sorted(train.items())), seed=seed,
                        max_len=max_len, min_length=min_length)


@dataclass
class FineTuneOutcome:
    """One fine-tune job's result: the trained model, ready to freeze."""

    spec: FineTuneSpec
    chain_head: str
    cached: bool
    model: object
    checkpoint: Path
    num_events: int
    result: Optional[TrainResult] = None
    history: list = field(default_factory=list)


class FineTuneStore:
    """Disk cache of fine-tune jobs keyed on ``(spec, chain head)``."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def entry_dir(self, spec: FineTuneSpec, chain_head: str) -> Path:
        return self.root / f"{spec.content_hash()}-{chain_head[:16]}"

    # ------------------------------------------------------------------
    def fine_tune(self, log: EventLog, spec: FineTuneSpec,
                  num_items: Optional[int] = None, force: bool = False,
                  **train_extras) -> FineTuneOutcome:
        """Train (or restore) the model for the log's current state.

        On a cache hit the committed checkpoint is reloaded into a
        freshly built model — bitwise the weights the original job
        produced.  On a miss, training resumes from any crash-left
        ``train_state.npz`` in the entry before committing.
        """
        log.refresh()
        chain_head = log.chain_head
        dataset = dataset_from_log(log, num_items=num_items)
        entry = self.entry_dir(spec, chain_head)
        model = self._build_model(spec, dataset)
        if not force:
            cached = self._load_entry(model, entry)
            if cached is not None:
                self.hits += 1
                return FineTuneOutcome(
                    spec=spec, chain_head=chain_head, cached=True,
                    model=model, checkpoint=entry / _CHECKPOINT_FILE,
                    num_events=log.num_events,
                    history=cached.get("history", []))
        self.misses += 1
        return self._train_and_persist(log, spec, dataset, model, entry,
                                       train_extras)

    # ------------------------------------------------------------------
    def _build_model(self, spec: FineTuneSpec, dataset: InteractionDataset):
        from types import SimpleNamespace
        prepared = SimpleNamespace(dataset=dataset,
                                   max_len=spec.resolved_max_len())
        return build(spec.model, prepared, spec.resolve_scale(),
                     rng=spec.seed)

    def _load_entry(self, model, entry: Path) -> Optional[Dict[str, object]]:
        metrics_path = entry / _METRICS_FILE
        try:
            payload = json.loads(metrics_path.read_text())
            load_checkpoint(model, entry / _CHECKPOINT_FILE)
            return payload
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError) as exc:
            # Damaged entry: clear the committed artifacts (keeping any
            # mid-training resume point) and retrain.
            import logging
            logging.getLogger("repro.train.online").warning(
                "fine-tune entry %s is corrupted (%s: %s); invalidating",
                entry, type(exc).__name__, exc)
            for name in (_METRICS_FILE, _CHECKPOINT_FILE):
                (entry / name).unlink(missing_ok=True)
            if entry.exists():
                clean_stale_tmp(entry)
            return None

    def _train_and_persist(self, log: EventLog, spec: FineTuneSpec,
                           dataset: InteractionDataset, model, entry: Path,
                           train_extras: Dict[str, object]
                           ) -> FineTuneOutcome:
        entry.mkdir(parents=True, exist_ok=True)
        split = leave_one_out_split(dataset,
                                    max_len=spec.resolved_max_len(),
                                    min_length=spec.min_length)
        config = spec.train_config(**train_extras)
        if config.checkpoint_path is None:
            config = replace(config,
                             checkpoint_path=str(entry / _TRAIN_STATE_FILE),
                             resume=True)
        result = Trainer(model, split, config).fit()
        save_checkpoint(model, entry / _CHECKPOINT_FILE,
                        metadata={"spec": spec.as_dict(),
                                  "chain_head": log.chain_head,
                                  "best_epoch": result.best_epoch})
        payload = {
            "chain_head": log.chain_head,
            "num_events": log.num_events,
            "num_segments": log.num_segments,
            "best_metric": result.best_metric,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "history": result.history,
            "spec": spec.as_dict(),
        }
        # metrics.json commits the entry; the resume point is spent.
        atomic_write_text(entry / _METRICS_FILE,
                          json.dumps(payload, sort_keys=True, indent=1),
                          site="online.metrics")
        (entry / _TRAIN_STATE_FILE).unlink(missing_ok=True)
        return FineTuneOutcome(
            spec=spec, chain_head=log.chain_head, cached=False,
            model=model, checkpoint=entry / _CHECKPOINT_FILE,
            num_events=log.num_events, result=result,
            history=result.history)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


__all__ = ["FineTuneSpec", "FineTuneOutcome", "FineTuneStore",
           "dataset_from_log", "fine_tune_spec"]
