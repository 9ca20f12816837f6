"""Shared plumbing for experiment runners: data prep, training, tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ..core import SSDRecConfig
from ..data import (SequenceSplit, SequenceView, generate,
                    generate_to_store, leave_one_out_split, open_store,
                    profile_by_name, stream_k_core_filter)
from ..eval import Evaluator
from ..registry import ssdrec_default_config
from ..train import TrainConfig, Trainer, TrainResult
from .config import Scale, max_len_for


@dataclass
class PreparedDataset:
    """A dataset plus its leave-one-out split, ready to train on.

    Backend-agnostic: ``dataset`` is any :class:`SequenceView` — the
    in-memory :class:`~repro.data.dataset.InteractionDataset` from
    :func:`prepare` or the mmap :class:`~repro.data.store.InteractionStore`
    from :func:`prepare_streaming` — and ``split`` is its
    :class:`SequenceSplit`.
    """

    profile: str
    dataset: SequenceView
    split: SequenceSplit
    max_len: int
    _evaluators: Dict[Tuple[str, int], object] = field(
        default_factory=dict, repr=False, compare=False)

    def evaluator(self, subset: str = "test",
                  batch_size: int = 256):
        """A cached evaluator over one split subset.

        One instance per ``(subset, batch_size)`` is shared by every
        model trained on this dataset.  It pads its batches on each pass
        and holds at most one scoring block.  Callers wanting the
        frozen-plan path pass ``fast=True`` to ``ranks``/``evaluate``
        per call — the shared instance is never mutated.
        """
        key = (subset, batch_size)
        ev = self._evaluators.get(key)
        if ev is None:
            ev = Evaluator(getattr(self.split, subset),
                           batch_size=batch_size, max_len=self.max_len)
            self._evaluators[key] = ev
        return ev


def prepare(profile: str, scale: Scale, seed: int = 0,
            noise_rate: Optional[float] = None) -> PreparedDataset:
    """Generate + split one dataset at the given experiment scale."""
    dataset = generate(profile, seed=seed, scale=scale.dataset_scale,
                       noise_rate=noise_rate)
    max_len = max_len_for(profile, scale)
    split = leave_one_out_split(dataset, max_len=max_len,
                                augment_prefixes=scale.augment_prefixes)
    return PreparedDataset(profile, dataset, split, max_len)


def prepare_streaming(profile: str, scale: Scale, store_root: str | Path,
                      seed: int = 0, noise_rate: Optional[float] = None,
                      k_core: Optional[int] = None, reuse: bool = True,
                      max_len: Optional[int] = None) -> PreparedDataset:
    """Out-of-core counterpart of :func:`prepare`.

    Generates the profile chunk-wise straight to an mmap store under
    ``store_root`` (full-scale profiles like ``scale-1m`` never exist in
    RAM), optionally applies the out-of-core ``k_core``-core filter, and
    splits with :func:`leave_one_out_split`.  With ``reuse=True`` an
    existing store directory for the same profile/seed/scale is opened
    instead of regenerated — generation is seeded, so contents match.
    """
    store_root = Path(store_root)
    tag = f"{profile}-s{seed}-x{scale.dataset_scale:g}"
    raw_path = store_root / tag / "raw"
    if reuse and (raw_path / "manifest.json").exists():
        store = open_store(raw_path)
    else:
        store = generate_to_store(profile_by_name(profile), raw_path,
                                  seed=seed, noise_rate=noise_rate,
                                  scale=scale.dataset_scale)
    if k_core is not None:
        core_path = store_root / tag / f"core{k_core}"
        if reuse and (core_path / "manifest.json").exists():
            store = open_store(core_path)
        else:
            store = stream_k_core_filter(store, core_path,
                                         min_seq_len=k_core,
                                         min_item_freq=k_core)
    if max_len is None:
        max_len = max_len_for(profile, scale)
    split = leave_one_out_split(
        store, max_len=max_len, augment_prefixes=scale.augment_prefixes)
    return PreparedDataset(profile, store, split, max_len)


def ssdrec_config(scale: Scale, max_len: int, **overrides) -> SSDRecConfig:
    """Experiment-default SSDRec configuration.

    Thin alias for :func:`repro.registry.ssdrec_default_config`, kept so
    existing callers (and docs) keep one import site inside the
    experiment layer.
    """
    return ssdrec_default_config(scale, max_len, **overrides)


def train_and_evaluate(model, prepared: PreparedDataset, scale: Scale,
                       seed: int = 0) -> Tuple[Dict[str, float], TrainResult]:
    """Fit on the train split, early-stop on valid, report test metrics.

    Both evaluators come from the :class:`PreparedDataset` cache, shared
    by every model trained on the same prepared dataset.
    """
    config = TrainConfig(epochs=scale.epochs, batch_size=scale.batch_size,
                         patience=scale.patience, seed=seed)
    valid_evaluator = prepared.evaluator("valid", scale.batch_size)
    result = Trainer(model, prepared.split, config,
                     evaluator=valid_evaluator).fit()
    metrics = prepared.evaluator("test", scale.batch_size).evaluate(model)
    return metrics, result


METRIC_COLUMNS = ("HR@5", "HR@10", "HR@20", "N@5", "N@10", "N@20", "MRR")


def format_table(title: str, rows: Sequence[Tuple[str, Dict[str, float]]],
                 columns: Sequence[str] = METRIC_COLUMNS) -> str:
    """Render rows of named metric dicts as a fixed-width text table."""
    name_width = max([len(name) for name, _ in rows] + [8])
    lines = [title, "-" * len(title)]
    header = " " * name_width + "".join(f"{c:>9}" for c in columns)
    lines.append(header)
    for name, metrics in rows:
        cells = "".join(
            f"{metrics.get(c, float('nan')):>9.4f}" for c in columns)
        lines.append(f"{name:<{name_width}}{cells}")
    return "\n".join(lines)


def paper_vs_measured(title: str, paper_row: Dict[str, float],
                      measured_row: Dict[str, float],
                      columns: Sequence[str] = METRIC_COLUMNS) -> str:
    """Two-line comparison block used by the benchmark harness output."""
    return format_table(title, [("paper", paper_row),
                                ("measured", measured_row)], columns)
