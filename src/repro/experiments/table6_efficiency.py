"""Table VI — per-epoch training and inference time of the heavy methods.

Measures wall-clock seconds for one training epoch and one full-ranking
inference pass of HSD, STEAM, DCRec, and SSDRec on every dataset.  The
paper's absolute numbers come from a GPU workstation; the comparison of
interest is *relative* cost (SSDRec trains slower than HSD but infers
comparably, STEAM infers slowly, DCRec is light).

Models are restored from the shared :class:`~repro.runs.RunStore`
(trained on first use, cached thereafter) — the same runs Table IV
reports metrics for — so the timing pass costs one epoch + two ranking
passes per method instead of a full training run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..data.stream import DataLoader
from ..nn import Adam
from ..registry import model_spec
from ..runs import RunStore, default_store, run_spec
from .config import Scale, default_scale
from .paper_numbers import TABLE6

METHODS = ("HSD", "STEAM", "DCRec", "SSDRec")


def time_one_epoch(model, prepared, scale: Scale) -> float:
    """Wall-clock seconds for one full training epoch."""
    loader = DataLoader(prepared.split.train, batch_size=scale.batch_size,
                        max_len=prepared.max_len, seed=0)
    optimizer = Adam(model.parameters())
    model.train()
    start = time.perf_counter()
    for batch in loader:
        optimizer.zero_grad()
        model.loss(batch).backward()
        optimizer.step()
        hook = getattr(model, "on_batch_end", None)
        if hook is not None:
            hook()
    return time.perf_counter() - start


def time_inference(model, prepared, scale: Scale,
                   fast: bool = False) -> float:
    """Wall-clock seconds for one full-ranking pass over the test set.

    ``fast=True`` times the frozen-plan (graph-free) path instead of the
    ``no_grad`` Tensor path; the cached evaluator is shared between both
    (``fast`` is per-call).
    """
    evaluator = prepared.evaluator("test", scale.batch_size)
    start = time.perf_counter()
    evaluator.ranks(model, fast=fast)
    return time.perf_counter() - start


def run(scale: Optional[Scale] = None, seed: int = 0,
        methods: Sequence[str] = METHODS,
        datasets: Optional[Sequence[str]] = None,
        store: Optional[RunStore] = None) -> Dict[str, dict]:
    scale = scale or default_scale()
    store = store or default_store()
    results: Dict[str, dict] = {"training": {}, "inference": {},
                                "inference_frozen": {}}
    datasets = list(datasets or scale.datasets)
    for profile in datasets:
        for name in methods:
            spec = run_spec(profile, scale, model_spec(name), seed=seed)
            model = store.load_model(spec)
            prepared = store.prepared(spec)
            train_s = time_one_epoch(model, prepared, scale)
            infer_s = time_inference(model, prepared, scale)
            frozen_s = time_inference(model, prepared, scale, fast=True)
            results["training"].setdefault(name, {})[profile] = train_s
            results["inference"].setdefault(name, {})[profile] = infer_s
            results["inference_frozen"].setdefault(
                name, {})[profile] = frozen_s
    return results


def render(results: Dict[str, dict]) -> str:
    lines: List[str] = ["Table VI — per-epoch training / inference seconds"]
    for mode in ("training", "inference", "inference_frozen"):
        if not results.get(mode):
            continue
        lines.append(f"\n[{mode}] (measured | paper GPU reference)")
        datasets = sorted({d for per in results[mode].values() for d in per})
        lines.append(f"{'method':<10}" + "".join(f"{d:>18}" for d in datasets))
        for name, per in results[mode].items():
            cells = []
            for d in datasets:
                # the frozen mode has no paper counterpart (NaN reference)
                paper = TABLE6.get(mode, {}).get(name, {}).get(d,
                                                               float("nan"))
                cells.append(f"{per[d]:>8.2f}|{paper:>8.2f}")
            lines.append(f"{name:<10}" + "".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
