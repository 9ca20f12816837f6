"""Hyper-parameter grid search over the validation metric.

The paper tunes the L2 regularization coefficient in {0, 1e-3, 1e-4} and
the initial Gumbel temperature in {1e-2 .. 1e3} on the validation set
(Sec. IV-A3).  :func:`grid_search` implements that protocol for any
combination of :class:`~repro.train.trainer.TrainConfig` fields and
model-constructor keyword arguments; :func:`grid_search_runs` is the
declarative variant that routes every trial through the content-addressed
:class:`~repro.runs.RunStore`, so repeated or overlapping searches only
train each configuration once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

from ..data.stream import SequenceSplit
from .trainer import TrainConfig, Trainer


@dataclass
class SearchResult:
    """Outcome of a grid search."""

    best_params: Dict[str, object]
    best_metric: float
    trials: List[Tuple[Dict[str, object], float]] = field(default_factory=list)

    def ranked(self) -> List[Tuple[Dict[str, object], float]]:
        """Trials sorted best-first."""
        return sorted(self.trials, key=lambda t: -t[1])


def grid_search(model_factory: Callable[..., object], split: SequenceSplit,
                param_grid: Dict[str, Sequence],
                base_config: TrainConfig | None = None) -> SearchResult:
    """Exhaustively evaluate every parameter combination.

    Parameters
    ----------
    model_factory:
        Callable receiving the model-level parameters of each trial and
        returning a fresh model.  Parameters named like
        :class:`TrainConfig` fields (e.g. ``weight_decay``,
        ``learning_rate``) are routed to the trainer instead.
    param_grid:
        Mapping of parameter name to the values to try.
    """
    if not param_grid:
        raise ValueError("param_grid must name at least one parameter")
    base_config = base_config or TrainConfig()
    config_fields = set(vars(base_config))
    names = list(param_grid)
    trials: List[Tuple[Dict[str, object], float]] = []
    best_params: Dict[str, object] = {}
    best_metric = float("-inf")
    for combo in itertools.product(*(param_grid[n] for n in names)):
        params = dict(zip(names, combo))
        config_overrides = {k: v for k, v in params.items()
                            if k in config_fields}
        model_kwargs = {k: v for k, v in params.items()
                        if k not in config_fields}
        config = replace(base_config, **config_overrides)
        model = model_factory(**model_kwargs)
        result = Trainer(model, split, config).fit()
        trials.append((params, result.best_metric))
        if result.best_metric > best_metric:
            best_metric = result.best_metric
            best_params = params
    return SearchResult(best_params=best_params, best_metric=best_metric,
                        trials=trials)


def grid_search_runs(profile: str, scale, model: str,
                     param_grid: Dict[str, Sequence], seed: int = 0,
                     store=None) -> SearchResult:
    """Grid search through the run store: one cached run per combination.

    Parameters named like hash-relevant :class:`TrainConfig` fields
    (``learning_rate``, ``weight_decay``, ...) become train-config
    overrides; everything else becomes a :class:`~repro.registry.ModelSpec`
    kwarg (e.g. ``initial_tau`` for SSDRec).  The selection metric is the
    best *validation* metric of each run, matching :func:`grid_search` —
    and every trial lands in the store, so the winner's weights are
    immediately restorable via :meth:`~repro.runs.RunStore.load_model`.
    """
    from ..registry import model_spec
    from ..runs import TRAIN_FIELDS, default_store, run_spec

    if not param_grid:
        raise ValueError("param_grid must name at least one parameter")
    store = store if store is not None else default_store()
    names = list(param_grid)
    trials: List[Tuple[Dict[str, object], float]] = []
    best_params: Dict[str, object] = {}
    best_metric = float("-inf")
    for combo in itertools.product(*(param_grid[n] for n in names)):
        params = dict(zip(names, combo))
        train_overrides = {k: v for k, v in params.items()
                           if k in TRAIN_FIELDS}
        model_kwargs = {k: v for k, v in params.items()
                        if k not in TRAIN_FIELDS}
        spec = run_spec(profile, scale, model_spec(model, **model_kwargs),
                        train=train_overrides, seed=seed)
        outcome = store.run(spec)
        metric = outcome.result.best_metric
        trials.append((params, metric))
        if metric > best_metric:
            best_metric = metric
            best_params = params
    return SearchResult(best_params=best_params, best_metric=best_metric,
                        trials=trials)
