"""Training loop with early stopping (Sec. IV-A3).

Implements the paper's protocol: Adam (lr=0.001 default), mini-batches,
early stopping when validation HR@20 fails to improve for ``patience``
consecutive epochs, and restoring the best checkpoint at the end.  Models
may expose ``on_batch_end()`` (e.g. SSDRec anneals its Gumbel temperature
every 40 batches) and ``loss(batch)``.

Crash-safe training: with ``TrainConfig.checkpoint_path`` set, the
trainer atomically persists a full resume point after every
``checkpoint_every`` epochs — parameters, optimizer buffers, best-so-far
snapshot, early-stop counters, metric history, the data loader's shuffle
stream, the model's own RNG stream, and any model-specific
``train_state()`` (SSDRec's Gumbel temperature schedules).  A run killed
mid-training and restarted with ``resume=True`` continues from the last
completed epoch and reaches **bitwise-identical** final metrics, because
every source of state the remaining epochs consume is restored exactly.

Exactness is not guaranteed with a stateful LR ``scheduler_factory``
(scheduler internals beyond the current learning rate are not
serialized); the run store never uses schedulers, so its cached entries
are unaffected.
"""

from __future__ import annotations

import logging
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.stream import DataLoader, SequenceSplit
from ..eval.evaluator import Evaluator
from ..nn import Adam, clip_grad_norm
from ..nn.layers import Embedding
from ..nn.rng import generator_state, restore_generator_state
from .checkpoint import load_training_state, save_training_state

logger = logging.getLogger("repro.train")

#: ``_fit`` builds its loader through this module global, which the
#: benchmark (``bench/workloads.py``) replaces to clock training steps.
build_loader = DataLoader


@dataclass
class TrainConfig:
    """Hyper-parameters of a training run."""

    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    patience: int = 10
    grad_clip: Optional[float] = 5.0
    eval_metric: str = "HR@20"
    seed: int = 0
    verbose: bool = False
    #: record per-op substrate timings (see :mod:`repro.nn.profiler`);
    #: zero overhead when False.
    profile: bool = False
    #: run under the autograd sanitizer (see :mod:`repro.nn.sanitizer`):
    #: saved-tensor version checks, NaN/Inf and broadcast-grad detection,
    #: dead-gradient tracking; zero overhead when False.
    sanitize: bool = False
    #: where to persist the crash-resume point (``.npz``); None disables
    #: mid-training checkpointing entirely.
    checkpoint_path: Optional[str] = None
    #: persist the resume point every N completed epochs.
    checkpoint_every: int = 1
    #: continue from an existing resume point at ``checkpoint_path``
    #: (missing or unreadable state falls back to a fresh run).
    resume: bool = False


@dataclass
class TrainResult:
    """Outcome of :meth:`Trainer.fit`."""

    best_metric: float
    best_epoch: int
    epochs_run: int
    history: List[Dict[str, float]] = field(default_factory=list)
    train_seconds_per_epoch: float = 0.0
    stopped_early: bool = False
    #: per-op profiler statistics (populated when ``config.profile``).
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: rendered profiler table (populated when ``config.profile``).
    profile_table: str = ""
    #: recorded sanitizer anomalies (populated when ``config.sanitize``;
    #: empty list means the run was clean).
    sanitizer_report: Optional[List[Dict[str, str]]] = None
    #: parameters that never received a gradient across the whole run
    #: (populated when ``config.sanitize``).
    dead_parameters: List[str] = field(default_factory=list)


class Trainer:
    """Fit a model on a :class:`SequenceSplit` with early stopping.

    The split may sit on any :class:`~repro.data.dataset.SequenceView`:
    the train subset feeds a seeded :class:`DataLoader` and validation
    runs through an :class:`Evaluator`, both streaming examples from the
    view, so training never materializes example lists.  Crash resume
    restores the loader's shuffle stream (``rng_state``).
    """

    def __init__(self, model, split: SequenceSplit,
                 config: Optional[TrainConfig] = None,
                 loss_fn: Optional[Callable] = None,
                 scheduler_factory: Optional[Callable] = None,
                 evaluator: Optional[Evaluator] = None):
        self.model = model
        self.split = split
        self.config = config or TrainConfig()
        self.loss_fn = loss_fn or model.loss
        self.optimizer = Adam(model.parameters(),
                              lr=self.config.learning_rate,
                              weight_decay=self.config.weight_decay)
        # Optional per-epoch LR schedule: the factory receives the
        # optimizer and returns an object whose ``step`` takes either no
        # argument (epoch-indexed schedulers) or the validation metric
        # (ReduceOnPlateau).
        self.scheduler = (scheduler_factory(self.optimizer)
                          if scheduler_factory else None)
        # Callers running many models over the same split can pass a
        # shared validation evaluator.
        self.evaluator = evaluator or Evaluator(
            split.valid, batch_size=self.config.batch_size,
            max_len=split.max_len)

    def fit(self) -> TrainResult:
        if self.config.sanitize:
            from ..nn.sanitizer import sanitizer
            sanitizer.reset()
            with sanitizer.watch():
                result = self._fit_profiled()
            result.dead_parameters = sanitizer.finalize_dead_grads()
            result.sanitizer_report = sanitizer.report()
            return result
        return self._fit_profiled()

    def _fit_profiled(self) -> TrainResult:
        if self.config.profile:
            from ..nn.profiler import profiler
            profiler.reset()
            with profiler.profile():
                result = self._fit()
            result.profile = profiler.as_dict()
            result.profile_table = profiler.summary()
            return result
        return self._fit()

    def _fit(self) -> TrainResult:
        config = self.config
        loader = build_loader(self.split.train,
                              batch_size=config.batch_size,
                              max_len=self.split.max_len, seed=config.seed)
        best_metric = -np.inf
        best_epoch = -1
        best_state = None
        bad_epochs = 0
        history: List[Dict[str, float]] = []
        epoch_times: List[float] = []
        stopped_early = False
        start_epoch = 0
        resumed = self._try_resume(loader) if config.resume else None
        if resumed is not None:
            state, best_state = resumed
            start_epoch = int(state["epoch"]) + 1
            best_metric = float(state["best_metric"])
            best_epoch = int(state["best_epoch"])
            bad_epochs = int(state["bad_epochs"])
            history = list(state["history"])
            epoch_times = list(state["epoch_times"])
            stopped_early = bool(state["stopped_early"])
            if config.verbose:
                print(f"resuming from epoch {start_epoch} "
                      f"({config.checkpoint_path})")
        for epoch in range(start_epoch, config.epochs):
            if stopped_early:
                break
            start = time.perf_counter()
            epoch_loss = self._train_one_epoch(loader)
            epoch_times.append(time.perf_counter() - start)
            metrics = self.evaluator.evaluate(self.model)
            metrics["loss"] = epoch_loss
            current = metrics[config.eval_metric]
            if self.scheduler is not None:
                metrics["lr"] = self._step_scheduler(current)
            history.append(metrics)
            if config.verbose:
                print(f"epoch {epoch}: loss={epoch_loss:.4f} "
                      f"{config.eval_metric}={current:.4f}")
            if current > best_metric:
                best_metric = current
                best_epoch = epoch
                best_state = self.model.state_dict()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    stopped_early = True
            if config.checkpoint_path is not None and (
                    stopped_early
                    or epoch == config.epochs - 1
                    or (epoch + 1 - start_epoch) % config.checkpoint_every
                    == 0):
                self._save_resume_point(
                    loader, epoch=epoch, best_metric=best_metric,
                    best_epoch=best_epoch, bad_epochs=bad_epochs,
                    history=history, epoch_times=epoch_times,
                    stopped_early=stopped_early, best_state=best_state)
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self._refresh_padding_rows()
        return TrainResult(
            best_metric=float(best_metric),
            best_epoch=best_epoch,
            epochs_run=len(history),
            history=history,
            train_seconds_per_epoch=(float(np.mean(epoch_times))
                                     if epoch_times else 0.0),
            stopped_early=stopped_early,
        )

    # ------------------------------------------------------------------
    # crash resume
    def _save_resume_point(self, loader: DataLoader, *, epoch: int,
                           best_metric: float, best_epoch: int,
                           bad_epochs: int, history, epoch_times,
                           stopped_early: bool, best_state) -> None:
        state: Dict[str, object] = {
            "epoch": epoch,
            "best_metric": float(best_metric),
            "best_epoch": best_epoch,
            "bad_epochs": bad_epochs,
            "history": history,
            "epoch_times": epoch_times,
            "stopped_early": stopped_early,
            "lr": float(self.optimizer.lr),
            "loader_rng": loader.rng_state(),
        }
        model_rng = getattr(self.model, "rng", None)
        if model_rng is not None:
            state["model_rng"] = generator_state(model_rng)
        model_state_fn = getattr(self.model, "train_state", None)
        if model_state_fn is not None:
            state["model_state"] = model_state_fn()
        save_training_state(self.model, self.optimizer,
                            self.config.checkpoint_path, state,
                            best_state=best_state)

    def _try_resume(self, loader: DataLoader):
        """Load the resume point; None (fresh start) if absent/unreadable."""
        if self.config.checkpoint_path is None:
            return None
        path = Path(self.config.checkpoint_path)
        try:
            state, best_state = load_training_state(
                self.model, self.optimizer, path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            logger.warning("ignoring unreadable training state %s "
                           "(%s: %s); starting fresh",
                           path, type(exc).__name__, exc)
            return None
        self.optimizer.lr = float(state["lr"])
        loader.set_rng_state(state["loader_rng"])
        model_rng = getattr(self.model, "rng", None)
        if model_rng is not None and "model_rng" in state:
            restore_generator_state(model_rng, state["model_rng"])
        load_model_state = getattr(self.model, "load_train_state", None)
        if load_model_state is not None and "model_state" in state:
            load_model_state(state["model_state"])
        self._refresh_padding_rows()
        return state, best_state

    def _step_scheduler(self, metric: float) -> float:
        """Advance the LR schedule (metric-driven or epoch-indexed)."""
        import inspect
        signature = inspect.signature(self.scheduler.step)
        if signature.parameters:
            return self.scheduler.step(metric)
        return self.scheduler.step()

    # ------------------------------------------------------------------
    def _train_one_epoch(self, loader: DataLoader) -> float:
        self.model.train()
        losses: List[float] = []
        for batch in loader:
            self.optimizer.zero_grad()
            loss = self.loss_fn(batch)
            loss.backward()
            if self.config.sanitize:
                from ..nn.sanitizer import sanitizer
                sanitizer.watch_dead_grads(self.model.named_parameters())
            if self.config.grad_clip:
                clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            self.optimizer.step()
            self._refresh_padding_rows()
            hook = getattr(self.model, "on_batch_end", None)
            if hook is not None:
                hook()
            losses.append(float(loss.item()))
        return float(np.mean(losses)) if losses else 0.0

    def _refresh_padding_rows(self) -> None:
        for module in self.model.modules():
            if isinstance(module, Embedding):
                module.apply_padding_mask()
