"""Lightweight per-op profiler for the ``repro.nn`` substrate.

When enabled, the profiler wraps a curated set of hot operations (tensor
arithmetic, fused kernels, layer forwards) with timing shims that record:

* forward call count and cumulative wall time,
* backward call count and cumulative wall time (by wrapping each produced
  node's backward closure),
* graph nodes created and bytes allocated for their outputs.

The instrumentation is installed by *monkeypatching the op functions* and
fully removed on :meth:`Profiler.disable` — when the profiler is off, the
original unwrapped functions run and the overhead is exactly zero.

Usage::

    from repro.nn.profiler import profiler

    with profiler.profile():
        trainer.fit()
    print(profiler.summary())

or via ``TrainConfig(profile=True)`` / ``python -m repro.cli train
--profile``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .tensor import Tensor


@dataclass
class OpStat:
    """Aggregated timings for one instrumented operation."""

    forward_calls: int = 0
    forward_seconds: float = 0.0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    nodes: int = 0
    bytes_allocated: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "forward_calls": self.forward_calls,
            "forward_seconds": self.forward_seconds,
            "backward_calls": self.backward_calls,
            "backward_seconds": self.backward_seconds,
            "nodes": self.nodes,
            "bytes_allocated": self.bytes_allocated,
        }


def _patch_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, display name) triples of the instrumented ops.

    Resolved lazily so the profiler sees the current (possibly reloaded)
    modules, and so importing this module never imports the whole package
    eagerly.
    """
    from . import functional as F
    from . import attention, layers, rnn

    targets: List[Tuple[object, str, str]] = [
        (Tensor, "__add__", "tensor.add"),
        (Tensor, "__radd__", "tensor.add"),
        (Tensor, "__sub__", "tensor.sub"),
        (Tensor, "__mul__", "tensor.mul"),
        (Tensor, "__rmul__", "tensor.mul"),
        (Tensor, "__truediv__", "tensor.div"),
        (Tensor, "matmul", "tensor.matmul"),
        (Tensor, "__matmul__", "tensor.matmul"),
        (Tensor, "__getitem__", "tensor.getitem"),
        (Tensor, "take", "tensor.take"),
        (Tensor, "masked_fill", "tensor.masked_fill"),
        (Tensor, "reshape", "tensor.reshape"),
        (Tensor, "transpose", "tensor.transpose"),
        (Tensor, "sum", "tensor.sum"),
        (Tensor, "mean", "tensor.mean"),
        (Tensor, "exp", "tensor.exp"),
        (Tensor, "log", "tensor.log"),
        (Tensor, "tanh", "tensor.tanh"),
        (Tensor, "sigmoid", "tensor.sigmoid"),
        (Tensor, "relu", "tensor.relu"),
        (F, "softmax", "fused.softmax"),
        (F, "log_softmax", "fused.log_softmax"),
        (F, "masked_softmax", "fused.masked_softmax"),
        (F, "cross_entropy", "fused.cross_entropy"),
        (F, "linear", "fused.linear"),
        (F, "dropout", "functional.dropout"),
        (attention, "scaled_dot_product_attention", "fused.attention"),
        (rnn, "gru_step", "fused.gru_step"),
        (rnn, "lstm_sequence", "fused.lstm_sequence"),
        (rnn, "gru_sequence", "fused.gru_sequence"),
        (layers.LayerNorm, "forward", "fused.layer_norm"),
        (layers.Embedding, "forward", "layer.embedding"),
    ]
    return targets


class Profiler:
    """Collects per-op forward/backward wall time and allocation counts."""

    def __init__(self):
        self.stats: Dict[str, OpStat] = {}
        self._saved: List[Tuple[object, str, object]] = []
        self.enabled = False

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Install timing shims (idempotent)."""
        if self.enabled:
            return
        for owner, attr, name in _patch_targets():
            original = owner.__dict__.get(attr) or getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self.enabled = True

    def disable(self) -> None:
        """Remove every shim, restoring the unwrapped functions."""
        if not self.enabled:
            return
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    def reset(self) -> None:
        self.stats = {}

    @contextmanager
    def profile(self):
        """Enable for the duration of a ``with`` block."""
        self.enable()
        try:
            yield self
        finally:
            self.disable()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            stat = stats.get(name)
            if stat is None:
                stat = stats[name] = OpStat()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            stat.forward_seconds += time.perf_counter() - t0
            stat.forward_calls += 1
            result = out
            # Layer forwards may return tuples; time the Tensor outputs.
            outs = out if isinstance(out, tuple) else (out,)
            for item in outs:
                if isinstance(item, Tensor):
                    stat.nodes += 1
                    stat.bytes_allocated += item.data.nbytes
                    if item._backward is not None:
                        item._backward = self._wrap_backward(stat,
                                                            item._backward)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @staticmethod
    def _wrap_backward(stat: OpStat, inner):
        def timed(grad):
            t0 = time.perf_counter()
            out = inner(grad)
            stat.backward_seconds += time.perf_counter() - t0
            stat.backward_calls += 1
            return out

        return timed

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Machine-readable snapshot of all op statistics."""
        return {name: stat.as_dict() for name, stat in self.stats.items()}

    def summary(self, max_rows: int = 25) -> str:
        """Table of ops sorted by total (forward + backward) time."""
        if not self.stats:
            return "profiler: no operations recorded"
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].total_seconds)
        header = (f"{'op':<24}{'calls':>8}{'fwd ms':>10}{'bwd ms':>10}"
                  f"{'total ms':>10}{'nodes':>9}{'MB':>8}")
        lines = [header, "-" * len(header)]
        for name, s in rows[:max_rows]:
            lines.append(
                f"{name:<24}{s.forward_calls:>8}"
                f"{s.forward_seconds * 1e3:>10.1f}"
                f"{s.backward_seconds * 1e3:>10.1f}"
                f"{s.total_seconds * 1e3:>10.1f}"
                f"{s.nodes:>9}{s.bytes_allocated / 1e6:>8.1f}")
        total = sum(s.total_seconds for _, s in rows)
        lines.append(f"{'total':<24}{'':>8}{'':>10}{'':>10}"
                     f"{total * 1e3:>10.1f}")
        return "\n".join(lines)


#: Module-level singleton used by Trainer and the CLI.
profiler = Profiler()
