"""In-memory span tracer driven from outside the program.

The benchmark never edits ``src/``: it times a layer by replacing one
public call into that layer (a method on a class, or a function a module
imported) with a wrapper that records a span around the original.  A
span is a name, a start and end from ``time.perf_counter`` (the system
monotonic clock, comparable across forked processes), the index of the
span that was open when it began (its parent), a trace id (the flush id
when serving, the step index when training) and a few attributes such as
the number of rows the call handled.

Spans stay in memory and are written as JSON lines when the run ends.
Serving workers are forked after the wrappers are installed, so they
inherit them; a worker appends the spans of each finished batch to its
own ``worker-<pid>.jsonl`` file under the spool directory, and the front
end later matches each worker batch to its flush by the hash of the
request tuples the batch carried (see :func:`batch_key`).

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    trace: object = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "trace": self.trace,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, payload: dict, offset: int = 0) -> "Span":
        parent = payload["parent"]
        return cls(payload["name"], payload["start"], payload["end"],
                   parent + offset if parent >= 0 else -1,
                   payload["trace"], payload["attrs"])


def batch_key(requests) -> int:
    """Identity of one per-shard batch, equal in the front end and the
    worker: requests are ``(int user, tuple of int items)`` pairs, whose
    hashes do not depend on the process's string-hash seed."""
    return hash(tuple(requests))


def self_times(spans: List[Span]) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span itself)."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = np.array([span.duration for span in spans], dtype=np.float64)
    for parent, kids in children.items():
        lo, hi = spans[parent].start, spans[parent].end
        covered = 0.0
        cursor = lo
        for start, end in sorted((spans[k].start, spans[k].end)
                                 for k in kids):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out[parent] -= covered
    return out


class Tracer:
    """Records spans from wrappers installed with :meth:`wrap`.

    ``detail=False`` keeps only the spans the benchmark opens itself
    (training steps and evaluation passes); no program call is wrapped
    then, so the untraced run measures the program as it ships.
    """

    def __init__(self, spool_dir: Optional[Path] = None,
                 detail: bool = False):
        self.detail = detail
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.enabled = True
        self.spans: List[Span] = []
        self.trace: object = None
        self._stack: List[int] = []
        self._step = -1
        #: the front end: the process that built the tracer, before any
        #: worker was forked.
        self._root = self._owner = os.getpid()
        self._patches: List[tuple] = []
        self._spool = None

    # -- recording ------------------------------------------------------
    def _parent(self) -> int:
        return self._stack[-1] if self._stack else self._step

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._owner:       # first call inside a forked worker
            self._owner = pid
            self.spans = []
            self._stack = []
            self._step = -1
            self._spool = None
            self.trace = None

    def open(self, name: str, **attrs) -> int:
        self._check_fork()
        self.spans.append(Span(name, time.perf_counter(), parent=self._parent(),
                               trace=self.trace, attrs=attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None,
              **attrs) -> None:
        span = self.spans[index]
        span.end = time.perf_counter() if end is None else end
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()
        if not self._stack and self._step < 0 and self._in_worker():
            self._flush_worker()

    def record(self, name: str, start: float, end: float, **attrs) -> int:
        """Add an already-finished span under the current parent."""
        self.spans.append(Span(name, start, end, self._parent(), self.trace,
                               attrs))
        return len(self.spans) - 1

    def begin_step(self, start: float, trace: int, **attrs) -> None:
        """Open a root span (a training step) that later spans attach to."""
        self.trace = trace
        self.spans.append(Span("train.step", start, trace=trace, attrs=attrs))
        self._step = len(self.spans) - 1

    def end_step(self, end: float) -> None:
        if self._step >= 0:
            self.spans[self._step].end = end
            self._step = -1

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return attributes for the span; they run outside the timed
        interval.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                attrs = before(*args, **kwargs) if before is not None else {}
                index = tracer.open(name, **attrs)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.close(index, error=True)
                    raise
                end = time.perf_counter()
                extra = (after(result, *args, **kwargs)
                         if after is not None else {})
                tracer.close(index, end=end, **extra)
                return result
            return wrapper

        self.replace(owner, attr, make)

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`uninstall`
        (static methods stay static)."""
        original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else original
        replacement = make(original)
        setattr(owner, attr, staticmethod(replacement)
                if isinstance(saved, staticmethod) else replacement)
        self._patches.append((owner, attr, saved))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (inherited ones are deleted)."""
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- worker spool -----------------------------------------------------
    def _in_worker(self) -> bool:
        return self.spool_dir is not None and os.getpid() != self._root

    def _flush_worker(self) -> None:
        if self._spool is None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            path = self.spool_dir / f"worker-{os.getpid()}.jsonl"
            self._spool = open(path, "a", encoding="utf-8")
        self._spool.write(json.dumps([s.as_dict() for s in self.spans]))
        self._spool.write("\n")
        self._spool.flush()
        self.spans = []

    def worker_spans(self) -> List[Span]:
        """Every span the forked workers spooled, re-indexed."""
        spans: List[Span] = []
        if self.spool_dir is None or not self.spool_dir.exists():
            return spans
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    batch = json.loads(line)
                    offset = len(spans)
                    spans.extend(Span.from_dict(item, offset)
                                 for item in batch)
        return spans


def write_jsonl(path: Path, groups: Dict[str, Iterable[Span]]) -> None:
    """Write spans as JSON lines, each tagged with its process group."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for group, spans in groups.items():
            for index, span in enumerate(spans):
                payload = span.as_dict()
                payload["group"] = group
                payload["index"] = index
                fh.write(json.dumps(payload))
                fh.write("\n")


class Summary:
    """Per-name aggregates over one process group's spans."""

    def __init__(self, spans: List[Span],
                 keep: Optional[Callable[[int], bool]] = None):
        self.spans = spans
        selves = self_times(spans) if spans else np.empty(0)
        self._by_name: Dict[str, List[int]] = {}
        for index, span in enumerate(spans):
            if keep is None or keep(index):
                self._by_name.setdefault(span.name, []).append(index)
        self._self = selves

    def indices(self, name: str) -> List[int]:
        return self._by_name.get(name, [])

    def durations(self, name: str) -> np.ndarray:
        return np.array([self.spans[i].duration for i in self.indices(name)],
                        dtype=np.float64)

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def self_total(self, name: str) -> float:
        return float(sum(self._self[i] for i in self.indices(name)))

    def attr_total(self, name: str, key: str) -> float:
        return float(sum(self.spans[i].attrs.get(key, 0)
                         for i in self.indices(name)))

    def child_total(self, name: str) -> float:
        """Time covered by children of spans named ``name``."""
        return self.total(name) - self.self_total(name)


def root_of(spans: List[Span]) -> Callable[[int], int]:
    """Index of a span's top-most ancestor (memoized along the chain)."""
    roots: Dict[int, int] = {}

    def root(index: int) -> int:
        chain = []
        while spans[index].parent >= 0 and index not in roots:
            chain.append(index)
            index = spans[index].parent
        top = roots.get(index, index)
        for item in chain:
            roots[item] = top
        return top

    return root


def root_filter(spans: List[Span], root_name: str) -> Callable[[int], bool]:
    """Predicate: the span's top-most ancestor is named ``root_name``."""
    root = root_of(spans)
    return lambda index: spans[root(index)].name == root_name
