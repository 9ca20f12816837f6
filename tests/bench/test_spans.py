"""Self-time arithmetic and span bookkeeping of the benchmark tracer."""

import os

import numpy as np
import pytest

from bench.spans import Span, Summary, Tracer, root_filter, self_times


def _spans():
    return [
        Span("step", 0.0, 10.0),                 # 0
        Span("loss", 1.0, 3.0, parent=0),        # 1
        Span("backward", 2.0, 5.0, parent=0),    # 2: overlaps loss
        Span("optim", 9.0, 12.0, parent=0),      # 3: runs past its parent
        Span("op", 1.5, 2.5, parent=1),          # 4: grandchild of step
        Span("eval", 20.0, 24.0),                # 5: another root
        Span("rank", 21.0, 22.0, parent=5),      # 6
    ]


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    selves = self_times(_spans())
    # step: children cover [1, 5] and [9, 10] -> 5 of its 10 seconds.
    assert selves[0] == pytest.approx(5.0)
    # loss: its grandchild-free child covers 1 of 2 seconds.
    assert selves[1] == pytest.approx(1.0)
    assert selves[2] == pytest.approx(3.0)
    assert selves[4] == pytest.approx(1.0)
    assert selves[5] == pytest.approx(3.0)


def test_summary_restricted_to_one_root():
    spans = _spans()
    in_step = Summary(spans, keep=root_filter(spans, "step"))
    assert in_step.indices("rank") == []
    assert in_step.total("loss") == pytest.approx(2.0)
    assert in_step.child_total("step") == pytest.approx(5.0)
    assert Summary(spans).indices("rank") == [6]


def test_wrap_records_nested_spans_and_uninstall_restores():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    originals = dict(Layer.__dict__)
    tracer = Tracer(detail=True)
    tracer.wrap(Layer, "outer", "outer", before=lambda self, x: {"rows": x})
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer(3) == 8
    names = [(s.name, s.parent, s.attrs.get("rows")) for s in tracer.spans]
    assert names == [("outer", -1, 3), ("inner", 0, None)]
    tracer.uninstall()
    assert Layer.__dict__["outer"] is originals["outer"]
    assert Layer.__dict__["inner"] is originals["inner"]


def test_forked_worker_spools_its_spans(tmp_path):
    tracer = Tracer(tmp_path, detail=True)

    def work():
        return sum(range(10))

    import types
    holder = types.SimpleNamespace(work=work)
    tracer.wrap(holder, "work", "worker.batch")
    pid = os.fork()
    if pid == 0:                          # pragma: no cover - child
        holder.work()
        holder.work()
        os._exit(0)
    os.waitpid(pid, 0)
    spans = tracer.worker_spans()
    assert [s.name for s in spans] == ["worker.batch", "worker.batch"]
    assert tracer.spans == []
    assert np.all([s.duration >= 0 for s in spans])
