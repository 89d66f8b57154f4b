"""Tests of the outside-in tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class Base:
    def inherited(self):
        return "base"


class Thing(Base):
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x

    @staticmethod
    def helper(x):
        return 2 * x

    def items(self, n):
        yield from range(n)


def test_wrap_and_restore_keep_behaviour_and_kind():
    module = types.ModuleType("fake")
    module.func = lambda x: x * 3
    originals = (module.func, vars(Thing)["method"], vars(Thing)["build"],
                 vars(Thing)["helper"], vars(Thing)["items"])
    tracer = Tracer("t")
    with tracer:
        tracer.wrap(module, "func", "f")
        for attr in ("method", "build", "helper", "items"):
            tracer.wrap(Thing, attr, attr)
        tracer.wrap(Thing, "inherited", "inherited")
        thing = Thing()
        assert module.func(2) == 6
        assert thing.method(1) == 2
        assert Thing.build(5) == (Thing, 5)
        assert thing.helper(4) == 8
        assert list(thing.items(3)) == [0, 1, 2]
        assert thing.inherited() == "base"
    assert (module.func, vars(Thing)["method"], vars(Thing)["build"],
            vars(Thing)["helper"], vars(Thing)["items"]) == originals
    assert "inherited" not in vars(Thing)
    names = [s.name for s in tracer.spans]
    for name in ("f", "method", "build", "helper", "inherited"):
        assert names.count(name) == 1
    # One span per generator step, including the final empty one.
    assert names.count("items") == 4


def test_exception_is_recorded_and_reraised():
    module = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    module.boom = boom
    tracer = Tracer("t")
    with tracer:
        tracer.wrap(module, "boom", "boom")
        try:
            module.boom()
        except KeyError:
            pass
        else:
            raise AssertionError("exception swallowed")
    (span,) = tracer.spans
    assert span.attrs["error"] == "KeyError"


def test_self_time_excludes_children():
    tracer = Tracer("t")
    with tracer.span("parent") as parent:
        time.sleep(0.01)
        with tracer.span("child") as child:
            time.sleep(0.02)
    assert child.parent == parent.sid
    assert abs(parent.self_time - (parent.duration - child.duration)) < 1e-9
    assert parent.self_time < parent.duration


def test_parents_stay_on_their_own_thread():
    tracer = Tracer("run-1")
    errors = []
    start = threading.Barrier(8)

    def worker(k):
        start.wait()
        for _ in range(200):
            with tracer.span(f"outer-{k}") as outer:
                with tracer.span(f"inner-{k}") as inner:
                    pass
            if inner.parent != outer.sid or outer.parent is not None:
                errors.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(tracer.spans) == 8 * 200 * 2
    assert len({s.sid for s in tracer.spans}) == len(tracer.spans)
    assert {s.run for s in tracer.spans} == {"run-1"}
    assert len({s.tid for s in tracer.spans}) == 8


def test_chrome_trace_is_json_with_thread_tracks():
    tracer = Tracer("t")
    with tracer.span("a.b", n=3):
        pass
    tracer.add("queue", tracer.origin, tracer.origin + 0.5)
    doc = json.loads(json.dumps(tracer.chrome_trace()))
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} == {"a.b", "queue"}
    assert any(e["ph"] == "M" for e in doc["traceEvents"])
    (span,) = [e for e in events if e["name"] == "a.b"]
    assert span["cat"] == "a" and span["args"]["n"] == 3
