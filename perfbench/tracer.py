"""A thread-safe, outside-in span tracer.

The tracer records spans from *outside* the program: it replaces a
function or method on the object its callers look it up on, times every
call, and puts the original back when the trace ends.  Nothing inside
the traced package changes, so a traced run exercises exactly the code
an untraced run does, plus one wrapper call per boundary.

Each thread keeps its own span stack, so spans opened on the conveyor's
reader and writer threads, the service scheduler or the SpMV thread
pool get their parent from their own thread and never from whichever
thread happened to open a span last.  Every span records its thread,
its parent span and the run id.  A span's *self time* is its duration
minus the time its children on the same thread cover.

``Tracer.chrome_trace()`` returns Chrome trace-event JSON, which
Perfetto (ui.perfetto.dev) and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["Span", "Tracer"]


class Span:
    """One timed call: ``[start, end]`` on ``perf_counter`` seconds."""

    __slots__ = ("sid", "name", "start", "end", "tid", "parent", "run",
                 "attrs", "child_s")

    def __init__(self, sid, name, start, tid, parent, run, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.parent = parent
        self.run = run
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans in memory; ``wrap`` patches, ``restore`` un-patches."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._patches: list[tuple[object, str, object, bool]] = []
        self.origin = perf_counter()

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            tid = threading.get_native_id()
            with self._lock:
                self.thread_names[tid] = threading.current_thread().name
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1].sid if stack else None
        span = Span(sid, name, perf_counter(), threading.get_native_id(),
                    parent, self.run_id, attrs)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        # Pop down to this span, so one span left open by a failed
        # wrapper cannot become the parent of every later span.
        while stack:
            if stack.pop() is span:
                break
        if stack:
            stack[-1].child_s += span.end - span.start
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def add(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record an interval that no single call covers (e.g. a queue wait)."""
        with self._lock:
            span = Span(self._next_id, name, start, threading.get_native_id(),
                        None, self.run_id, attrs)
            self._next_id += 1
            span.end = end
            self.spans.append(span)
        return span

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper named ``name``.

        ``owner`` is the module or class the callers look the name up
        on.  ``after(span, args, kwargs, result)`` runs once the call
        returned, outside the span, to attach counts to it.  Class,
        static and generator functions keep their kind.
        """
        had = attr in vars(owner)
        raw = vars(owner)[attr] if had else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        if inspect.isgeneratorfunction(func):
            wrapper = self._wrap_generator(func, name)
        else:
            wrapper = self._wrap_call(func, name, after)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw, had))

    def _wrap_call(self, func, name, after):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sp = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                sp.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.end(sp)
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, func, name):
        """Time each step of a generator: the caller's wait per item."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                while True:
                    sp = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(sp)
                    yield item
            finally:
                inner.close()

        return traced

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw, had = self._patches.pop()
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    # -- export ----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (one track per thread)."""
        pid = os.getpid()
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
            names = dict(self.thread_names)
        events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": tname}}
            for tid, tname in names.items()
        ]
        for s in spans:
            args = {k: v for k, v in s.attrs.items()
                    if isinstance(v, (int, float, str, bool))}
            args.update(span_id=s.sid, parent=s.parent, run=s.run,
                        self_us=round(s.self_time * 1e6, 3))
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": pid,
                "tid": s.tid,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run": self.run_id}}
