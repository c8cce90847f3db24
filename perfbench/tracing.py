"""In-process spans around calls into the layers of ``alix_ray``.

The program is observed from outside: :meth:`Tracer.wrap` replaces a
function or method on its module or class with a wrapper that records
a span, and :meth:`Tracer.restore` puts every original back.  Spans
(name, start, end, parent, request id) are kept in memory and written
out once, when the run ends.  Only the main thread records spans;
calls from other threads pass straight through.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []  # closed spans, in closing order
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self.paused = False
        self._ids = itertools.count(1)
        self._stack: list[dict] = []
        self._undo: list[tuple] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    # -- recording ---------------------------------------------------------
    def new_request(self) -> int:
        self.request += 1
        return self.request

    def count(self, name: str, value: float = 1.0) -> None:
        if self.paused:
            return
        with self._lock:
            self.counts[name] += value

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def call(self, name: str, fn, *args, **kwargs):
        if self.paused or threading.current_thread() is not self._main:
            return fn(*args, **kwargs)
        span = {"id": next(self._ids), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "request": self.request, "child_s": 0.0}
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            dur = span["end"] - span["start"]
            if self._stack:
                self._stack[-1]["child_s"] += dur
            self.spans.append(span)

    # -- wrapping ----------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with ``make(original)``; :meth:`restore` puts the original back."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        new = make(orig)
        new.__wrapped__ = orig
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        def make(orig):
            def wrapper(*args, **kwargs):
                return self.call(name, orig, *args, **kwargs)
            return wrapper

        self.patch(owner, attr, make)

    def hook(self, owner, attr: str, before) -> None:
        """Call ``before()`` ahead of every call of ``owner.attr``, from
        any thread, without recording a span (for event counts)."""
        def make(orig):
            def wrapper(*args, **kwargs):
                before()
                return orig(*args, **kwargs)
            return wrapper

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------
    def total(self, name: str) -> float:
        """Inclusive seconds over every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Seconds inside spans called ``name`` not covered by a child
        span (spans of one thread nest, so coverage is the children's
        summed durations)."""
        return sum(s["end"] - s["start"] - s["child_s"]
                   for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                rec = {k: v for k, v in s.items() if k != "child_s"}
                f.write(json.dumps(rec) + "\n")
