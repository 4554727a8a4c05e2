"""Spans around calls into symlab's public functions, and their self times.

A :class:`Tracer` replaces each named function (or method) with a wrapper
that records one span per call: an id, the id of the enclosing span on the
same thread (0 at the top), the span name, the thread, and wall-clock and
thread-CPU start and end times.  A function is replaced under every name a
symlab module bound it to, so ``cli.is_zero`` is traced as well as
``expr.is_zero``.  Spans stay in memory until the run ends.

Self time is a span's duration less the durations of its direct children.
It is taken on the thread-CPU clock: ``verify --group all`` runs its checks
on a thread pool, and a wall-clock span there would also count the time the
other threads held the interpreter lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Tuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float


class Tracer:
    """Installs tracing wrappers and collects the spans they record."""

    def __init__(self, modules: Iterable[object]):
        self.modules = tuple(modules)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        perf_counter, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                spans.append(Span(sid, parent, name, get_ident(), t0, t1, c0, c1))

        return traced

    def trace_function(self, fn, name: str) -> None:
        """Trace ``fn`` under every module attribute bound to it."""
        wrapper = self._wrap(fn, name)
        found = False
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def trace_method(self, cls: type, attr: str, name: str) -> None:
        self._patch(cls, attr, self._wrap(vars(cls)[attr], name))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON lines; times in ns from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [
                            s.id,
                            s.parent,
                            s.name,
                            s.thread,
                            round((s.start - origin) * 1e9),
                            round((s.end - origin) * 1e9),
                            round(s.cpu_start * 1e9),
                            round(s.cpu_end * 1e9),
                        ]
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (calls, total self time in thread-CPU seconds)."""
    spans = list(spans)
    children = defaultdict(float)
    for s in spans:
        if s.parent:
            children[s.parent] += s.cpu_end - s.cpu_start
    out: Dict[str, Tuple[int, float]] = {}
    for s in spans:
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + (s.cpu_end - s.cpu_start) - children[s.id])
    return out

