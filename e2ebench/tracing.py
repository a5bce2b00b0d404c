"""Layer timing from outside the program: wrap, time, restore.

A :class:`Tracer` replaces the references the program's callers actually
use -- module functions, class attributes (including classmethods) and
algorithm-registry entries -- with timing wrappers, and puts the original
objects back by identity afterwards.  Each wrapper is a span: its duration
minus the time covered by wrapped calls nested inside it is its *self*
time.  Spans nest per thread.  On the thread that opened :meth:`root`,
the self times of every span plus the root's own uncovered time
(``trace.unattributed_ms``) add up to the root's wall time exactly; spans
on other threads (the query server's pump) have no enclosing root and are
summed separately.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Span:
    """Accumulated timing of one span key."""

    __slots__ = ("calls", "total_s", "self_s", "main_self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: the part of self_s spent on the root's thread
        self.main_self_s = 0.0


class Tracer:
    """Installs span wrappers on a list of targets; see :func:`layers.targets`.

    A target is ``(key, owner, name, hook)``: ``owner`` is a module, a class
    or a dict, ``name`` the attribute or key to wrap, and ``hook`` an
    optional ``hook(tracer, args, kwargs, result, duration_s)`` that records
    counts.
    Hook time is booked under the span key ``trace.hooks`` so that it never
    inflates a layer.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: Dict[str, Span] = {}
        self.counts: Dict[str, float] = {}
        self.records: List[object] = []
        self._local = threading.local()
        self._saved: List[tuple] = []
        self._main: Optional[int] = None
        self.root_s = 0.0
        self.unattributed_s = 0.0

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    @staticmethod
    def _raw(owner, name):
        if isinstance(owner, dict):
            return owner[name]
        if isinstance(owner, type):
            return owner.__dict__[name]
        return getattr(owner, name)

    @staticmethod
    def _set(owner, name, value) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for key, owner, name, hook in self.targets:
            raw = self._raw(owner, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, key, hook))
            else:
                wrapped = self._wrap(raw, key, hook)
            self._saved.append((owner, name, raw))
            self._set(owner, name, wrapped)

    def restore(self) -> None:
        """Put every original back (in reverse order) and check identity."""
        for owner, name, raw in reversed(self._saved):
            self._set(owner, name, raw)
        for owner, name, raw in self._saved:
            if self._raw(owner, name) is not raw:
                raise RuntimeError(f"failed to restore {owner!r}.{name}")
        self._saved = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, key: str, start: float, stack: list) -> float:
        dur = perf() - start
        child = stack.pop()
        if stack:
            stack[-1] += dur
        span = self.spans.get(key)
        if span is None:
            span = self.spans[key] = Span()
        span.calls += 1
        span.total_s += dur
        span.self_s += dur - child
        if threading.get_ident() == self._main:
            span.main_self_s += dur - child
        return dur

    def _wrap(self, fn: Callable, key: str, hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(key, start, stack)
            if hook is not None:
                stack.append(0.0)
                hook_start = perf()
                try:
                    hook(tracer, args, kwargs, result, dur)
                finally:
                    tracer._close("trace.hooks", hook_start, stack)
            return result

        return wrapper

    @contextmanager
    def root(self):
        """The timed region the per-layer self times account for."""
        self._main = threading.get_ident()
        stack = self._stack()
        if stack:
            raise RuntimeError("root span must be outermost")
        stack.append(0.0)
        start = perf()
        try:
            yield self
        finally:
            self.root_s = perf() - start
            self.unattributed_s = self.root_s - stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def self_ms(self, *keys: str) -> float:
        return 1e3 * sum(self.spans[k].self_s for k in keys if k in self.spans)

    def total_ms(self, *keys: str) -> float:
        return 1e3 * sum(self.spans[k].total_s for k in keys if k in self.spans)

    def calls(self, *keys: str) -> int:
        return sum(self.spans[k].calls for k in keys if k in self.spans)

    def main_self_ms(self) -> float:
        """Self time of every span on the root's thread (hooks included)."""
        return 1e3 * sum(s.main_self_s for s in self.spans.values())
