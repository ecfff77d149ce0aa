"""In-memory span tracer that wraps jcdyn's layer functions from outside.

Each wrapper replaces a public function at the module attribute its caller
looks up (``jcdyn.scenario.evolve_pure`` rather than
``jcdyn.dynamics.evolve_pure``), so the program itself is unchanged. A span
records name, start, end, parent span and thread. Spans opened on a worker
thread with nothing open on that thread take the main thread's innermost
open span as parent: in jcdyn the only worker threads are the sweep pool
inside ``run``.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, thread id)
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._count_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, amount):
        with self._count_lock:
            self.counts[key] += amount

    def call(self, name, fn, args, kwargs, note=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
        if note is not None:
            note(self, args, kwargs, result)
        return result

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap (module, attribute, span name, note) targets; restore on exit."""
        saved = []
        try:
            for module, attr, name, note in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name, fn, note):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return wrapper

    def inclusive(self, name):
        """Summed duration of all spans of one name (busy time, all threads)."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def self_time(self, name):
        """Duration of the named spans minus the union of their children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            children[s[4]].append((s[2], s[3]))
        total = 0.0
        for span_id, span_name, start, end, _, _ in self.spans:
            if span_name != name:
                continue
            covered, reach = 0.0, start
            for a, b in sorted(children[span_id]):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            total += (end - start) - covered
        return total

    def calls(self, name):
        return sum(1 for s in self.spans if s[1] == name)

    def records(self):
        return {"fields": ["id", "name", "start", "end", "parent", "thread"], "spans": self.spans}
