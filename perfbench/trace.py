"""Spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent, operation id).  Spans are kept in
memory and written out when the run ends; times are perf_counter instants,
rescaled afterwards by the run's SpeedClock.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools

from .probe import now


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.notes: list[tuple[int, str, float]] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(now())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = now()
        self._stack.pop()

    def note(self, key: str, value: float) -> None:
        """Record a count observed during the current operation."""
        self.notes.append((self.op_id, key, value))

    def wrap(self, name: str, fn):
        """fn with a span around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def iterate(self, name: str, it):
        """An iterator that records a span around every next()."""
        return _TracedIter(self, name, iter(it))

    def durations(self, clock) -> list[float]:
        """Normalised duration of every span."""
        return [clock.normalised(a, b) for a, b in zip(self.starts, self.ends)]

    def self_times(self, durations: list[float]) -> list[float]:
        out = list(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= durations[i]
        return out

    def records(self) -> list[list]:
        return [[n, a, b, p, o] for n, a, b, p, o in
                zip(self.names, self.starts, self.ends, self.parents, self.ops)]


class _TracedIter:
    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._name)
        try:
            return next(self._it)
        finally:
            self._tracer.close(i)
