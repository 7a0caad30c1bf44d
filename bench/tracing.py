"""Spans around the benchmark's calls into gphom.

A span has a name (`<module>.<function>`), start and end on the
perf_counter clock, the id of the benchmark operation it belongs to, and the
id of its parent span (the operation's root span).  Spans are kept in memory
and written out once, when the run ends.  `NULL` stands in for the tracer in
untraced runs, where each call is made directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.ops = 0
        self._op: int | None = None
        self._root: int | None = None

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation, with a fresh op id."""
        span = {"id": len(self.spans), "name": name, "op": self.ops,
                "parent": None, "start": perf_counter()}
        self.spans.append(span)
        self._op, self._root = self.ops, span["id"]
        self.ops += 1
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._op = self._root = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; a `budget` keyword
        argument has its `used` count recorded on the span."""
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            span = {"id": len(self.spans), "name": name, "op": self._op,
                    "parent": self._root, "start": start, "end": end}
            if "budget" in kwargs:
                span["budget_used"] = kwargs["budget"].used
            self.spans.append(span)

    def note(self, **attrs):
        """Attach counts to the most recent span."""
        self.spans[-1].update(attrs)


class _NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note(self, **attrs):
        pass


NULL = _NullTracer()
