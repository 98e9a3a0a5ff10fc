"""Spans and counters recorded around the benchmark's calls into tupletfrob.

A span has a name, a start, an end and the span that caused it; every span
of one operation carries that operation's id.  Spans stay in memory and are
written out once, when the run ends.  Untraced runs use NullTracer, whose
span is a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "op": self.op_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def busy(self, name: str) -> float:
        """Total seconds inside spans of this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, index: int) -> float:
        """A span's duration minus the part its direct children cover."""
        span = self.spans[index]
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)
        return span["end"] - span["start"] - children

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class NullTracer:
    enabled = False
    op_id = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: int = 1) -> None:
        pass
