"""In-memory spans for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, request_id); parent is the index
of the enclosing span or -1.  Spans are appended to a list while the run
goes and written out once, when it ends, so recording costs one clock read
and one list append at each boundary.  NullTracer has the same interface
and records nothing; running the same code under both gives the tracing
overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, request_id: int):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def self_times(self) -> dict:
        """{request_id: {name: summed self time in ns}}.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it and do not overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _, rid), covered in zip(self.spans, child_ns):
            per = out.setdefault(rid, {})
            per[name] = per.get(name, 0) + (end - start) - covered
        return out

    def durations(self, name: str) -> dict:
        """{request_id: summed wall duration in ns} of the spans named name."""
        out = {}
        for n, start, end, _, rid in self.spans:
            if n == name:
                out[rid] = out.get(rid, 0) + end - start
        return out

    def write(self, fh) -> None:
        """One JSON object per span and line, in start order."""
        for name, start, end, parent, rid in self.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "request": rid}) + "\n")


class NullTracer:
    @contextmanager
    def span(self, name: str, request_id: int):
        yield
