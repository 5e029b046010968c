"""In-memory spans around the benchmark's calls into the chowstab layers.

A span is (name, start, end, parent, request, failed): ``parent`` is the
index of the enclosing span or -1, ``request`` the id of the request that
caused it, ``failed`` whether the wrapped call raised.  Spans stay in a
list until the run ends; ``aggregate`` turns them into per-name call
counts, self time and failures, and ``dump`` writes them out.
"""
from __future__ import annotations

import contextlib
import gzip
import json
from time import perf_counter

FIELDS = ("name", "start", "end", "parent", "request", "failed")


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    _null = contextlib.nullcontext()

    def request(self, rid) -> None:
        pass

    def span(self, name: str):
        return self._null


class Tracer:
    """Tracing on: records one span per ``with tracer.span(name)`` block."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rid = None

    def request(self, rid) -> None:
        """Attribute the spans that follow to request ``rid``."""
        self._rid = rid

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._rid, False]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (self time) and failed calls.

        Self time is a span's duration minus the time its direct children
        cover; the run is serial, so children never overlap each other.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _, failed) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["busy_s"] += (end - start) - child_time[index]
            entry["failed"] += failed
        return out

    def dump(self, path) -> None:
        """Write every span as one gzip-compressed JSON document."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))
