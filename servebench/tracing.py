"""The benchmark's own spans: recorded in memory, exported as a Chrome trace.

A span is one call into a layer, timed from outside the program: name,
start, end, parent and a request id shared by every span of one request.
A layer's self time is its spans' duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    request_id: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one run; nesting follows the ``with`` blocks of one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def new_request(self) -> int:
        return next(self._requests)

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        parent = self._stack[-1] if self._stack else None
        if request_id is None:
            request_id = parent.request_id if parent else self.new_request()
        span = Span(next(self._ids), name, parent.span_id if parent else None,
                    request_id, time.perf_counter())
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def record(self, name: str, start: float, end: float, parent: Span) -> None:
        """A child span whose interval was measured elsewhere."""
        self.spans.append(Span(next(self._ids), name, parent.span_id,
                               parent.request_id, start, end))

    def http_request(self, client, endpoint: str, scenarios: List[dict]):
        """One traced request: the round trip split at the first response byte."""
        with self.span("server.http_request") as root:
            reply = client.send(endpoint, scenarios)
        self.record("server.wait_first_row", reply.sent, reply.first_row, root)
        self.record("server.read_rest", reply.first_row, reply.done, root)
        return reply

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def mean(self, name: str, scale: float) -> float:
        values = self.durations(name)
        return scale * sum(values) / len(values) if values else 0.0

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span.name] += span.seconds - covered
        return totals

    def write_chrome(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (chrome://tracing, Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": span.request_id,
                "args": {"span_id": span.span_id, "parent": span.parent,
                         "request_id": span.request_id},
            }
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
