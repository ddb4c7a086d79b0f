"""In-memory span tracer that wraps sim1090's public functions.

Each wrapper is installed at the name its caller looks up (for example
``sim1090.engine.emission_times``, which is what ``engine.run`` calls), so the
simulator itself is not edited. A span is ``(name, start, end, parent, op)``:
``parent`` is the index of the enclosing span or -1, ``op`` the index of the
benchmark command it belongs to. Spans stay in memory and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records nested spans and per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(result, args)`` may return a dict of counter increments; it
        runs after the span closes so counting is not charged to the layer.
        """
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start, clock())
            if count is not None:
                self.counters.update(count(result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start, time.perf_counter())

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_times(spans) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total time, self time and call count per span name.

    Total time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice. Self time is a span's duration
    minus the durations of its direct children; spans of one thread nest,
    so children never overlap and this is the part of the interval no child
    covers.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - child_time[index]
        if not _has_ancestor(spans, parent, name):
            total[name] += end - start
    return dict(total), dict(own), calls


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
