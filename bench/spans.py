"""Spans and counts recorded by the benchmark around its calls into the
program's public functions.

A span is a name, a start, an end and the span that was open when it
started.  Spans stay in memory until the run ends.  A disabled recorder
calls straight through and records nothing, so the untraced run and the
traced run execute the same workload code.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named name when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def overhead_share(traced_s: float, untraced_s: float) -> float:
    """How much longer the same operations took with tracing on, as a share
    of their untraced time.  Noise can make it negative."""
    if untraced_s <= 0:
        raise ValueError("untraced time must be positive")
    return traced_s / untraced_s - 1


def layer_timings(rec: Recorder, names: list[str], wall_s: float) -> dict[str, float]:
    """For each span name, its median duration in ms (`<name>.ms`) and its
    summed duration as a share of the traced wall time (`<name>.share`).
    A name with no spans reads 0 for both."""
    out = {}
    for name in names:
        durations = rec.durations(name)
        out[f"{name}.ms"] = median(durations) * 1e3 if durations else 0.0
        out[f"{name}.share"] = sum(durations) / wall_s
    return out
