"""In-memory spans for the benchmark's traced passes.

A span is ``[name, start, end, parent, task]``: ``start``/``end`` read
``time.monotonic()``, which on Linux is one system-wide clock, so spans
recorded in a child process can be placed inside a span of its parent.
``parent`` is the index of the enclosing span in the same list (or None)
and ``task`` the id of the task the span belongs to.  Spans are recorded only
by the benchmark's own code, around its calls into oakit's public functions.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_OFF = nullcontext()


class Tracer:
    """Span recorder; when disabled, ``span`` returns a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.task: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, sub_parent, task in spans:
            self.spans.append(
                [name, start, end, parent if sub_parent is None else base + sub_parent, task]
            )


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append([self.name, time.monotonic(), None, parent, tr.task])
        tr._stack.append(self.index)
        return self.index

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index][2] = time.monotonic()
        return False


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    errors = []
    for i, (name, start, end, parent, _task) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({name}) has no valid end")
        elif parent is not None:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) lies outside its parent {parent}")
    return errors


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    to the covered part.  Summed over all names the result equals the total
    duration of the root spans.
    """
    totals: dict[str, float] = {}
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _task in spans:
        if parent is not None:
            covered[parent] += end - start
    for i, (name, start, end, _parent, _task) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
    return totals
