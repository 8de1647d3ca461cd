"""In-memory spans recorded around calls into the program's layers.

A span is ``(id, name, start, end, parent, thread, attrs)``.  The parent of
a span is the innermost span still open on the same thread when it starts,
so spans opened by the sharded runtime's worker threads nest under the
call that thread is running, not under the thread that submitted it.
Spans stay in memory; :func:`write_spans` writes them out at the end.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span sink with a per-thread stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        span = Span(
            id=span_id,
            name=name,
            start=self.clock(),
            end=float("nan"),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span_id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        with self._lock:
            self.spans.append(span)



def write_spans(spans: Sequence[Span], path: str) -> None:
    with open(path, "w") as handle:
        json.dump([asdict(span) for span in spans], handle)


def read_spans(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span(**doc) for doc in json.load(handle)]


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    covered = union_length(
        [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, [])
            if child.end > span.start and child.start < span.end
        ]
    )
    return span.duration - covered


def coverage(span: Span, children: Dict[int, List[Span]]) -> float:
    """Share of the span's duration covered by its direct children."""
    if span.duration <= 0:
        return 0.0
    return 1.0 - self_time(span, children) / span.duration
