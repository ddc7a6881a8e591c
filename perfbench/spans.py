"""In-memory spans recorded from the benchmark's own files.

A span is ``{id, name, start, end, parent, op_id}`` (seconds on the
``perf_counter`` clock).  Spans nest per thread: a span opened while
another is open on the same thread is its child and inherits its
``op_id``.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

Span = Dict[str, object]


class _OpenSpan:
    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "SpanRecorder", record: Span):
        self._recorder = recorder
        self._record = record

    def __enter__(self) -> Span:
        self._recorder._stack().append(self._record)
        self._record["start"] = time.perf_counter()
        return self._record

    def __exit__(self, *exc_info) -> None:
        self._record["end"] = time.perf_counter()
        self._recorder._stack().pop()
        self._recorder.spans.append(self._record)


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op_id: Optional[int] = None) -> _OpenSpan:
        """Context manager recording one span on the calling thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent["op_id"]
        return _OpenSpan(self, {
            "id": next(self._ids), "name": name, "start": 0.0, "end": 0.0,
            "parent": parent["id"] if parent is not None else None,
            "op_id": op_id})

    def add(self, name: str, start: float, end: float,
            op_id: Optional[int] = None) -> None:
        """Record an already-measured root span (no nesting)."""
        self.spans.append({"id": next(self._ids), "name": name,
                           "start": start, "end": end, "parent": None,
                           "op_id": op_id})


def seconds(span: Span) -> float:
    """Duration of one span."""
    return span["end"] - span["start"]


def _covered(intervals: List[Tuple[float, float]],
             low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time in seconds (duration minus child coverage)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (seconds(span)
                     - _covered(children.get(span["id"], []),
                                span["start"], span["end"]))
        for span in spans}


def self_ms_by_op(spans: Iterable[Span]) -> Dict[int, Dict[str, float]]:
    """``op_id -> {span name -> summed self time in ms}`` for spans that
    belong to an op."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span["op_id"] is not None:
            table[span["op_id"]][span["name"]] += own[span["id"]] * 1e3
    return table
