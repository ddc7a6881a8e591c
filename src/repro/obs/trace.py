"""Request-scoped distributed tracing for the serving fleet.

A *trace* is one logical request's journey — client send, server
admission, fused-window flush, shard scoring, WAL append/fsync/ship,
follower apply — stitched together by a ``trace_id`` that rides request
frames as an optional ``"trace"`` payload field.  Each hop contributes
*spans*: ``(trace_id, span_id, parent_id, name, ts, dur_ms, attrs)``
records collected into a per-:class:`Tracer` ring buffer and optionally
appended to a JSONL sink file.

Two propagation mechanisms, deliberately distinct:

* **Across the wire** — explicit: a span's :meth:`Span.context` is
  stamped into the outgoing frame payload (:meth:`TraceContext.to_wire`)
  and the receiving side parents its spans on
  :meth:`TraceContext.from_wire`.
* **Down a call chain** — implicit: entering a span (``with
  tracer.start(...)``) makes it the *active* span of the current
  :mod:`contextvars` context, so deeper layers that were never handed a
  tracer (the WAL log inside a commit, the sharded scorer inside a fused
  dispatch, a chaos shim firing a fault) can attach children via
  :func:`maybe_span` or annotate the current span via
  :func:`annotate_active` with zero configuration.  Every asyncio task
  runs in its own copy of the context, so commits interleaved on one
  event loop keep separate active spans across every ``await``, and
  work handed to a thread with the context copied (``asyncio.to_thread``,
  or ``contextvars.copy_context().run`` on an executor: the WAL append,
  the sharded scorer's calls) still sees the span that handed it over.
  A plain new thread starts with no active span.  When no span is
  active both helpers are no-ops costing one context-variable read —
  which is what keeps tracing-disabled serving at full speed.

Ids are random hex (:mod:`secrets`): 16 bytes for trace ids, 8 for span
ids.  Timestamps are wall-clock (``time.time``) for cross-host
correlation; durations come from ``time.perf_counter`` so they are
immune to clock steps.
"""

from __future__ import annotations

import contextvars
import json
import os
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = ["TraceContext", "Span", "Tracer", "active_span", "activated",
           "annotate_active", "maybe_span", "NULL_SPAN"]

#: Reserved request-payload key carrying the wire form of a context.
TRACE_KEY = "trace"


def _new_trace_id() -> str:
    return secrets.token_hex(16)


def _new_span_id() -> str:
    return secrets.token_hex(8)


class TraceContext:
    """The wire-portable half of a span: ``(trace_id, span_id)``.

    ``span_id`` is the id the *receiving* side should parent on.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = str(trace_id)
        self.span_id = str(span_id)

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, value) -> Optional["TraceContext"]:
        """Parse a payload field; ``None`` for absent/malformed values.

        Tolerant by design: a peer sending garbage trace context must
        degrade to an untraced request, never to an error.
        """
        if not isinstance(value, dict):
            return None
        trace_id = value.get("trace_id")
        span_id = value.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str) \
                or not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id[:8]}…/{self.span_id[:8]}…)"


_ACTIVE: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_active_span", default=None)


def active_span() -> Optional["Span"]:
    """The span currently entered in this context (task or thread), if
    any."""
    return _ACTIVE.get()


def annotate_active(key: str, value) -> None:
    """Append an annotation to the active span; no-op when none.

    This is the funnel the chaos layer uses: a fired fault annotates
    whatever span is live at the fault site, so the trace shows exactly
    which request the fault landed on.
    """
    span = active_span()
    if span is not None:
        span.annotate(key, value)


@contextmanager
def activated(span) -> Iterator[None]:
    """Make ``span`` the active span for a block, without finishing it
    (leaving ``with span`` does).

    This is how the client lets a synchronous hook — a chaos fault site
    — annotate the attempt span it runs for, while the attempt span
    itself is finished by the attempt.  The inert :data:`NULL_SPAN`
    activates nothing.
    """
    previous = active_span()
    if isinstance(span, Span):
        _ACTIVE.set(span)
    try:
        yield
    finally:
        _ACTIVE.set(previous)


class _NullSpan:
    """Inactive stand-in so callers need no ``if span`` branches."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, key: str, value) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        return None

    def finish(self, dur_ms=None) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Shared inert span, for callers that want span-shaped plumbing with
#: tracing off (``with NULL_SPAN: ...`` costs nothing).
NULL_SPAN = _NULL_SPAN


def maybe_span(name: str, **attrs) -> Union["Span", _NullSpan]:
    """A child of the active span, or an inert no-op when none.

    The zero-configuration instrumentation point for layers below the
    transport (WAL log, sharded scorer): when a traced request is live
    in this context the child attaches to it; otherwise the cost is one
    context-variable read.
    """
    parent = active_span()
    if parent is None:
        return _NULL_SPAN
    return parent.tracer.start(name, parent=parent, attrs=attrs)


class Span:
    """One timed operation within a trace (use as a context manager).

    Entering makes it the context's active span; exiting restores the
    previous one and records the span into its tracer.  ``finish`` is
    idempotent, so explicitly-managed spans (asyncio paths) may call it
    directly without ``with``.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "ts", "attrs", "_start", "_finished", "_previous")

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: str, parent_id: Optional[str],
                 attrs: Optional[Dict[str, object]] = None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.name = str(name)
        self.ts = time.time()
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self._start = time.perf_counter()
        self._finished = False
        self._previous: Optional[Span] = None

    def context(self) -> TraceContext:
        """The context downstream spans (and frames) parent on."""
        return TraceContext(self.trace_id, self.span_id)

    def annotate(self, key: str, value) -> None:
        """Append ``value`` under ``attrs[key]`` (always a list).

        List semantics keep repeated events — two faults firing inside
        one append, say — individually visible instead of last-wins.
        """
        bucket = self.attrs.get(key)
        if not isinstance(bucket, list):
            bucket = [] if bucket is None else [bucket]
            self.attrs[key] = bucket
        bucket.append(value)

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def finish(self, dur_ms: Optional[float] = None) -> None:
        """Record the span (idempotent); ``dur_ms`` overrides the clock
        for spans reconstructed from externally-measured intervals."""
        if self._finished:
            return
        self._finished = True
        measured = (time.perf_counter() - self._start) * 1000.0
        self.tracer._record(self, float(dur_ms) if dur_ms is not None
                            else measured)

    def __enter__(self) -> "Span":
        self._previous = _ACTIVE.get()
        _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.set(self._previous)
        self._previous = None
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = repr(exc)
        self.finish()


class Tracer:
    """Span factory plus a bounded collector (thread-safe).

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest finished spans fall off first.
    sink_dir:
        When set, every finished span is also appended as one JSON line
        to ``<sink_dir>/<sink_name>`` (directory created on demand) —
        the ``--trace-dir`` artifact the smoke jobs upload.
    sink_name:
        Sink file name; defaults to ``trace-<pid>.jsonl`` so several
        processes can share one directory.
    """

    def __init__(self, capacity: int = 4096,
                 sink_dir: Optional[str] = None,
                 sink_name: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=int(capacity))
        self.capacity = int(capacity)
        self.n_started = 0
        self.n_finished = 0
        self.n_evicted = 0
        self._sink = None
        self.sink_path: Optional[Path] = None
        if sink_dir is not None:
            directory = Path(sink_dir)
            directory.mkdir(parents=True, exist_ok=True)
            self.sink_path = directory / (
                sink_name if sink_name is not None
                else f"trace-{os.getpid()}.jsonl")
            self._sink = open(self.sink_path, "a", encoding="utf8")

    # -- span construction -------------------------------------------------

    def start(self, name: str,
              parent: Optional[Union[Span, TraceContext]] = None,
              attrs: Optional[Dict[str, object]] = None) -> Span:
        """A new span: a fresh trace root, or a child of ``parent``
        (another span, or a :class:`TraceContext` off the wire)."""
        if parent is None:
            trace_id, parent_id = _new_trace_id(), None
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        with self._lock:
            self.n_started += 1
        return Span(self, name, trace_id, parent_id, attrs)

    def emit(self, name: str,
             parent: Optional[Union[Span, TraceContext]] = None,
             dur_ms: float = 0.0, ts: Optional[float] = None,
             attrs: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Record an already-measured interval as a completed span.

        For intervals whose start predates the decision to trace them
        (the server's queue-wait, measured from frame arrival) — the
        span is created and finished in one step with the given
        duration.  Returns the recorded dict (ids included).
        """
        span = self.start(name, parent=parent, attrs=attrs)
        if ts is not None:
            span.ts = float(ts)
        span.finish(dur_ms=dur_ms)
        return {"trace_id": span.trace_id, "span_id": span.span_id,
                "parent_id": span.parent_id, "name": span.name,
                "ts": round(span.ts, 6), "dur_ms": round(float(dur_ms), 6),
                "attrs": span.attrs}

    # -- collection --------------------------------------------------------

    def _record(self, span: Span, dur_ms: float) -> None:
        entry = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "ts": round(span.ts, 6),
            "dur_ms": round(dur_ms, 6),
            "attrs": span.attrs,
        }
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.n_evicted += 1
            self._spans.append(entry)
            self.n_finished += 1
            if self._sink is not None:
                self._sink.write(json.dumps(entry, sort_keys=True,
                                            default=str) + "\n")
                self._sink.flush()

    def spans(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Finished spans, oldest first (copies; safe to mutate).

        ``limit`` keeps only the newest ``limit`` spans (``0`` keeps
        none); a negative limit raises ``ValueError``.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"span limit must be >= 0, got {limit}")
        with self._lock:
            entries = list(self._spans)
        if limit is not None:
            entries = entries[-limit:] if limit else []
        return [dict(entry) for entry in entries]

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear every buffered span."""
        with self._lock:
            entries = list(self._spans)
            self._spans.clear()
        return [dict(entry) for entry in entries]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "started": self.n_started,
                "finished": self.n_finished,
                "buffered": len(self._spans),
                "evicted": self.n_evicted,
                "capacity": self.capacity,
                "sink": str(self.sink_path) if self.sink_path else None,
            }

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
