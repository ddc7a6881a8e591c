"""Observability substrate: metrics registry + request-scoped tracing.

Two small, dependency-free modules shared by every serving component:

* :mod:`repro.obs.metrics` — process-wide, thread-safe counters, gauges
  and fixed-bucket latency histograms under dotted names
  (``serving.server.queue_wait_ms``, ``wal.append.fsync_ms``, ...), plus
  provider registration so each component's ``stats()`` dict surfaces
  under the same namespace.
* :mod:`repro.obs.trace` — ``trace_id``/``span_id``/``parent_id``
  request tracing with a ring-buffer collector and an optional JSONL
  sink.  Trace context rides request frames as an optional payload
  field; a server without a tracer ignores it.

Nothing in here imports from :mod:`repro.serving` — the serving stack
depends on ``repro.obs``, never the other way around.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    REGISTRY,
    dotted_stats,
)
from repro.obs.trace import (
    Span,
    TraceContext,
    Tracer,
    active_span,
    annotate_active,
    maybe_span,
)

__all__ = [
    "LATENCY_BUCKETS_MS", "MetricsRegistry", "REGISTRY", "dotted_stats",
    "Span", "TraceContext", "Tracer", "active_span", "annotate_active",
    "maybe_span",
]
