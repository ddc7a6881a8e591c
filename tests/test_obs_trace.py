"""Unit tests for the tracer (repro.obs.trace).

The contract under test: spans parent explicitly (wire context) or via
the thread-local active span; the ring buffer bounds memory; the JSONL
sink persists what the ring may evict; and every helper degrades to a
no-op when no tracer/span is active — the disabled path must stay cold.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Span,
    TraceContext,
    Tracer,
    active_span,
    annotate_active,
    maybe_span,
)


# ---------------------------------------------------------------------------
# context parsing (the wire side)
# ---------------------------------------------------------------------------

def test_trace_context_round_trips_and_tolerates_garbage():
    ctx = TraceContext("t" * 32, "s" * 16)
    assert TraceContext.from_wire(ctx.to_wire()).trace_id == ctx.trace_id
    for garbage in (None, 3, "x", [], {}, {"trace_id": "a"},
                    {"trace_id": "", "span_id": "b"},
                    {"trace_id": 1, "span_id": 2}):
        assert TraceContext.from_wire(garbage) is None


# ---------------------------------------------------------------------------
# spans and parenting
# ---------------------------------------------------------------------------

def test_span_parenting_explicit_and_contextual():
    tracer = Tracer()
    root = tracer.start("root")
    child = tracer.start("child", parent=root)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id

    remote = tracer.start("remote", parent=child.context())
    assert remote.trace_id == root.trace_id
    assert remote.parent_id == child.span_id

    with tracer.start("active") as span:
        assert active_span() is span
        nested = maybe_span("nested")
        assert isinstance(nested, Span)
        assert nested.parent_id == span.span_id
        nested.finish()
    assert active_span() is None


def test_finish_is_idempotent_and_records_once():
    tracer = Tracer()
    span = tracer.start("once")
    span.finish()
    span.finish()
    assert len(tracer.spans()) == 1


def test_span_attrs_and_annotations():
    tracer = Tracer()
    with tracer.start("s", attrs={"kind": "rate"}) as span:
        span.set_attr("seqno", 9)
        span.annotate("fault", {"site": "wal.append"})
        span.annotate("fault", {"site": "wal.fsync"})
        annotate_active("replayed_seqno", 3)
    entry = tracer.spans()[-1]
    assert entry["attrs"]["kind"] == "rate"
    assert entry["attrs"]["seqno"] == 9
    assert [f["site"] for f in entry["attrs"]["fault"]] \
        == ["wal.append", "wal.fsync"]
    assert entry["attrs"]["replayed_seqno"] == [3]


def test_exiting_span_on_error_records_the_error_attr():
    tracer = Tracer()
    try:
        with tracer.start("boom"):
            raise ValueError("no")
    except ValueError:
        pass
    entry = tracer.spans()[-1]
    assert entry["attrs"]["error"] == repr(ValueError("no"))


def test_active_span_is_thread_local():
    tracer = Tracer()
    seen = {}

    def worker():
        seen["other"] = active_span()

    with tracer.start("mine"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["other"] is None


def test_helpers_are_no_ops_without_a_tracer():
    # No active span: maybe_span yields the shared null span, and both
    # annotate helpers silently do nothing.
    span = maybe_span("nothing", n=1)
    assert span is NULL_SPAN
    with span as inner:
        inner.set_attr("a", 1)
        inner.annotate("b", 2)
        annotate_active("c", 3)
    span.finish()


# ---------------------------------------------------------------------------
# collection: ring buffer, drain, sink
# ---------------------------------------------------------------------------

def test_ring_buffer_evicts_oldest_and_counts():
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.emit(f"s{index}")
    spans = tracer.spans()
    assert [span["name"] for span in spans] == ["s6", "s7", "s8", "s9"]
    assert tracer.spans(limit=2)[0]["name"] == "s8"
    stats = tracer.stats()
    assert stats["finished"] == 10
    assert stats["evicted"] == 6
    assert tracer.drain() == spans
    assert tracer.spans() == []


def test_spans_limit_keeps_the_newest_and_refuses_negatives():
    tracer = Tracer()
    for index in range(5):
        tracer.emit(f"s{index}")
    assert tracer.spans(0) == []
    assert [span["name"] for span in tracer.spans(2)] == ["s3", "s4"]
    assert len(tracer.spans(9)) == 5
    with pytest.raises(ValueError, match=">= 0"):
        tracer.spans(-2)


def test_emit_returns_the_recorded_entry():
    tracer = Tracer()
    parent = tracer.start("p")
    entry = tracer.emit("queue", parent=parent, dur_ms=1.5,
                        attrs={"class": "read"})
    assert entry["parent_id"] == parent.span_id
    assert entry["dur_ms"] == 1.5
    assert entry["attrs"]["class"] == "read"


def test_jsonl_sink_survives_ring_eviction(tmp_path):
    with Tracer(capacity=2, sink_dir=str(tmp_path),
                sink_name="trace-test.jsonl") as tracer:
        for index in range(6):
            tracer.emit(f"s{index}")
        assert len(tracer.spans()) == 2
    lines = [json.loads(line) for line in
             (tmp_path / "trace-test.jsonl").read_text().splitlines()]
    assert [line["name"] for line in lines] == [f"s{i}" for i in range(6)]
