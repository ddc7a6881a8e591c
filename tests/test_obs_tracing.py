"""End-to-end request tracing across the serving fleet (repro.obs).

The contracts under test:

* trace context rides a request only from a traced client, and a
  server without a tracer ignores it — either side may be untraced;
* a traced request yields a connected span tree across hops: client
  root → attempt → server admission (queue wait split out) → execute,
  and for mutations onward through the WAL —
  ``wal.commit`` → ``wal.append``/``wal.fsync`` → ``wal.ship`` →
  every follower's ``wal.follower_apply``;
* failover keeps the trace: a retried request stays one trace_id and
  grows a fresh attempt span per replica tried;
* a fused window is one parent span plus one ``fusion.waiter`` child
  per request, in response order;
* the stats/health frames are flat, the ``metrics`` frame serves the
  one dotted registry view, and the ``trace`` frame exports (and
  drains) the server's span buffer, refusing a malformed ``limit``;
* a chaos fault firing inside a traced request annotates the live span.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.obs import Tracer
from repro.serving.chaos import FaultEvent, FaultInjector, FaultPlan
from repro.serving.net import (Frame, FrameDecoder, NetError, ReplicaSet,
                               ServingClient, encode_frame, hello_frame)
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 40, 30, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=5)


@pytest.fixture()
def traced_pair(snapshot):
    """A 2-replica traced fleet plus its shared tracer."""
    tracer = Tracer(capacity=8192)
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, tracer=tracer) as replicas:
        yield tracer, replicas


def _tree(spans, root):
    """The subtree under ``root`` (children found by parent_id)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    collected, stack = [], [root]
    while stack:
        node = stack.pop()
        collected.append(node)
        stack.extend(children.get(node["span_id"], []))
    return collected


def _roots(spans, name):
    return [span for span in spans
            if span["name"] == name and span["parent_id"] is None]


# ---------------------------------------------------------------------------
# traced and untraced peers
# ---------------------------------------------------------------------------

def test_traced_read_spans_both_sides_of_the_wire(traced_pair):
    tracer, replicas = traced_pair
    with ServingClient(replicas.addresses, tracer=tracer) as client:
        client.top_n(3, n=5)
        client.predict(3, 7)
    spans = tracer.spans()
    # Fused-by-default top_n dispatches through a fusion window...
    root = _roots(spans, "client.top_n")[-1]
    names = [span["name"] for span in _tree(spans, root)]
    for expected in ("client.attempt", "server.admit", "server.queue",
                     "fusion.window"):
        assert expected in names, f"missing {expected} in {names}"
    admits = [span for span in _tree(spans, root)
              if span["name"] == "server.admit"]
    assert admits[0]["attrs"]["kind"] == "top_n"
    # ...while every other kind runs under a server.execute span.
    predict_root = _roots(spans, "client.predict")[-1]
    predict_names = [span["name"] for span in _tree(spans, predict_root)]
    assert "server.execute" in predict_names


def test_untraced_client_against_traced_server_stays_untraced(traced_pair):
    tracer, replicas = traced_pair
    with ServingClient(replicas.addresses) as client:
        client.top_n(3, n=5)
    assert tracer.spans() == []


def test_traced_client_against_untraced_server_stays_silent(snapshot):
    tracer = Tracer()
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        with ServingClient(replicas.addresses, tracer=tracer) as client:
            client.top_n(3, n=5)
        reply = replicas.replicas[0].server  # server side recorded nothing
        assert reply.tracer is None
    spans = tracer.spans()
    # The client still records its own spans; the context it sent was
    # ignored by the untraced server, and the request succeeded.
    assert _roots(spans, "client.top_n")
    assert all(span["name"].startswith("client.") for span in spans)


# ---------------------------------------------------------------------------
# failover keeps the trace
# ---------------------------------------------------------------------------

def test_failover_retry_is_one_trace_with_fresh_attempt_spans(traced_pair):
    tracer, replicas = traced_pair
    addresses = list(replicas.addresses)
    replicas.kill(0)  # the ring tries address 0 first: guaranteed retry
    with ServingClient(addresses, tracer=tracer, cooldown=0.01,
                       backoff_max=0.05) as client:
        client.top_n(7, n=5)
        assert client.n_failovers >= 1
    spans = tracer.spans()
    root = _roots(spans, "client.top_n")[-1]
    tree = _tree(spans, root)
    assert {span["trace_id"] for span in tree} == {root["trace_id"]}, \
        "failover split the trace"
    attempts = sorted((span for span in tree
                       if span["name"] == "client.attempt"),
                      key=lambda span: span["attrs"]["attempt"])
    assert len(attempts) >= 2, "retry did not open a fresh attempt span"
    assert len({span["span_id"] for span in attempts}) == len(attempts)
    assert attempts[0]["attrs"]["replica"] != attempts[-1]["attrs"]["replica"]
    assert "error" in attempts[0]["attrs"], \
        "failed attempt lost its error annotation"


# ---------------------------------------------------------------------------
# fused windows: one parent, N children, response order
# ---------------------------------------------------------------------------

def test_fused_window_is_one_parent_with_children_in_response_order(
        snapshot):
    """Four traced ``top_n`` requests, each in its own trace, decoded
    from one socket read, so they ride one fused window: its span has one
    ``fusion.waiter`` child per request, indexed in response order, and
    the waiters of the other three traces link back to their origin."""
    tracer = Tracer(capacity=8192)
    n_requests = 4
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, fuse_window_ms=100.0,
                    tracer=tracer) as replicas:
        roots = [tracer.start("client.top_n") for _ in range(n_requests)]
        burst = encode_frame(hello_frame()) + b"".join(
            encode_frame(Frame("top_n", {
                "user": user, "n": 5, "id": user,
                "trace": root.context().to_wire()}))
            for user, root in enumerate(roots))
        with socket.create_connection(replicas.addresses[0],
                                      timeout=10.0) as sock:
            sock.settimeout(10.0)
            sock.sendall(burst)
            decoder, frames = FrameDecoder(), []
            while len(frames) < n_requests + 1:
                frames += decoder.feed(sock.recv(1 << 16))
        for root in roots:
            root.finish()
    assert not any(frame.is_error for frame in frames)

    spans = tracer.spans()
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    windows = [span for span in spans if span["name"] == "fusion.window"]
    assert windows, "the concurrent burst never fused"
    for window in windows:
        waiters = [span for span in children.get(window["span_id"], [])
                   if span["name"] == "fusion.waiter"]
        # One child per fused request, indexed in response order.
        assert len(waiters) == window["attrs"]["users"]
        assert sorted(span["attrs"]["index"] for span in waiters) \
            == list(range(len(waiters)))
    deepest = max(len(children.get(window["span_id"], []))
                  for window in windows)
    assert deepest == n_requests, "the burst did not fuse into one window"
    # Waiters from other requests' traces link back to their origin
    # instead of silently re-parenting into the window's trace.
    cross = [span for span in spans if span["name"] == "fusion.waiter"
             and "origin_trace_id" in span["attrs"]]
    assert len(cross) == n_requests - 1
    for span in cross:
        assert span["attrs"]["origin_trace_id"] != span["trace_id"]
    batch_names = {span["name"]
                   for window in windows
                   for span in children.get(window["span_id"], [])}
    assert "fusion.waiter" in batch_names


# ---------------------------------------------------------------------------
# the WAL write chain
# ---------------------------------------------------------------------------

def test_write_trace_covers_append_fsync_ship_and_follower_apply(
        snapshot, tmp_path):
    tracer = Tracer(capacity=8192)
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=3, wal_dir=str(tmp_path / "wal"),
                    tracer=tracer) as replicas:
        # Pin the leader: the chain under test is the commit, not the
        # follower forward hop (tested separately below).
        with ServingClient(replicas.addresses[:1],
                           tracer=tracer) as client:
            client.fold_in(np.array([0, 1]), np.array([4.0, 5.0]))
    spans = tracer.spans()
    root = _roots(spans, "client.foldin")[-1]
    tree = _tree(spans, root)
    by_name = {}
    for span in tree:
        by_name.setdefault(span["name"], []).append(span)
    for name in ("client.attempt", "server.admit", "wal.commit",
                 "wal.append", "wal.fsync", "wal.ship",
                 "wal.follower_apply"):
        assert name in by_name, f"write chain is missing {name}"
    assert {span["trace_id"] for span in tree} == {root["trace_id"]}

    commit = by_name["wal.commit"][0]
    assert commit["attrs"]["seqno"] == 1
    append = by_name["wal.append"][0]
    assert append["attrs"]["seqno"] == 1
    assert append["parent_id"] == commit["span_id"]
    # The fsync happens inside the append: it nests one level deeper.
    assert by_name["wal.fsync"][0]["parent_id"] == append["span_id"]
    ship = by_name["wal.ship"][0]
    assert ship["parent_id"] == commit["span_id"]
    assert ship["attrs"]["followers"] == 2
    applies = by_name["wal.follower_apply"]
    assert len(applies) == 2, "one apply span per follower"
    for apply_span in applies:
        assert apply_span["attrs"]["applied"] == 1
        assert apply_span["attrs"]["replayed_seqno"] == [1]


class _CommitSignal(Tracer):
    """A tracer that sets ``second`` once two ``wal.commit`` spans have
    started (counting from ``reset``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.commits = 0
        self.second = threading.Event()

    def start(self, name, parent=None, attrs=None):
        span = super().start(name, parent=parent, attrs=attrs)
        if name == "wal.commit":
            self.commits += 1
            if self.commits == 2:
                self.second.set()
        return span


def test_interleaved_commits_keep_separate_span_trees(snapshot, tmp_path):
    """Two traced writes on one leader loop, the second's ``wal.commit``
    entered while the first sits in its append on the WAL thread: each
    write keeps its own tree — commit → append → fsync, commit → ship →
    the follower's admission → its apply — under its own trace id.  Both commits run on the
    one loop thread, so a thread-local active span would hand the
    first commit's ship to the second commit, and the WAL thread would
    see no active span at all."""
    tracer = _CommitSignal(capacity=8192)
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, wal_dir=str(tmp_path / "wal"),
                    tracer=tracer) as replicas:
        with ServingClient(replicas.addresses[:1]) as client:
            user = client.fold_in(np.array([0, 1]), np.array([4.0, 5.0]))
        log = replicas.replicas[0].server.wal.log
        real_append = log.append

        def append(payload):
            # Park the first commit until the second one has started.
            assert tracer.second.wait(10.0)
            return real_append(payload)

        log.append = append
        tracer.drain()
        tracer.commits = 0

        def write(item: int) -> None:
            with ServingClient(replicas.addresses[:1],
                               tracer=tracer) as writer:
                writer.rate(user, np.array([item]), np.array([3.0]))

        writers = [threading.Thread(target=write, args=(item,))
                   for item in (2, 3)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in writers)
    spans = tracer.spans()
    roots = _roots(spans, "client.rate")
    assert len(roots) == 2
    seqnos = set()
    for root in roots:
        tree = _tree(spans, root)
        assert {span["trace_id"] for span in tree} == {root["trace_id"]}
        by_name = {}
        for span in tree:
            by_name.setdefault(span["name"], []).append(span)
        (commit,), (append_span,), (fsync,), (ship,), (apply_span,) = (
            by_name[name] for name in ("wal.commit", "wal.append",
                                       "wal.fsync", "wal.ship",
                                       "wal.follower_apply"))
        assert append_span["parent_id"] == commit["span_id"]
        assert fsync["parent_id"] == append_span["span_id"]
        assert ship["parent_id"] == commit["span_id"]
        # The follower's admission sits between the ship and the apply.
        admit, = [span for span in tree
                  if span["span_id"] == apply_span["parent_id"]]
        assert admit["name"] == "server.admit"
        assert admit["parent_id"] == ship["span_id"]
        assert append_span["attrs"]["seqno"] == commit["attrs"]["seqno"] \
            == ship["attrs"]["seqno"]
        seqnos.add(commit["attrs"]["seqno"])
    assert seqnos == {2, 3}


def test_write_via_follower_traces_the_forward_hop(snapshot):
    tracer = Tracer(capacity=8192)
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, tracer=tracer) as replicas:
        with ServingClient(replicas.addresses[1:],
                           tracer=tracer) as client:
            client.fold_in(np.array([2]), np.array([3.0]))
    spans = tracer.spans()
    root = _roots(spans, "client.foldin")[-1]
    names = [span["name"] for span in _tree(spans, root)]
    assert "wal.forward" in names, \
        "follower-received write lost its forward span"
    # Three admissions, one trace: the follower's front door, the
    # leader receiving the forward, and the follower again when the
    # committed record ships back.
    assert names.count("server.admit") == 3
    assert "wal.commit" in names


# ---------------------------------------------------------------------------
# export surfaces: stats, metrics frame, trace frame
# ---------------------------------------------------------------------------

def test_stats_is_flat_and_metrics_serves_dotted_names(traced_pair):
    tracer, replicas = traced_pair
    with ServingClient(replicas.addresses, tracer=tracer) as client:
        client.fold_in(np.array([0]), np.array([4.0]))
        client.top_n(1, n=5)
        flat = client.stats()
        snapshot = client.metrics()
        health = client.health()
    # The stats frame is the gateway's own flat dict...
    assert flat["n_folded_in"] == 1
    # ...and the registry snapshot serves the same facts dotted, with
    # per-replica labels, plus the native latency histograms.
    assert any(key.startswith("serving.service.n_folded_in")
               for key in snapshot)
    assert any(key.startswith("serving.server.n_requests{replica=")
               for key in snapshot)
    queue_wait = next(value for key, value in snapshot.items()
                      if key.startswith("serving.server.queue_wait_ms"
                                        "{replica=0}"))
    assert queue_wait["count"] > 0
    assert set(queue_wait) >= {"count", "sum", "min", "max",
                               "p50", "p95", "p99"}
    assert any(key.startswith("wal.role") for key in snapshot)
    # The metrics frame is the one dotted view: health has none.
    assert health["status"] == "ok"
    assert "metrics" not in health


def test_trace_frame_exports_limits_and_drains(traced_pair):
    tracer, replicas = traced_pair
    with ServingClient(replicas.addresses, tracer=tracer) as client:
        for user in range(5):
            client.top_n(user, n=3)
        full = client.spans()
        assert full["enabled"] is True
        assert full["tracer"]["finished"] >= 5
        assert len(full["spans"]) >= 5
        # Trace requests are themselves traced, so the buffer keeps
        # moving between calls: check the limit, not exact contents.
        limited = client.spans(limit=2)
        assert len(limited["spans"]) == 2
        drained = client.spans(drain=True)
        assert len(drained["spans"]) >= len(full["spans"])
        # The drain cleared the buffer; only spans of the drain request
        # itself and this export (on the shared tracer) may trickle in.
        leftover = client.spans()["spans"]
        assert len(leftover) <= 8
        assert all(span["name"] in
                   ("client.trace", "client.attempt", "server.admit",
                    "server.queue", "server.execute")
                   for span in leftover)


def test_trace_frame_refuses_a_negative_or_non_integer_limit(traced_pair):
    tracer, replicas = traced_pair
    with ServingClient(replicas.addresses, tracer=tracer) as client:
        client.top_n(1, n=3)
        with pytest.raises(NetError, match="non-negative integer"):
            client.spans(limit=-2)
        assert client.spans(limit=0)["spans"] == []
    with socket.create_connection(replicas.addresses[0],
                                  timeout=10.0) as sock:
        sock.settimeout(10.0)
        sock.sendall(encode_frame(hello_frame())
                     + encode_frame(Frame("trace", {"limit": "all"})))
        decoder, frames = FrameDecoder(), []
        while len(frames) < 2:
            frames += decoder.feed(sock.recv(1 << 16))
    assert frames[1].is_error
    assert "non-negative integer" in frames[1].payload["message"]


def test_trace_frame_reports_disabled_on_untraced_server(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        with ServingClient(replicas.addresses) as client:
            reply = client.spans()
    assert reply == {"enabled": False, "spans": []}


# ---------------------------------------------------------------------------
# chaos: fired faults annotate the live span
# ---------------------------------------------------------------------------

def test_fired_fault_annotates_the_active_attempt_span(traced_pair):
    tracer, replicas = traced_pair
    plan = FaultPlan(seed=0, events=[
        FaultEvent(site="net.send", step=2, action="delay", arg=0.001)])
    injector = FaultInjector(plan)
    with ServingClient(replicas.addresses, tracer=tracer,
                       fault_injector=injector) as client:
        for user in range(4):
            client.top_n(user, n=3)
    assert injector.log, "the scheduled fault never fired"
    annotated = [span for span in tracer.spans()
                 if "fault" in span["attrs"]]
    assert annotated, "the fired fault annotated no span"
    fired = annotated[0]["attrs"]["fault"][0]
    assert fired["site"] == "net.send"
    assert fired["action"] == "delay"
    assert annotated[0]["name"] == "client.attempt"
