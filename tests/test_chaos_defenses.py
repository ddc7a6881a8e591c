"""Deadline propagation, admission control and backoff — the defenses.

The chaos layer's defensive half: expired work is shed, never scored
(the fuser property every other guarantee leans on), overload turns
into retryable ``overloaded`` errors instead of unbounded queueing, a
``deadline_exceeded`` reply raises :class:`DeadlineError` without
burning failover attempts, and the failover/shipping backoff is a
deterministic, capped exponential.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import (
    Backoff,
    DeadlineError,
    Frame,
    FrameDecoder,
    NetError,
    QueryFuser,
    ReplicaSet,
    ServingClient,
    encode_frame,
)
from repro.serving.net.fusion import DeadlineExpired
from repro.serving.net.protocol import (ERROR_DEADLINE, ERROR_OVERLOADED,
                                        hello_frame)
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 40, 31, 4

COMMON_SETTINGS = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=5)


@pytest.fixture(scope="module")
def reference(snapshot):
    return PredictionService(snapshot)


# ---------------------------------------------------------------------------
# backoff policy
# ---------------------------------------------------------------------------

@given(base=st.floats(0.001, 5.0), factor=st.floats(1.0, 20.0),
       jitter=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       failures=st.integers(1, 80))
@COMMON_SETTINGS
def test_backoff_is_bounded_and_deterministic(base, factor, jitter, seed,
                                              failures):
    cap = base * factor
    first = Backoff(base=base, cap=cap, jitter=jitter, seed=seed)
    second = Backoff(base=base, cap=cap, jitter=jitter, seed=seed)
    sequence = [first.delay(n) for n in range(1, failures + 1)]
    assert sequence == [second.delay(n) for n in range(1, failures + 1)]
    for delay in sequence:
        assert 0.0 <= delay <= cap * (1.0 + jitter) + 1e-9
    # Ideal (jitter-free) delays double per failure up to the cap.
    ideal = Backoff(base=base, cap=cap, jitter=0.0)
    assert ideal.delay(1) == pytest.approx(base)
    assert ideal.delay(60) == pytest.approx(cap)


def test_backoff_edge_cases():
    assert Backoff(base=0.0, cap=0.0).delay(5) == 0.0
    assert Backoff(base=1.0, cap=4.0, jitter=0.0).delay(0) == 0.0
    with pytest.raises(ValueError):
        Backoff(base=-1.0, cap=2.0)
    with pytest.raises(ValueError):
        Backoff(base=2.0, cap=1.0)
    with pytest.raises(ValueError):
        Backoff(base=1.0, cap=2.0, jitter=1.5)


# ---------------------------------------------------------------------------
# the fuser never dispatches expired work
# ---------------------------------------------------------------------------

def _run_fused(requests):
    """Enqueue (user, expired?) requests on one fuser; returns
    (dispatched user sets, per-request outcomes)."""
    calls = []

    async def top_n_batch(users, n=10, exclude_seen=True):
        calls.append(sorted(set(users)))
        return {user: ("served", user) for user in users}

    async def scenario():
        fuser = QueryFuser(top_n_batch, window_ms=1.0, max_batch=10**6)
        now = time.monotonic()
        futures = [
            asyncio.ensure_future(fuser.top_n(
                user, n=5,
                deadline=(now - 10.0) if expired else (now + 60.0)))
            for user, expired in requests
        ]
        await fuser.drain()
        return await asyncio.gather(*futures, return_exceptions=True)

    return calls, asyncio.run(scenario())


@given(requests=st.lists(
    st.tuples(st.integers(0, 20), st.booleans()), min_size=1, max_size=30))
@COMMON_SETTINGS
def test_expired_requests_are_never_dispatched(requests):
    """The acceptance pin: a request whose deadline has passed fails
    with DeadlineExpired and is never handed to a scorer."""
    calls, outcomes = _run_fused(requests)
    dispatched = {user for call in calls for user in call}
    for (user, expired), outcome in zip(requests, outcomes):
        if expired:
            assert isinstance(outcome, DeadlineExpired)
        else:
            assert outcome == ("served", user)
    expired_only = {user for user, expired in requests if expired} - \
        {user for user, expired in requests if not expired}
    assert not (dispatched & expired_only)


def test_expired_waiter_behind_inflight_batch_is_shed():
    """A waiter queued behind a slow in-flight batch expires at the
    flush boundary instead of being scored late."""
    calls = []

    async def scenario():
        entered, release = asyncio.Event(), asyncio.Event()

        async def top_n_batch(users, n=10, exclude_seen=True):
            calls.append(sorted(set(users)))
            if users == [1]:
                entered.set()
                await release.wait()
            return {user: user for user in users}

        # A long fallback window: the doomed waiter's deadline passes
        # while it accumulates behind the in-flight batch, so the
        # eventual flush must shed it instead of scoring it late.
        fuser = QueryFuser(top_n_batch, window_ms=150.0)
        blocked = asyncio.ensure_future(fuser.top_n(1, n=5))
        # Eager dispatch: the batch is blocked once it enters the gateway.
        await asyncio.wait_for(entered.wait(), 5.0)
        doomed = asyncio.ensure_future(fuser.top_n(
            2, n=5, deadline=time.monotonic() + 0.02))
        with pytest.raises(DeadlineExpired):
            await doomed
        release.set()
        assert await blocked == 1
        assert fuser.metrics()["expired"] == 1

    asyncio.run(scenario())
    assert [1] in calls and [2] not in calls


# ---------------------------------------------------------------------------
# driving the admission path by hand
# ---------------------------------------------------------------------------
#
# The tests below hold the lone in-flight slot behind ``server.stall``
# and then wait on the server's own counters (``n_requests``,
# ``queue_depth``) before sending the next request, so their verdicts
# never depend on how fast a thread got scheduled.  Raw connections send
# id-tagged frames — the frames the async client sends — and check the
# reply codes on the wire; a :class:`ServingClient` then checks what a
# caller sees of the same sheds.

class _RawConnection:
    """One hand-driven protocol connection (JSON requests, binary replies)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.settimeout(10.0)
        self.decoder = FrameDecoder()
        self.frames = collections.deque()
        self.send(hello_frame())
        assert not self.reply().is_error

    def send(self, frame: Frame) -> None:
        self.sock.sendall(encode_frame(frame))

    def reply(self) -> Frame:
        while not self.frames:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self.frames.extend(self.decoder.feed(data))
        return self.frames.popleft()

    def close(self) -> None:
        self.sock.close()


def _wait_for(server, condition, what: str) -> None:
    """Spin until ``condition(server.stats())`` holds: the server has
    taken in what the test sent.  The bound only turns a hang into a
    failure; no verdict depends on it."""
    give_up = time.monotonic() + 10.0
    while not condition(server.stats()):
        assert time.monotonic() < give_up, f"server never reached: {what}"


def _top_n(user: int, request_id: int, **extra) -> Frame:
    return Frame("top_n", {"user": user, "n": 5, "id": request_id, **extra})


def _one_slot_fleet(snapshot, **options):
    return ReplicaSet(lambda index: PredictionService(snapshot),
                      n_replicas=1, max_in_flight=1, **options)


# ---------------------------------------------------------------------------
# server-side deadline gate
# ---------------------------------------------------------------------------

def _check_deadline_gate(snapshot, reference, fuse_window_ms):
    """With the lone dispatch slot held behind a 1 s stall, a request
    with a 200 ms budget expires while it queues: the reply is a
    retryable ``deadline_exceeded`` error, counted once, and the holder
    is served normally."""
    with _one_slot_fleet(snapshot, fuse_window_ms=fuse_window_ms) \
            as replicas:
        server = replicas.replicas[0].server
        holder, late = (_RawConnection(replicas.addresses[0])
                        for _ in range(2))
        server.stall(1.0)
        holder.send(_top_n(0, 1))
        _wait_for(server, lambda stats: stats["n_requests"] == 1,
                  "the holder owns the slot")
        late.send(_top_n(1, 2, deadline_ms=200))
        shed = late.reply()
        assert shed.is_error and shed.payload["id"] == 2
        assert shed.payload["code"] == ERROR_DEADLINE
        assert shed.payload["retryable"] is True
        served = holder.reply()
        assert served.payload["items"].tolist() == \
            reference.top_n(0, n=5).items.tolist()
        assert server.stats()["n_deadline_shed"] == 1
        holder.close()
        late.close()


def test_expired_deadline_is_shed_at_the_server_gate(snapshot, reference):
    _check_deadline_gate(snapshot, reference, fuse_window_ms=None)


def test_fused_expired_deadline_is_shed_at_the_server_gate(snapshot,
                                                           reference):
    _check_deadline_gate(snapshot, reference, fuse_window_ms=2.0)


def test_deadline_reply_raises_deadline_error_without_failover(
        snapshot, reference, monkeypatch):
    """A server-gate ``deadline_exceeded`` reply ends a client request
    at once as :class:`DeadlineError`: no failover, the replica stays in
    the ring and the next request succeeds on the same connection."""
    with _one_slot_fleet(snapshot, fuse_window_ms=None) as replicas:
        server = replicas.replicas[0].server
        # One-way latency ate the whole budget: the server sees every
        # deadlined request expired on arrival.  Without this the gate
        # could only fire after the client's own clock has run out (the
        # server measures the budget from a later arrival), and the
        # client would end the request itself.
        monkeypatch.setattr(
            server, "_frame_deadline",
            lambda frame, arrival: (
                arrival if frame.payload.get("deadline_ms") is not None
                else None))
        with ServingClient(replicas.addresses, timeout=10.0) as client:
            client.top_n(0, n=5)  # connection + handshake up front
            holder = _RawConnection(replicas.addresses[0])
            server.stall(1.0)
            holder.send(_top_n(0, 1))
            _wait_for(server, lambda stats: stats["n_requests"] == 2,
                      "the holder owns the slot")
            with pytest.raises(DeadlineError, match="budget queueing"):
                client.top_n(1, n=5, deadline_ms=10_000)
            assert client.n_failovers == 0
            assert server.stats()["n_deadline_shed"] == 1
            assert holder.reply().payload["items"].tolist() == \
                reference.top_n(0, n=5).items.tolist()
            assert client.top_n(2, n=5).items.tolist() == \
                reference.top_n(2, n=5).items.tolist()
            assert client.n_failovers == 0
            # The warm-up connection served all three client calls.
            assert server.stats()["n_connections"] == 2
            holder.close()


def test_client_side_deadline_preempts_sending(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        with ServingClient(replicas.addresses) as client:
            with pytest.raises(DeadlineError):
                client.top_n(0, n=5, deadline_ms=0)
            with pytest.raises(DeadlineError):
                client.predict(0, 1, deadline_ms=-5)
            assert len(client.top_n(0, n=5)) == 5  # client still usable


def test_per_call_timeout_override(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, fuse_window_ms=None) as replicas:
        server = replicas.replicas[0].server
        with ServingClient(replicas.addresses, timeout=30.0) as client:
            client.top_n(0, n=5)
            server.stall(1.2)
            # Under the 30 s default this request would simply be served
            # once the stall ends; the 0.15 s override makes it fail.
            with pytest.raises(NetError):
                client.top_n(0, n=5, timeout=0.15)
            server.call_serialized(lambda: None)  # the stall has drained
            # The cached connection's timeout is restored afterwards.
            assert len(client.top_n(0, n=5)) == 5


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def _check_overload_shedding(snapshot, reference, fuse_window_ms):
    """One slot, queue depth one: with the slot held and one request
    queued, the third is shed with a retryable ``overloaded`` error
    instead of queueing — and a client sees the same shed as a
    retryable :class:`NetError`; the first two are served once the
    stall clears."""
    with _one_slot_fleet(snapshot, max_queue_depth=1,
                         fuse_window_ms=fuse_window_ms) as replicas:
        server = replicas.replicas[0].server
        first, second, third = (_RawConnection(replicas.addresses[0])
                                for _ in range(3))
        server.stall(1.0)
        first.send(_top_n(0, 1))
        _wait_for(server, lambda stats: stats["n_requests"] == 1,
                  "the first request owns the slot")
        second.send(_top_n(1, 2))
        _wait_for(server, lambda stats: stats["queue_depth"]["read"] == 1,
                  "the second request queues")
        third.send(_top_n(2, 3))
        shed = third.reply()
        assert shed.is_error and shed.payload["id"] == 3
        assert shed.payload["code"] == ERROR_OVERLOADED
        assert shed.payload["retryable"] is True
        # The lone replica declined without applying anything: the
        # client runs out of replicas and says the request may be
        # retried.
        with ServingClient(replicas.addresses, timeout=10.0) as client:
            with pytest.raises(NetError, match="overloaded") as caught:
                client.top_n(3, n=5)
            assert caught.value.retryable is True
        for connection, user in ((first, 0), (second, 1)):
            served = connection.reply()
            assert served.payload["items"].tolist() == \
                reference.top_n(user, n=5).items.tolist()
        stats = server.stats()
        assert stats["n_overload_shed"] == {"read": 2, "write": 0}
        assert stats["queue_depth"] == {"read": 0, "write": 0}
        assert stats["max_queue_depth"] == 1
        for connection in (first, second, third):
            connection.close()
        # Back to normal once the stall clears.
        with ServingClient(replicas.addresses) as client:
            assert client.predict(0, 1) == pytest.approx(
                reference.predict(0, 1))


def test_overload_sheds_with_retryable_error(snapshot, reference):
    _check_overload_shedding(snapshot, reference, fuse_window_ms=None)


def test_fused_overload_sheds_with_retryable_error(snapshot, reference):
    _check_overload_shedding(snapshot, reference, fuse_window_ms=2.0)


def test_reads_and_writes_shed_independently(snapshot):
    """The write queue filling up must not shed reads (and vice
    versa): the two classes have separate depth counters."""
    with _one_slot_fleet(snapshot, max_queue_depth=1,
                         fuse_window_ms=None) as replicas:
        server = replicas.replicas[0].server
        writers = [_RawConnection(replicas.addresses[0]) for _ in range(3)]
        reader = _RawConnection(replicas.addresses[0])

        def rate(request_id: int) -> Frame:
            return Frame("rate", {"user": 0, "items": [1], "values": [3.0],
                                  "id": request_id})

        server.stall(1.0)
        writers[0].send(rate(1))
        _wait_for(server, lambda stats: stats["n_requests"] == 1,
                  "the first write owns the slot")
        writers[1].send(rate(2))
        _wait_for(server, lambda stats: stats["queue_depth"]["write"] == 1,
                  "the second write queues")
        writers[2].send(rate(3))
        shed = writers[2].reply()
        assert shed.payload["code"] == ERROR_OVERLOADED
        # Writes saturated their queue and shed; the read rides through.
        reader.send(_top_n(0, 4))
        _wait_for(server, lambda stats: stats["queue_depth"]["read"] == 1,
                  "the read queues")
        assert not reader.reply().is_error
        for writer in writers[:2]:
            # Dispatched, not shed (user 0 is not folded in, so the
            # gateway answers with a domain error, uncoded).
            assert "code" not in writer.reply().payload
        assert server.stats()["n_overload_shed"] == {"read": 0, "write": 1}
        for connection in (*writers, reader):
            connection.close()


def test_queue_depth_is_surfaced_in_health(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        with ServingClient(replicas.addresses) as client:
            health = client.health()
            server_stats = health["server"]
            assert server_stats["queue_depth"] == {"read": 0, "write": 0}
            assert server_stats["max_queue_depth"] == 256
            assert server_stats["n_overload_shed"] == \
                {"read": 0, "write": 0}
            assert server_stats["n_deadline_shed"] == 0


# ---------------------------------------------------------------------------
# replication lag surfacing
# ---------------------------------------------------------------------------

def test_replication_lag_in_stats(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, ship_cooldown=0.05,
                    ship_backoff_max=0.2) as replicas:
        with ServingClient(replicas.addresses) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            leader, follower = replicas.wal_stats()
            assert leader["role"] == "leader"
            assert leader["max_follower_lag"] == 0
            assert list(leader["follower_applied"].values()) == \
                [leader["high_seqno"]]
            assert follower["role"] == "follower"
            assert follower["leader_hwm"] == leader["high_seqno"]
            assert follower["lag"] == 0
            # Kill the follower: subsequent acked writes now lag it.
            replicas.kill(1)
            client.rate(cold, np.array([2]), np.array([5.0]))
            client.rate(cold, np.array([3]), np.array([1.0]))
            leader = replicas.wal_stats()[0]
            assert leader["max_follower_lag"] >= 1


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
