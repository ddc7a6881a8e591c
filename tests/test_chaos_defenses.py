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
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import (
    Backoff,
    DeadlineError,
    NetError,
    QueryFuser,
    ReplicaSet,
    ServingClient,
)
from repro.serving.net.fusion import DeadlineExpired
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

    def top_n_batch(users, n=10, exclude_seen=True):
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
    release = threading.Event()
    calls = []

    def top_n_batch(users, n=10, exclude_seen=True):
        calls.append(sorted(set(users)))
        if users == [1]:
            release.wait(5.0)
        return {user: user for user in users}

    async def scenario():
        # A long fallback window: the doomed waiter's deadline passes
        # while it accumulates behind the in-flight batch, so the
        # eventual flush must shed it instead of scoring it late.
        fuser = QueryFuser(top_n_batch, window_ms=150.0)
        blocked = asyncio.ensure_future(fuser.top_n(1, n=5))
        await asyncio.sleep(0.05)  # eager dispatch; batch now blocked
        doomed = asyncio.ensure_future(fuser.top_n(
            2, n=5, deadline=time.monotonic() + 0.02))
        with pytest.raises(DeadlineExpired):
            await doomed
        release.set()
        assert await blocked == 1
        assert fuser.stats()["fusion_expired"] == 1

    asyncio.run(scenario())
    assert [1] in calls and [2] not in calls


# ---------------------------------------------------------------------------
# server-side deadline gate and client DeadlineError semantics
# ---------------------------------------------------------------------------

def test_expired_deadline_is_shed_at_the_server_gate(snapshot):
    """With the lone dispatch slot held, a deadlined request expires
    while queueing and comes back ``deadline_exceeded`` — raised as
    DeadlineError without marking the replica dead."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, max_in_flight=1,
                    fuse_window_ms=None) as replicas:
        server = replicas.replicas[0].server
        with ServingClient(replicas.addresses, timeout=10.0) as client:
            client.top_n(0, n=5)  # connection + handshake up front
            server.stall(1.0)
            hold = threading.Thread(
                target=lambda: ServingClient(replicas.addresses,
                                             timeout=10.0).predict(0, 1))
            hold.start()
            # The server counts a request and takes the free slot in one
            # event-loop step, so two counted requests (the warm-up read
            # and the holder's) mean the holder owns the slot.
            give_up = time.monotonic() + 10.0
            while server.stats()["n_requests"] < 2:
                assert time.monotonic() < give_up, "holder never arrived"
                time.sleep(0.001)
            begin = time.monotonic()
            with pytest.raises(DeadlineError):
                client.top_n(1, n=5, deadline_ms=200)
            elapsed = time.monotonic() - begin
            assert elapsed < 5.0  # shed at the gate, not timed out
            hold.join(timeout=10.0)
            assert server.stats()["n_deadline_shed"] >= 1
            # The replica was never failed over or marked dead: the
            # very next plain request succeeds on the same connection.
            assert client.n_failovers == 0
            assert len(client.top_n(2, n=5)) == 5


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
            begin = time.monotonic()
            with pytest.raises(NetError):
                client.top_n(0, n=5, timeout=0.15)
            assert time.monotonic() - begin < 1.0
            # The cached connection's timeout is restored afterwards.
            time.sleep(1.2)
            assert len(client.top_n(0, n=5)) == 5


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def test_overload_sheds_with_retryable_error(snapshot):
    """One slot, queue depth one: the third concurrent request is shed
    with a retryable ``overloaded`` error instead of queueing."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, max_in_flight=1, max_queue_depth=1,
                    fuse_window_ms=None) as replicas:
        server = replicas.replicas[0].server
        results = []

        def call(delay):
            time.sleep(delay)
            try:
                with ServingClient(replicas.addresses,
                                   timeout=10.0) as client:
                    client.predict(0, 1)
                results.append("ok")
            except NetError as error:
                results.append(error)

        server.stall(1.5)
        threads = [threading.Thread(target=call, args=(delay,))
                   for delay in (0.0, 0.3, 0.6, 0.7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        shed = [r for r in results if isinstance(r, NetError)]
        assert shed, f"nothing was shed: {results}"
        assert all(error.retryable for error in shed)
        stats = server.stats()
        assert stats["n_overload_shed"]["read"] >= 1
        assert stats["max_queue_depth"] == 1
        # Back to normal once the stall clears.
        with ServingClient(replicas.addresses) as client:
            assert client.predict(0, 1) == pytest.approx(
                PredictionService(snapshot).predict(0, 1))


def test_reads_and_writes_shed_independently(snapshot):
    """The write queue filling up must not shed reads (and vice
    versa): the two classes have separate depth counters."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, max_in_flight=1, max_queue_depth=1,
                    fuse_window_ms=None, replicate=False) as replicas:
        server = replicas.replicas[0].server
        outcomes = {"write_shed": 0, "read_ok": 0}
        lock = threading.Lock()

        def write(delay):
            time.sleep(delay)
            try:
                with ServingClient(replicas.addresses, timeout=10.0,
                                   retry_writes=False) as client:
                    client.rate(0, np.array([1]), np.array([3.0]))
            except NetError:
                with lock:
                    outcomes["write_shed"] += 1

        def read(delay):
            time.sleep(delay)
            with ServingClient(replicas.addresses,
                               timeout=10.0) as client:
                client.predict(0, 1)
            with lock:
                outcomes["read_ok"] += 1

        server.stall(1.5)
        threads = [threading.Thread(target=write, args=(d,))
                   for d in (0.0, 0.2, 0.4, 0.5)] + \
                  [threading.Thread(target=read, args=(0.6,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        # Writes saturated their queue and shed; the read rode through.
        assert server.stats()["n_overload_shed"]["write"] >= 1
        assert server.stats()["n_overload_shed"]["read"] == 0
        assert outcomes["read_ok"] == 1


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
