"""The gateway lock: reads on the loop, commits that let reads through.

One ``threading.Lock`` per :class:`NetServer` serializes gateway state.
What is pinned here:

* a fused window on an in-process gateway is scored inline on the event
  loop when the lock is free, and goes to the executor (never blocking
  the loop) when someone holds it;
* a gateway that is not in process never scores on the loop;
* a ``stall``ed gateway holds the lock, so fused reads queue on the
  executor behind it, and one whose deadline passes while it waits in
  its window is shed, not scored;
* a leader commit holds the lock only to validate and to apply: a read
  is served while the commit sits in its fsync, and the ack still waits
  for the fsync;
* reads of a folded-in user racing a stream of ``add_ratings`` for that
  user leave no stale score vector behind: after quiescence every
  replica serves what a fresh in-process service replaying the same
  writes serves, bit for bit.

Every wait below is on an event or a server counter; no verdict depends
on how fast a thread got scheduled.
"""

from __future__ import annotations

import asyncio
import collections
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import (Frame, FrameDecoder, QueryFuser, ReplicaSet,
                               ServingClient, encode_frame)
from repro.serving.net.protocol import ERROR_DEADLINE, hello_frame
from repro.serving.service import PredictionService
from repro.serving.wal import LeaderCoordinator, WriteAheadLog

N_USERS, N_ITEMS, K = 40, 33, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=13)


@pytest.fixture(scope="module")
def reference(snapshot):
    return PredictionService(snapshot)


def _same(expected, served) -> None:
    assert served.items.tolist() == expected.items.tolist()
    assert np.asarray(served.scores).tobytes() == expected.scores.tobytes()


def _wait(condition, what: str) -> None:
    """Spin until ``condition()`` holds; the bound only turns a hang
    into a failure."""
    give_up = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < give_up, f"never reached: {what}"


# ---------------------------------------------------------------------------
# the fuser, sans sockets
# ---------------------------------------------------------------------------

class _Recorder:
    """A batch entry point recording the thread and lock state per call."""

    def __init__(self, lock: threading.Lock):
        self.lock = lock
        self.calls = []  # (users, thread ident, lock held?)

    def top_n_batch(self, users, n=10, exclude_seen=True):
        self.calls.append((list(users), threading.get_ident(),
                           self.lock.locked()))
        return {int(user): int(user) * 10 for user in users}


def test_free_lock_scores_the_window_inline_on_the_loop():
    lock = threading.Lock()
    gateway = _Recorder(lock)

    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=10_000.0,
                           lock=lock)
        results = await asyncio.gather(*(fuser.top_n(user, n=3)
                                         for user in (4, 5, 4)))
        return threading.get_ident(), results, fuser.metrics()

    loop_thread, results, stats = asyncio.run(scenario())
    assert results == [40, 50, 40]
    # One window, scored on the loop thread with the lock held.
    assert gateway.calls == [([4, 5, 4], loop_thread, True)]
    assert stats["windows"] == stats["inline"] == 1
    assert not lock.locked()


def test_held_lock_sends_the_window_to_the_executor_without_blocking():
    """With the lock held elsewhere the flush never waits on it: the
    loop keeps running other work, the window is scored on the executor
    once the holder lets go, and nothing counts as inline."""
    lock = threading.Lock()
    gateway = _Recorder(lock)

    async def scenario():
        fuser = QueryFuser(gateway.top_n_batch, window_ms=10_000.0,
                           lock=lock)
        lock.acquire()
        try:
            read = asyncio.ensure_future(fuser.top_n(7, n=3))
            # Many loop passes while the lock is held: the loop is not
            # blocked, and the read waits on the executor.
            for _ in range(50):
                await asyncio.sleep(0)
            assert not read.done()
            assert gateway.calls == []
        finally:
            lock.release()
        return threading.get_ident(), await read, fuser.metrics()

    loop_thread, result, stats = asyncio.run(scenario())
    assert result == 70
    (users, thread, held), = gateway.calls
    assert users == [7] and thread != loop_thread and held
    assert stats["windows"] == 1 and stats["inline"] == 0


def test_inline_window_that_raises_is_partitioned_inline():
    lock = threading.Lock()
    calls = []

    def top_n_batch(users, n=10, exclude_seen=True):
        calls.append(list(users))
        if 99 in users:
            raise ValueError("invalid user 99")
        return {user: user for user in users}

    async def scenario():
        fuser = QueryFuser(top_n_batch, window_ms=10_000.0, lock=lock)
        return await asyncio.gather(
            *(fuser.top_n(user, n=3) for user in (1, 99, 2)),
            return_exceptions=True), fuser.metrics()

    (first, bad, second), stats = asyncio.run(scenario())
    assert (first, second) == (1, 2)
    assert isinstance(bad, ValueError)
    assert calls == [[1, 99, 2], [1], [99], [2]]
    assert stats["partitions"] == 1 and stats["inline"] == 1
    assert not lock.locked()


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

class _RemoteGateway:
    """A gateway that is not a PredictionService (like ShardedScorer),
    recording where its batch calls run."""

    def __init__(self, service: PredictionService):
        self._service = service
        self.server = None
        self.calls = []  # (thread name, lock held?)

    def __getattr__(self, name):
        return getattr(self._service, name)

    def top_n_batch(self, users, n=10, exclude_seen=True):
        self.calls.append((threading.current_thread().name,
                           self.server.gateway_lock.locked()))
        return self._service.top_n_batch(users, n=n,
                                         exclude_seen=exclude_seen)


def test_a_gateway_that_is_not_in_process_never_scores_on_the_loop(
        snapshot, reference):
    gateways = []

    def make(index):
        gateways.append(_RemoteGateway(PredictionService(snapshot)))
        return gateways[-1]

    with ReplicaSet(make, n_replicas=1, replicate=False) as replicas:
        server = replicas.replicas[0].server
        gateways[0].server = server
        with ServingClient(replicas.addresses) as client:
            for user in (0, 3, 8):
                _same(reference.top_n(user, n=5), client.top_n(user, n=5))
        assert server.fuser.metrics()["inline"] == 0
    assert len(gateways[0].calls) == 3
    for thread_name, held in gateways[0].calls:
        assert thread_name.startswith("repro-net-exec") and held


def test_in_process_reads_are_scored_on_the_loop(snapshot, reference):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, replicate=False) as replicas:
        server = replicas.replicas[0].server
        with ServingClient(replicas.addresses) as client:
            for user in (1, 2, 3):
                _same(reference.top_n(user, n=4), client.top_n(user, n=4))
            health = client.health()
        # An idle gateway: each sequential read found the lock free.
        assert server.fuser.metrics()["inline"] == 3
        assert health["fusion"]["inline"] == 3


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


def test_stalled_gateway_sheds_expired_fused_reads(snapshot, reference):
    """``stall`` holds the gateway lock, so a fused read finds it taken
    and queues on the executor behind the stall; a read with a 100 ms
    budget accumulates behind that in-flight window, its deadline passes
    before the 400 ms fallback flush, and the fuser sheds it instead of
    scoring it.  Once the stall drains, reads are inline again."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, replicate=False,
                    fuse_window_ms=400.0) as replicas:
        server = replicas.replicas[0].server
        holder, late = (_RawConnection(replicas.addresses[0])
                        for _ in range(2))
        server.stall(1.0)
        assert server.gateway_lock.locked()  # wedged before stall returns
        holder.send(Frame("top_n", {"user": 0, "n": 5, "id": 1}))
        _wait(lambda: server.fuser.metrics()["windows"] == 1,
              "the holder's window is in flight")
        late.send(Frame("top_n", {"user": 1, "n": 5, "id": 2,
                                  "deadline_ms": 100}))
        shed = late.reply()
        assert shed.is_error and shed.payload["id"] == 2
        assert shed.payload["code"] == ERROR_DEADLINE
        assert shed.payload["retryable"] is True
        served = holder.reply()
        assert served.payload["items"].tolist() == \
            reference.top_n(0, n=5).items.tolist()
        stats = server.fuser.metrics()
        assert stats["expired"] == 1
        assert stats["inline"] == 0  # nothing ran on the loop
        assert server.stats()["n_deadline_shed"] == 1
        server.call_serialized(lambda: None)  # the stall has drained
        holder.send(Frame("top_n", {"user": 2, "n": 5, "id": 3}))
        assert holder.reply().payload["items"].tolist() == \
            reference.top_n(2, n=5).items.tolist()
        assert server.fuser.metrics()["inline"] == 1
        holder.close()
        late.close()


def _rate(addresses, user, item, value):
    """One ``rate`` on its own connection (a separate writer)."""
    with ServingClient(addresses) as client:
        return client.rate(user, [item], [value])


def test_reads_are_served_while_a_commit_sits_in_its_fsync(snapshot,
                                                           reference):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        server = replicas.replicas[0].server
        with ServingClient(replicas.addresses) as client:
            user = client.fold_in([0, 1, 2], [4.0, 3.5, 2.0])
            log = server.wal.log
            real_append = log.append
            entered, release = threading.Event(), threading.Event()

            def slow_append(payload):
                entered.set()
                assert release.wait(10.0)
                return real_append(payload)

            log.append = slow_append
            acked = []
            writer = threading.Thread(
                target=lambda: acked.append(
                    _rate(replicas.addresses, user, 7, 5.0)))
            writer.start()
            try:
                assert entered.wait(10.0)
                assert not server.gateway_lock.locked()
                # The commit is parked inside its append; reads flow.
                for probe in (3, 4, 5):
                    _same(reference.top_n(probe, n=5),
                          client.top_n(probe, n=5))
                assert not acked  # the ack still waits for the fsync
            finally:
                release.set()
                writer.join(10.0)
            log.append = real_append
            assert not writer.is_alive()
            assert acked == [user]
            expected = PredictionService(snapshot)
            folded = expected.fold_in(np.array([0, 1, 2]),
                                      np.array([4.0, 3.5, 2.0]))
            expected.add_ratings(folded, np.array([7]), np.array([5.0]))
            _same(expected.top_n(user, n=6), client.top_n(user, n=6))


def test_commit_holds_the_gateway_lock_only_to_validate_and_apply(snapshot):
    service = PredictionService(snapshot)
    leader = LeaderCoordinator(service, WriteAheadLog())
    held = collections.defaultdict(list)

    def spy(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            held[name].append(leader.gateway_lock.locked())
            return real(*args, **kwargs)
        setattr(owner, name, call)

    spy(service, "fold_in")
    spy(service, "add_ratings")
    spy(leader.log, "append")
    spy(leader, "_ship")
    user = leader.handle_mutation(
        "foldin", {"items": [0, 1], "values": [4.0, 3.0]})["user"]
    leader.handle_mutation("rate", {"user": user, "items": [2],
                                    "values": [1.5]})
    assert held == {"fold_in": [True], "add_ratings": [True],
                    "append": [False, False], "_ship": [False, False]}
    assert not leader.gateway_lock.locked()
    leader.close()


# ---------------------------------------------------------------------------
# reads racing writes
# ---------------------------------------------------------------------------

def test_reads_racing_writes_for_a_folded_in_user_end_fresh(snapshot):
    """Reads of a folded-in user race a stream of ``add_ratings`` for
    that user on both replicas.  Once the writes are acked and the
    readers stop, every replica's ``top_n`` for the user equals a fresh
    in-process service that replayed the same writes: no stale LRU
    vector survives the interleaving.  Four readers, a writer and two
    replicas' loop and executor threads share the cores, with a short
    switch interval so threads interleave inside the gateway calls."""
    rng = np.random.default_rng(7)
    fold_items = rng.choice(N_ITEMS, size=4, replace=False)
    fold_values = rng.integers(1, 11, size=4) / 2.0
    writes = [(int(rng.integers(N_ITEMS)), float(rng.integers(1, 11) / 2.0))
              for _ in range(40)]
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        with ServingClient(replicas.addresses[:1]) as writer:
            user = writer.fold_in(fold_items.tolist(), fold_values.tolist())
            stop = threading.Event()
            failures = []
            counts = [0, 0]

            def read(index: int) -> None:
                try:
                    with ServingClient([replicas.addresses[index]]) \
                            as client:
                        while not stop.is_set():
                            assert len(client.top_n(user, n=5)) == 5
                            counts[index] += 1
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

            readers = [threading.Thread(target=read, args=(index,))
                       for index in (0, 1, 0, 1)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in readers:
                    thread.start()
                _wait(lambda: min(counts) > 0 or failures,
                      "both replicas serving the user")
                for item, value in writes:
                    assert writer.rate(user, [item], [value]) == user
            finally:
                stop.set()
                for thread in readers:
                    thread.join(30.0)
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not failures, failures[:3]
        expected = PredictionService(snapshot)
        assert expected.fold_in(fold_items, fold_values) == user
        for item, value in writes:
            expected.add_ratings(user, np.array([item]), np.array([value]))
        for address in replicas.addresses:
            with ServingClient([address]) as client:
                for n in (5, N_ITEMS):
                    _same(expected.top_n(user, n=n), client.top_n(user, n=n))
        digests = [replica.server.call_serialized(
            replica.service.state_digest) for replica in replicas.replicas]
        assert digests == [expected.state_digest()] * 2
