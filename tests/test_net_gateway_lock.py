"""The gateway on its owner loop: reads on the loop, commits that let
reads through.

Each replica's event loop owns its gateway; no lock guards gateway
state.  What is pinned here:

* an in-process gateway is scored on the loop thread, fused windows
  and their partition retries included;
* a gateway that is not in process never scores on the loop: its calls
  run on the server's private scorer thread — a real sharded scorer's
  reads and WAL applies included, though it is a PredictionService;
* a ``stall``ed gateway holds fused reads on the loop (which keeps
  reading and shedding), and a read whose deadline passes while it waits
  in its window is shed, not scored; reads resume after the stall;
* a leader commit appends on the WAL thread and validates and applies
  on the loop, commits serialize in seqno order, a read is served while
  a commit sits in its fsync, and the ack still waits for the fsync;
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
from repro.serving.cluster import ShardedScorer
from repro.serving.net import (Frame, FrameDecoder, ReplicaSet,
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


class _Spy(PredictionService):
    """An in-process gateway recording each batch call's users and
    thread; a batch holding ``poison`` raises."""

    poison = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []  # (users, thread ident)

    def top_n_batch(self, users, n=10, exclude_seen=True):
        self.calls.append((list(users), threading.get_ident()))
        if self.poison in users:
            raise ValueError(f"poisoned user {self.poison}")
        return super().top_n_batch(users, n=n, exclude_seen=exclude_seen)


def _spy_fleet(snapshot, spies, **options):
    def make(index):
        spies.append(_Spy(snapshot))
        return spies[-1]
    return ReplicaSet(make, n_replicas=1, **options)


# ---------------------------------------------------------------------------
# where gateway calls run
# ---------------------------------------------------------------------------

class _RemoteGateway:
    """A gateway that is not a PredictionService, recording the thread
    its batch calls run on."""

    def __init__(self, service: PredictionService):
        self._service = service
        self.calls = []  # (thread name, thread ident)

    def __getattr__(self, name):
        return getattr(self._service, name)

    def top_n_batch(self, users, n=10, exclude_seen=True):
        self.calls.append((threading.current_thread().name,
                           threading.get_ident()))
        return self._service.top_n_batch(users, n=n,
                                         exclude_seen=exclude_seen)


def test_a_gateway_that_is_not_in_process_never_scores_on_the_loop(
        snapshot, reference):
    gateways = []

    def make(index):
        gateways.append(_RemoteGateway(PredictionService(snapshot)))
        return gateways[-1]

    with ReplicaSet(make, n_replicas=1) as replicas:
        loop_thread = replicas.replicas[0].ident
        with ServingClient(replicas.addresses) as client:
            for user in (0, 3, 8):
                _same(reference.top_n(user, n=5), client.top_n(user, n=5))
    assert len(gateways[0].calls) == 3
    for thread_name, ident in gateways[0].calls:
        assert thread_name.startswith("repro-net-scorer")
        assert ident != loop_thread


class _ShardedSpy(ShardedScorer):
    """A real 2-shard gateway recording the thread of each batch read
    and each applied write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []  # (call, thread name, thread ident)

    def _record(self, call: str) -> None:
        self.calls.append((call, threading.current_thread().name,
                           threading.get_ident()))

    def top_n_batch(self, users, n=10, exclude_seen=True):
        self._record("top_n_batch")
        return super().top_n_batch(users, n=n, exclude_seen=exclude_seen)

    def fold_in(self, items, values):
        self._record("fold_in")
        return super().fold_in(items, values)

    def add_ratings(self, user, items, values):
        self._record("add_ratings")
        return super().add_ratings(user, items, values)


def test_a_sharded_scorer_never_scores_or_applies_on_the_loop(
        snapshot, reference, tmp_path):
    """The sharded scorer is a PredictionService, yet its calls (reads and
    WAL applies alike) run on the private scorer thread."""
    gateways = []

    def make(index):
        gateways.append(_ShardedSpy(snapshot, n_shards=2))
        return gateways[-1]

    expected = PredictionService(snapshot)
    cold_expected = expected.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
    expected.add_ratings(cold_expected, np.array([2]), np.array([1.5]))
    with ReplicaSet(make, n_replicas=1,
                    wal_dir=str(tmp_path / "wal")) as replicas:
        loop_thread = replicas.replicas[0].ident
        with ServingClient(replicas.addresses) as client:
            for user in (0, 3, 8):
                _same(reference.top_n(user, n=5), client.top_n(user, n=5))
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            client.rate(cold, np.array([2]), np.array([1.5]))
            _same(expected.top_n(cold, n=5), client.top_n(cold, n=5))
    assert cold == cold_expected
    calls = [call for call, _, _ in gateways[0].calls]
    assert calls.count("top_n_batch") == 4
    assert calls.count("fold_in") == 1
    assert calls.count("add_ratings") == 1
    for _, thread_name, ident in gateways[0].calls:
        assert thread_name.startswith("repro-net-scorer")
        assert ident != loop_thread


def test_in_process_reads_are_scored_on_the_loop(snapshot, reference):
    spies = []
    with _spy_fleet(snapshot, spies) as replicas:
        loop_thread = replicas.replicas[0].ident
        with ServingClient(replicas.addresses) as client:
            for user in (1, 2, 3):
                _same(reference.top_n(user, n=4), client.top_n(user, n=4))
        assert replicas.replicas[0].server.fuser.metrics()["windows"] == 3
    assert spies[0].calls == [([user], loop_thread) for user in (1, 2, 3)]


def test_free_lock_scores_the_window_inline_on_the_loop(snapshot, reference):
    """With nothing holding the gateway (no stall), one socket read
    carrying three reads, a user repeated, fuses them into one window
    that is scored once, inline on the loop thread."""
    spies = []
    with _spy_fleet(snapshot, spies) as replicas:
        loop_thread = replicas.replicas[0].ident
        connection = _RawConnection(replicas.addresses[0])
        connection.sock.sendall(b"".join(
            encode_frame(Frame("top_n", {"user": user, "n": 3,
                                         "id": index}))
            for index, user in enumerate((4, 5, 4))))
        replies = {}
        for _ in range(3):
            reply = connection.reply()
            replies[reply.payload["id"]] = reply
        connection.close()
        stats = replicas.replicas[0].server.fuser.metrics()
    for index, user in enumerate((4, 5, 4)):
        assert replies[index].payload["items"].tolist() == \
            reference.top_n(user, n=3).items.tolist()
    assert spies[0].calls == [([4, 5, 4], loop_thread)]
    assert stats["windows"] == 1 and stats["partitions"] == 0


def test_inline_window_that_raises_is_partitioned_inline(snapshot,
                                                         reference):
    """One socket read carrying three reads fuses them into one window;
    the poisoned user makes the batch raise, and the window is retried
    user by user — every call on the loop thread, only the poisoned
    read answered with an error."""
    spies = []
    with _spy_fleet(snapshot, spies) as replicas:
        spies[0].poison = 5
        loop_thread = replicas.replicas[0].ident
        connection = _RawConnection(replicas.addresses[0])
        connection.sock.sendall(b"".join(
            encode_frame(Frame("top_n", {"user": user, "n": 4,
                                         "id": index}))
            for index, user in enumerate((1, 5, 2))))
        replies = {}
        for _ in range(3):
            reply = connection.reply()
            replies[reply.payload["id"]] = reply
        connection.close()
        stats = replicas.replicas[0].server.fuser.metrics()
    assert "poisoned user 5" in replies[1].payload["message"]
    for index, user in ((0, 1), (2, 2)):
        assert replies[index].payload["items"].tolist() == \
            reference.top_n(user, n=4).items.tolist()
    assert spies[0].calls == [(users, loop_thread) for users in
                              ([1, 5, 2], [1], [5], [2])]
    assert stats["windows"] == 1 and stats["partitions"] == 1


class _RawConnection:
    """One hand-driven protocol connection."""

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
    """``stall`` holds every gateway call on the loop, so a fused read's
    window stays in flight behind the stall; a read with a 100 ms budget
    accumulates behind that window, its deadline passes before the
    400 ms fallback flush, and the fuser sheds it instead of scoring it.
    Once the stall is over, reads are scored again."""
    spies = []
    with _spy_fleet(snapshot, spies, fuse_window_ms=400.0) as replicas:
        server = replicas.replicas[0].server
        holder, late = (_RawConnection(replicas.addresses[0])
                        for _ in range(2))
        server.stall(1.0)
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
        assert stats["expired"] == 1 and stats["windows"] == 1
        assert server.stats()["n_deadline_shed"] == 1
        server.call_serialized(lambda: None)  # the stall is over
        holder.send(Frame("top_n", {"user": 2, "n": 5, "id": 3}))
        assert holder.reply().payload["items"].tolist() == \
            reference.top_n(2, n=5).items.tolist()
        holder.close()
        late.close()
    # The shed read was never scored.
    assert [users for users, _ in spies[0].calls] == [[0], [2]]


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
            threads = []

            def slow_append(payload):
                threads.append(threading.current_thread().name)
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
                # The commit is parked inside its append, on the WAL
                # thread; reads flow on the loop.
                assert threads[0].startswith("repro-wal")
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


def test_commit_appends_on_the_wal_thread_and_applies_on_the_loop(
        snapshot):
    """Validation and apply run on the loop, the append on the WAL
    thread; three commits started together serialize in seqno order."""
    service = PredictionService(snapshot)
    leader = LeaderCoordinator(service, WriteAheadLog())
    threads = collections.defaultdict(list)

    def spy(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            threads[name].append(threading.current_thread().name)
            return real(*args, **kwargs)
        setattr(owner, name, call)

    spy(service, "fold_in")
    spy(service, "add_ratings")
    spy(leader.log, "append")

    async def scenario():
        user = (await leader.handle_mutation(
            "foldin", {"items": [0, 1], "values": [4.0, 3.0]}))["user"]
        acks = await asyncio.gather(*(
            leader.handle_mutation("rate", {"user": user, "items": [item],
                                            "values": [1.5]})
            for item in (2, 3, 4)))
        await leader.close()
        return threading.current_thread().name, acks

    loop_thread, acks = asyncio.run(scenario())
    assert threads["fold_in"] == [loop_thread]
    assert threads["add_ratings"] == [loop_thread] * 3
    assert len(threads["append"]) == 4
    assert all(name.startswith("repro-wal") for name in threads["append"])
    assert [ack["seqno"] for ack in acks] == [2, 3, 4]
    assert [record.payload["items"] for record in leader.log.records(2)] \
        == [[2], [3], [4]]


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
