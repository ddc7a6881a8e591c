"""TCP serving frontend: wire parity, fusion, handshake, drain.

The load-bearing guarantee carries over from the cluster tests: whatever
transport or batching sits in front, a served ``top_n`` must be
bit-identical to the single-process :class:`PredictionService` — fused
windows included, exact ties included.  Servers here run through
:class:`ReplicaSet` (one replica unless stated), which is also how the
CLI runs them.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.cluster import ShardedScorer
from repro.serving.net import (
    AsyncServingClient,
    Frame,
    FrameDecoder,
    NetError,
    NetServer,
    PROTOCOL_VERSION,
    ReplicaSet,
    ServingClient,
    encode_frame,
)
from repro.serving.net.client import _AsyncConnection
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 50, 37, 4


@pytest.fixture(scope="module")
def snapshot():
    """Random posterior with exact score ties (duplicated item rows)."""
    snap = make_bench_snapshot(N_USERS, N_ITEMS, K, seed=3)
    snap.state.movie_factors[30] = snap.state.movie_factors[2]
    snap.state.movie_factors[35] = snap.state.movie_factors[2]
    return snap


@pytest.fixture(scope="module")
def reference(snapshot):
    return PredictionService(snapshot)


@pytest.fixture()
def replica_set(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        yield replicas


def _assert_same_recommendation(expected, served):
    assert expected.items.tolist() == served.items.tolist()
    assert expected.scores.tobytes() == served.scores.tobytes()


# ---------------------------------------------------------------------------
# wire-level parity
# ---------------------------------------------------------------------------

def test_top_n_and_predict_are_bit_identical_over_the_wire(replica_set,
                                                           reference):
    with ServingClient(replica_set.addresses) as client:
        for user in (0, 1, 17, N_USERS - 1):
            _assert_same_recommendation(reference.top_n(user, n=8),
                                        client.top_n(user, n=8))
        served = client.predict(4, 7)
        assert served == reference.predict(4, 7)
        batch = client.top_n_batch([0, 2, 5], n=6)
        expected = reference.top_n_batch([0, 2, 5], n=6)
        for user in expected:
            _assert_same_recommendation(expected[user], batch[user])


def test_foldin_rate_stats_and_health(replica_set, snapshot):
    oracle = PredictionService(snapshot)
    with ServingClient(replica_set.addresses) as client:
        items = np.array([0, 12, 36])
        values = np.array([4.0, 2.0, 5.0])
        cold = client.fold_in(items, values)
        assert cold == oracle.fold_in(items, values)
        _assert_same_recommendation(oracle.top_n(cold, n=6),
                                    client.top_n(cold, n=6))
        assert client.rate(cold, np.array([5, 6]),
                           np.array([2.0, 4.5])) == cold
        oracle.add_ratings(cold, np.array([5, 6]), np.array([2.0, 4.5]))
        _assert_same_recommendation(oracle.top_n(cold, n=6),
                                    client.top_n(cold, n=6))
        stats = client.stats()
        assert stats["n_folded_in"] == 1
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["n_users"] == N_USERS + 1
        assert health["server"]["n_requests"] > 0


def test_domain_errors_come_back_as_error_frames_not_failover(replica_set):
    with ServingClient(replica_set.addresses) as client:
        with pytest.raises(NetError, match="outside"):
            client.top_n(N_USERS + 5, n=3)
        with pytest.raises(NetError, match="outside"):
            client.predict(0, N_ITEMS + 1)
        # The connection survives a domain error: next request is served.
        assert len(client.top_n(0, n=3)) == 3
        assert client.n_failovers == 0


def test_sharded_gateway_health_reports_pool_counters(snapshot):
    with ReplicaSet(lambda index: ShardedScorer(snapshot, n_shards=2),
                    n_replicas=1) as replicas:
        with ServingClient(replicas.addresses) as client:
            client.top_n(0, n=3)
            health = client.health()
            stats = health["stats"]
            assert stats["pool_spawns"] == 1
            assert stats["pool_respawns"] == 0
            assert stats["pool_worker_deaths"] == 0
            assert stats["pool_registration_failures"] == 0
            # Kill a worker: the next request errors, the one after is
            # served by a respawned pool — and the counters say so.
            replicas.replicas[0].service._workers[0][0].terminate()
            replicas.replicas[0].service._workers[0][0].join(timeout=5.0)
            with pytest.raises(NetError):
                client.top_n(0, n=3)
            assert len(client.top_n(0, n=3)) == 3
            stats = client.health()["stats"]
            assert stats["pool_respawns"] == 1
            assert stats["pool_worker_deaths"] >= 1


# ---------------------------------------------------------------------------
# handshake and framing over a raw socket
# ---------------------------------------------------------------------------

def _raw_exchange(address, payload: bytes) -> Frame:
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.settimeout(10.0)
        sock.sendall(payload)
        decoder = FrameDecoder()
        while True:
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("closed without a reply")
            frames = decoder.feed(data)
            if frames:
                return frames[0]


def test_cross_version_handshake_is_refused(replica_set):
    address = replica_set.addresses[0]
    reply = _raw_exchange(address, encode_frame(
        Frame("hello", {"version": PROTOCOL_VERSION + 7})))
    assert reply.is_error
    assert "not supported" in reply.payload["message"]
    assert reply.payload["server_version"] == PROTOCOL_VERSION


def test_garbage_bytes_get_an_error_frame_and_a_closed_connection(
        replica_set):
    reply = _raw_exchange(replica_set.addresses[0], b"\x00" * 64)
    assert reply.is_error and "magic" in reply.payload["message"]


def test_request_before_hello_is_refused(replica_set):
    reply = _raw_exchange(replica_set.addresses[0], encode_frame(
        Frame("top_n", {"user": 0, "n": 3})))
    assert reply.is_error and "handshake" in reply.payload["message"]


def test_malformed_array_block_is_a_counted_protocol_error(
        replica_set, wrapped_array_frame):
    """The server answers an undecodable array block with an error frame
    and counts it, like any other framing violation."""
    server = replica_set.replicas[0].server
    address = replica_set.addresses[0]
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.settimeout(10.0)
        sock.sendall(encode_frame(Frame("hello",
                                        {"version": PROTOCOL_VERSION})))
        decoder = FrameDecoder()
        frames = decoder.feed(sock.recv(1 << 16))
        sock.sendall(wrapped_array_frame)
        while len(frames) < 2:
            data = sock.recv(1 << 16)
            if not data:
                break  # closed without an error frame
            frames += decoder.feed(data)
    hello, refusal = frames
    assert not hello.is_error
    assert refusal.is_error
    assert "truncates an array" in refusal.payload["message"]
    assert server.stats()["n_protocol_errors"] == 1


def test_async_client_fails_a_malformed_reply_at_once(wrapped_array_frame):
    """A reply the decoder refuses fails its request through the reader
    task (no wait for the request's 30 s timeout): the error is the
    protocol error, not a timeout."""
    async def fake_replica(reader, writer):
        decoder = FrameDecoder()

        async def next_frame():
            frames = []
            while not frames:
                data = await reader.read(1 << 16)
                if not data:
                    raise ConnectionError("client hung up")
                frames = decoder.feed(data)

        await next_frame()  # the hello
        writer.write(encode_frame(Frame("ok", {
            "version": PROTOCOL_VERSION})))
        await next_frame()  # the request
        writer.write(wrapped_array_frame)
        await reader.read()  # until the client hangs up
        writer.close()

    async def scenario():
        server = await asyncio.start_server(fake_replica, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        try:
            async with AsyncServingClient([address], timeout=30.0) as client:
                with pytest.raises(NetError, match="truncates an array"):
                    await client.top_n(0, n=3)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_async_roundtrip_deadline_and_cancel_leave_nothing_behind(snapshot):
    """One timer per request: a request to a stalled server fails when
    its timer fires, and both it and a cancelled request leave an empty
    ``pending`` map and no live timer handle."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1) as replicas:
        server = replicas.replicas[0].server

        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []  # (handle, fired?)
            real_call_later = loop.call_later

            def call_later(delay, callback, *args, **kwargs):
                fired = []

                def fire(*fire_args):
                    fired.append(True)
                    return callback(*fire_args)

                handle = real_call_later(delay, fire, *args, **kwargs)
                timers.append((handle, fired))
                return handle

            def live_timers():
                return [handle for handle, fired in timers
                        if not handle.cancelled() and not fired]

            async with AsyncServingClient(replicas.addresses,
                                          timeout=30.0) as client:
                await client.top_n(0, n=3)  # connect + handshake
                first = client._connections[0]
                loop.call_later = call_later
                server.stall(1.0)
                begin = loop.time()
                with pytest.raises(NetError, match="TimeoutError"):
                    await client.top_n(1, n=3, timeout=0.2)
                assert loop.time() - begin >= 0.2
                assert [fired for _, fired in timers] == [[True]]
                assert first.pending == {} and live_timers() == []

                request = asyncio.ensure_future(client.top_n(2, n=3))
                while not (client._connections
                           and client._connections[0].pending):
                    await asyncio.sleep(0.001)
                second = client._connections[0]
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request
                assert second.pending == {} and live_timers() == []
                del loop.call_later

        asyncio.run(scenario())


def test_stop_flushes_a_held_fused_reply_and_closes_idle_links(snapshot):
    """stop() with one id-tagged ``top_n`` held behind a stalled gateway
    and another connection idle: the held reply arrives before its
    socket closes, and the idle connection is closed — nobody waits out
    a timeout."""
    hello = encode_frame(Frame("hello", {"version": PROTOCOL_VERSION}))
    replicas = ReplicaSet(lambda index: PredictionService(snapshot),
                          n_replicas=1).start()
    server = replicas.replicas[0].server
    address = replicas.addresses[0]
    held = socket.create_connection(address, timeout=10.0)
    idle = socket.create_connection(address, timeout=10.0)
    decoders = {held: FrameDecoder(), idle: FrameDecoder()}
    try:
        for sock in (held, idle):  # both handshakes done before stop()
            sock.settimeout(10.0)
            sock.sendall(hello)
            assert not decoders[sock].feed(sock.recv(1 << 16))[0].is_error
        server.stall(0.3)
        held.sendall(encode_frame(Frame("top_n",
                                        {"user": 4, "n": 3, "id": 9})))
        give_up = time.monotonic() + 10.0
        while server.stats()["n_requests"] < 1:  # the server holds it
            assert time.monotonic() < give_up, "request never admitted"
        replicas.stop()
        frames = {}
        for sock in (held, idle):
            frames[sock] = []
            while True:
                data = sock.recv(1 << 16)  # EOF ends the loop
                if not data:
                    break
                frames[sock] += decoders[sock].feed(data)
    finally:
        held.close()
        idle.close()
        replicas.stop()
    assert frames[idle] == []
    (reply,) = frames[held]
    expected = PredictionService(snapshot).top_n(4, n=3)
    assert reply.payload["id"] == 9
    assert reply.payload["items"].tolist() == expected.items.tolist()
    assert np.array(reply.payload["scores"]).tobytes() == \
        expected.scores.tobytes()


def test_request_ids_are_echoed(replica_set):
    wire = encode_frame(Frame("hello", {"version": PROTOCOL_VERSION}))
    wire += encode_frame(Frame("top_n", {"user": 0, "n": 3, "id": 41}))
    with socket.create_connection(replica_set.addresses[0],
                                  timeout=10.0) as sock:
        sock.settimeout(10.0)
        sock.sendall(wire)
        decoder = FrameDecoder()
        frames = []
        while len(frames) < 2:
            frames += decoder.feed(sock.recv(1 << 16))
    assert frames[0].payload["version"] == PROTOCOL_VERSION
    assert frames[1].payload["id"] == 41


# ---------------------------------------------------------------------------
# wire parity and pipelining
# ---------------------------------------------------------------------------

def test_binary_frames_serve_identical_bits(replica_set, reference):
    """Raw array blocks over the wire, the in-process bytes out — ties
    included."""
    with ServingClient(replica_set.addresses) as client:
        for user in (0, 2, 17, N_USERS - 1):
            _assert_same_recommendation(reference.top_n(user, n=8),
                                        client.top_n(user, n=8))


def test_predict_batch_over_the_wire(replica_set, reference):
    users = np.array([0, 1, 2, 17, 2])
    items = np.array([3, 5, 1, 30, 35])
    expected = reference.predict_batch(users, items)
    with ServingClient(replica_set.addresses) as client:
        served = client.predict_batch(users, items)
    assert served.dtype == np.float64
    assert served.tobytes() == expected.tobytes()


def test_pipelined_top_n_matches_sequential_bit_for_bit(replica_set,
                                                        reference):
    users = list(range(0, N_USERS, 3)) + [2, 2]  # duplicates served too
    with ServingClient(replica_set.addresses) as client:
        served = client.top_n_pipelined(users, n=6, max_in_flight=8)
    assert len(served) == len(users)
    for user, recommendation in zip(users, served):
        _assert_same_recommendation(reference.top_n(user, n=6),
                                    recommendation)


def test_pipelined_invalid_user_raises_after_the_window_drains(replica_set):
    with ServingClient(replica_set.addresses) as client:
        with pytest.raises(NetError, match="1 of 3 pipelined"):
            client.top_n_pipelined([0, N_USERS + 9, 2], n=3)
        # The connection is still in sync afterwards.
        assert len(client.top_n(0, n=3)) == 3
        assert client.n_failovers == 0


def test_async_pipelined_top_n_matches_sequential(replica_set, reference):
    from repro.serving.net import AsyncServingClient

    users = list(range(0, N_USERS, 5))

    async def scenario():
        client = AsyncServingClient(replica_set.addresses)
        try:
            return await client.top_n_pipelined(users, n=6, max_in_flight=4)
        finally:
            await client.close()

    served = asyncio.run(scenario())
    for user, recommendation in zip(users, served):
        _assert_same_recommendation(reference.top_n(user, n=6),
                                    recommendation)


class _ChunkCounter(_AsyncConnection):
    __slots__ = ("chunks",)

    def __init__(self):
        super().__init__()
        self.chunks = 0

    def data_received(self, data: bytes) -> None:
        self.chunks += 1
        super().data_received(data)


def test_client_consumes_two_frames_from_one_recv():
    """One chunk completing several frames must not drop any of them:
    the hello reply with a reply decoded behind it, then two replies.
    The bytes are all written before the connection's transport starts
    reading, so its first ``data_received`` gets every frame at once."""
    async def scenario():
        left, right = socket.socketpair()
        connection = _ChunkCounter()
        loop = asyncio.get_running_loop()
        futures = {key: loop.create_future() for key in (None, 0, 1, 2)}
        connection.pending.update(futures)
        left.sendall(encode_frame(Frame("ok", {"version": PROTOCOL_VERSION}))
                     + b"".join(encode_frame(Frame("ok", {"id": key,
                                                          "user": key}))
                                for key in (0, 1, 2)))
        left.close()  # the read after these frames sees EOF
        await loop.create_connection(lambda: connection, sock=right)
        try:
            hello = await futures[None]
            replies = [await futures[key] for key in (0, 1, 2)]
            await connection.lost  # EOF ends the connection
        finally:
            connection.transport.close()
        assert connection.chunks == 1
        assert hello.payload["version"] == PROTOCOL_VERSION
        assert [reply.payload["user"] for reply in replies] == [0, 1, 2]
        assert connection.pending == {}

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# cross-user query fusion
# ---------------------------------------------------------------------------

def test_fused_reads_create_no_task_per_request(snapshot, reference):
    """The flat path, counted rather than timed: with the server on the
    test's own loop, a counting task factory sees every task either side
    creates.  200 pipelined untraced ``top_n`` requests create the one
    task each that ``top_n_pipelined`` runs them in, and nothing else —
    no request task, reader task or window task on the server, no dial
    or wait task in the client — while they still fuse, bit-exact."""
    users = [user % N_USERS for user in range(200)]
    created = []

    def counting_factory(loop, coro, **kwargs):
        created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def scenario():
        server = await NetServer(PredictionService(snapshot)).start()
        try:
            async with AsyncServingClient([("127.0.0.1", server.port)]) \
                    as client:
                await client.top_n(0, n=5)  # dial and hello first
                loop = asyncio.get_running_loop()
                loop.set_task_factory(counting_factory)
                try:
                    served = await client.top_n_pipelined(
                        users, n=5, max_in_flight=32)
                finally:
                    loop.set_task_factory(None)
        finally:
            await server.stop()
        return served, server.fuser.metrics()

    served, fusion = asyncio.run(scenario())
    runners = "AsyncServingClient.top_n_pipelined.<locals>.one"
    assert created.count(runners) == len(users)
    assert [name for name in created if name != runners] == []
    assert fusion["windows"] < fusion["requests"]
    for user, recommendation in zip(users, served):
        _assert_same_recommendation(reference.top_n(user, n=5),
                                    recommendation)


def test_fused_top_n_is_bit_identical_to_unfused(snapshot, reference):
    """The acceptance criterion: fusion changes batching, never bits.

    A storm of concurrent single-user requests against a fused server
    must produce responses bit-identical (items and score bytes, exact
    ties included) to the unfused single-user path.
    """
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, fuse_window_ms=5.0) as replicas:
        results: dict = {}
        failures: list = []
        lock = threading.Lock()

        def storm(offset: int) -> None:
            try:
                with ServingClient(replicas.addresses) as client:
                    for user in range(offset, N_USERS, 4):
                        served = client.top_n(user, n=7)
                        with lock:
                            results[user] = served
            except Exception as error:  # noqa: BLE001
                with lock:
                    failures.append(error)

        threads = [threading.Thread(target=storm, args=(offset,))
                   for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not failures, failures[:3]
        fuser = replicas.replicas[0].server.fuser
        stats = fuser.metrics()

    assert len(results) == N_USERS  # every user asked exactly once
    for user, served in results.items():
        _assert_same_recommendation(reference.top_n(user, n=7), served)
    # Fusion actually happened: fewer windows than requests.
    assert stats["requests"] == len(results)
    assert 0 < stats["windows"] < stats["requests"]
    assert stats["max_window"] >= 2


def test_fused_bad_request_cannot_poison_the_window(snapshot, reference):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, fuse_window_ms=20.0) as replicas:
        outcomes: dict = {}

        def one(user: int) -> None:
            with ServingClient(replicas.addresses) as client:
                try:
                    outcomes[user] = client.top_n(user, n=5)
                except NetError as error:
                    outcomes[user] = error

        threads = [threading.Thread(target=one, args=(user,))
                   for user in (2, N_USERS + 9, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

    assert isinstance(outcomes[N_USERS + 9], NetError)
    for user in (2, 7):
        _assert_same_recommendation(reference.top_n(user, n=5),
                                    outcomes[user])


def test_fusion_deduplicates_same_user_in_one_window(snapshot, reference):
    # Eight id-tagged requests written in one sendall land in one socket
    # read, so the duplicates are co-decoded and join one fused window
    # deterministically (with eager dispatch, requests on separate
    # connections or reads may each go out alone).
    burst = b"".join(encode_frame(Frame("top_n", {
        "user": 11, "n": 5, "exclude_seen": True, "id": slot}))
        for slot in range(8))
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=1, fuse_window_ms=25.0) as replicas:
        with socket.create_connection(replicas.addresses[0],
                                      timeout=10.0) as sock:
            sock.settimeout(10.0)
            sock.sendall(encode_frame(Frame("hello",
                                            {"version": PROTOCOL_VERSION})))
            decoder = FrameDecoder()
            frames = []
            while not frames:  # the hello reply
                frames += decoder.feed(sock.recv(1 << 16))
            sock.sendall(burst)
            while len(frames) < 9:
                data = sock.recv(1 << 16)
                if not data:
                    break
                frames += decoder.feed(data)
        stats = replicas.replicas[0].server.fuser.metrics()

    hello, *replies = frames
    assert not hello.is_error
    assert sorted(reply.payload["id"] for reply in replies) == list(range(8))
    expected = reference.top_n(11, n=5)
    for reply in replies:
        assert reply.payload["items"].tolist() == expected.items.tolist()
        assert np.array(reply.payload["scores"]).tobytes() == \
            expected.scores.tobytes()
    assert stats["deduplicated"] >= 1


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------

def test_stop_drains_and_refuses_new_connections(snapshot, reference):
    replicas = ReplicaSet(lambda index: PredictionService(snapshot),
                          n_replicas=1)
    replicas.start()
    address = replicas.addresses[0]
    client = ServingClient([address])
    _assert_same_recommendation(reference.top_n(3, n=5),
                                client.top_n(3, n=5))
    replicas.stop()
    # The idle cached connection was woken and closed by the drain; a
    # fresh connect is refused outright.
    with pytest.raises(NetError):
        client.top_n(3, n=5)
    client.close()
    # Stopping again is a no-op.
    replicas.stop()
