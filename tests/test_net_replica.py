"""Replica failover: reads survive a replica dying.

Killing one of two replicas under a concurrent storm must keep **100% of
reads succeeding** (each bit-identical to the reference), with the
clients failing over automatically: the ``net-smoke`` drill checks that
and runs in ``tests/test_serving_drills.py``.  Mutations replicate
through the write leader (replica 0) and fail over exactly-once: each
carries a ``write_id`` the leader dedups.
"""

from __future__ import annotations

import threading
import types

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import Backoff, NetError, ReplicaSet, ServingClient
from repro.serving.net import client as client_module
from repro.serving.net.client import AsyncServingClient, _AddressRing
from repro.serving.service import PredictionService

N_USERS, N_ITEMS, K = 40, 29, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=5)


@pytest.fixture(scope="module")
def reference(snapshot):
    return PredictionService(snapshot)


def test_mutations_do_fail_over_when_nothing_was_sent(snapshot):
    """A fresh client whose first candidate is a dead *follower* never
    sends a byte of the request, so the mutation lands on the next
    replica, and is applied once."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        # Follower first in the ring, then the leader; kill the follower.
        addresses = list(reversed(replicas.addresses))
        replicas.kill(1)
        with ServingClient(addresses, cooldown=5.0, timeout=2.0) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert cold == N_USERS
            assert client.rate(cold, np.array([2]), np.array([3.5])) == cold
        assert replicas.replicas[0].service.stats()["n_folded_in"] == 1
        # A client pinned to the dead replica has nowhere to fail over.
        with ServingClient(addresses[:1], cooldown=0.05,
                           timeout=2.0) as pinned:
            with pytest.raises(NetError, match="every replica failed"):
                pinned.top_n(0, n=3)


def test_async_client_fails_over_too(snapshot, reference):
    import asyncio

    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        async def exercise():
            async with AsyncServingClient(replicas.addresses,
                                          cooldown=0.05) as client:
                before = await client.top_n(3, n=5)
                replicas.kill(0)
                after = await client.top_n(3, n=5)
                health = await client.health()
                return before, after, health

        before, after, health = asyncio.run(exercise())
    expected = reference.top_n(3, n=5)
    for served in (before, after):
        assert expected.items.tolist() == served.items.tolist()
        assert expected.scores.tobytes() == served.scores.tobytes()
    assert health["status"] == "ok"


def test_async_client_redials_a_connection_the_replica_closed(snapshot):
    """A killed replica closes its links; the cached connection sees its
    transport go, and the next request must redial (refused: fail over at
    once) rather than send into the dead link and wait out its timeout."""
    import asyncio

    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        async def exercise():
            async with AsyncServingClient(replicas.addresses[:1]) as client:
                await client.top_n(3, n=5)
                lost = client._connections[0].lost
                replicas.kill(0)
                await asyncio.wait_for(lost, timeout=10.0)
                with pytest.raises(ConnectionRefusedError):
                    await client._connect(0)

        asyncio.run(exercise())


def test_mutations_replicate_to_every_replica(snapshot):
    """fold-in through any replica is readable on all of them."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        first = ServingClient(replicas.addresses[:1])
        second = ServingClient(replicas.addresses[1:])
        with first, second:
            # Write through the *follower*: it forwards to the leader,
            # which ships back — read-your-writes on both.
            cold = second.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert cold == N_USERS
            assert first.stats()["n_folded_in"] == 1
            assert second.stats()["n_folded_in"] == 1
            assert len(first.top_n(cold, n=3)) == 3
            assert len(second.top_n(cold, n=3)) == 3
            digests = {client.health(digest=True)["digest"]
                       for client in (first, second)}
            assert len(digests) == 1


def test_a_replica_is_one_loop_thread_and_the_leader_adds_one_wal_thread(
        snapshot, tmp_path):
    """Thread census of a durable leader + follower pair: while it
    serves reads and writes (some through the follower's forward), the
    leader runs its loop thread and one WAL thread, the follower its
    loop thread only.  Nothing outlives ``kill`` + ``restart`` or
    ``stop``."""
    before = set(threading.enumerate())

    def census():
        return sorted(thread.name for thread in threading.enumerate()
                      if thread not in before)

    def traffic(addresses, user):
        with ServingClient(addresses) as client:
            client.rate(user, np.array([2]), np.array([1.5]))
            assert len(client.top_n(user, n=3)) == 3

    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, wal_dir=str(tmp_path / "wal")) \
            as replicas:
        with ServingClient(replicas.addresses[:1]) as client:
            user = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
        traffic(replicas.addresses[:1], user)
        traffic(replicas.addresses[1:], user)  # forwarded to the leader
        wal_thread = ["repro-wal_0"]
        assert census() == ["repro-net-replica-0", "repro-net-replica-1"] \
            + wal_thread
        replicas.kill(0)
        assert census() == ["repro-net-replica-1"]
        replicas.restart(0)
        traffic(replicas.addresses, user)
        assert census() == ["repro-net-replica-0", "repro-net-replica-1"] \
            + wal_thread
    assert census() == []


def test_address_ring_round_robin_and_cooldown(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(client_module, "time",
                        types.SimpleNamespace(monotonic=lambda: now[0]))
    backoff = Backoff(base=0.25, cap=0.25, jitter=0.0)
    ring = _AddressRing([("a", 1), ("b", 2), ("c", 3)], backoff=backoff)
    assert ring.candidates() == [0, 1, 2]
    ring.mark_used(0)
    assert ring.candidates() == [1, 2, 0]
    ring.mark_dead(1)
    assert ring.candidates() == [2, 0, 1]  # cooling replica is last resort
    now[0] += 0.125
    assert ring.candidates() == [2, 0, 1]  # still cooling
    now[0] += 0.125
    assert ring.candidates() == [1, 2, 0]  # cooldown expired
    with pytest.raises(ValueError):
        _AddressRing([])


def test_replica_set_validates_configuration(snapshot):
    with pytest.raises(ValueError, match="ports"):
        ReplicaSet(lambda index: PredictionService(snapshot),
                   n_replicas=2, ports=[0])
