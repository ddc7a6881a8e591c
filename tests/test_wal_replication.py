"""The replicated mutation log end to end: exactly-once, convergence.

What is pinned here (the PR's acceptance bar):

* a duplicate-delivered shipment applies exactly once (the replayer's
  high-water mark), and a duplicate client retry gets the *original*
  ack back (the leader's write_id dedup — including across a leader
  restart, rebuilt from the log);
* acked writes are immediately readable on every live replica
  (read-your-writes across the fleet), with bit-identical state
  digests;
* killing the write leader mid-storm loses **zero acked writes** (the
  ``wal-smoke`` drill, run in ``tests/test_serving_drills.py``);
* a follower that missed shipments (cooldown, restart) closes the gap
  by seqno-range catch-up.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.net import NetError, ReplicaSet, ServingClient
from repro.serving.service import PredictionService
from repro.serving.wal import (
    LeaderCoordinator,
    MutationReplayer,
    WalGapError,
    WalRecord,
    WriteAheadLog,
    mutation_record_payload,
)

N_USERS, N_ITEMS, K = 40, 29, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=9)


def _service(snapshot) -> PredictionService:
    return PredictionService(snapshot)


# -- coordinator-level exactly-once -----------------------------------------


def test_duplicate_client_retry_returns_the_original_ack(snapshot):
    service = _service(snapshot)
    leader = LeaderCoordinator(service, WriteAheadLog())

    async def commit_twice():
        first = await leader.handle_mutation(
            "foldin", {"items": [0, 1], "values": [4.0, 3.0],
                       "write_id": "w-1"})
        again = await leader.handle_mutation(
            "foldin", {"items": [0, 1], "values": [4.0, 3.0],
                       "write_id": "w-1"})
        await leader.close()
        return first, again

    first, again = asyncio.run(commit_twice())
    assert again == first
    assert service.stats()["n_folded_in"] == 1  # applied exactly once
    assert leader.stats()["dedup_hits"] == 1
    assert leader.stats()["high_seqno"] == 1


def test_write_dedup_survives_a_leader_restart(snapshot, tmp_path):
    payload = {"items": [0, 1], "values": [4.0, 3.0], "write_id": "w-9"}

    async def commit_and_close(leader, payload):
        ack = await leader.handle_mutation("foldin", payload)
        await leader.close()
        return ack

    leader = LeaderCoordinator(_service(snapshot), WriteAheadLog(tmp_path))
    first = asyncio.run(commit_and_close(leader, payload))

    service = _service(snapshot)
    revived = LeaderCoordinator(service, WriteAheadLog(tmp_path))
    assert revived.stats()["log"]["recovered"] == 1
    again = asyncio.run(commit_and_close(revived, dict(payload)))
    assert again == first  # the retry spans the crash, still exactly-once
    assert service.stats()["n_folded_in"] == 1


def test_replayer_skips_duplicates_and_refuses_gaps(snapshot):
    service = _service(snapshot)
    source = _service(snapshot)
    records = []
    for seqno, (items, values) in enumerate(
            [([0, 1], [4.0, 3.0]), ([2], [5.0])], start=1):
        payload = mutation_record_payload(
            source, "foldin", {"items": items, "values": values})
        source.fold_in(np.array(items), np.array(values))
        records.append(WalRecord(seqno=seqno, payload=payload))

    replayer = MutationReplayer(service)
    assert replayer.apply(records[0]) is not None
    assert replayer.apply(records[0]) is None  # duplicate: counted no-op
    assert replayer.stats()["duplicates_skipped"] == 1
    with pytest.raises(WalGapError, match="expecting 2"):
        replayer.apply(WalRecord(seqno=3, payload=records[1].payload))
    assert replayer.apply(records[1]) is not None
    assert service.stats()["n_folded_in"] == 2
    assert str(service.state_digest()) == str(source.state_digest())


# -- fleet-level behaviour ---------------------------------------------------


def _digests(replicas) -> set:
    digests = set()
    for address in replicas.addresses:
        with ServingClient([address]) as pinned:
            digests.add(pinned.health(digest=True)["digest"])
    return digests


def test_acked_writes_are_read_your_writes_fleet_wide(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=3) as replicas:
        with ServingClient(replicas.addresses) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            client.rate(cold, np.array([2]), np.array([3.5]))
            assert client.last_seqno == 2
        for address in replicas.addresses:
            with ServingClient([address]) as pinned:
                assert len(pinned.top_n(cold, n=3)) == 3
                assert pinned.stats()["n_folded_in"] == 1
        assert len(_digests(replicas)) == 1
        roles = [stats["role"] for stats in replicas.wal_stats()]
        assert roles == ["leader", "follower", "follower"]


def test_mutations_retry_exactly_once_across_a_dead_follower(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=3) as replicas:
        # Ring ordered follower-1 first so the mutation's first attempt
        # lands there; kill it once the connection is cached.
        addresses = [replicas.addresses[1], replicas.addresses[0],
                     replicas.addresses[2]]
        with ServingClient(addresses, cooldown=0.05) as client:
            for _ in range(len(addresses)):  # wrap the ring back to the
                assert len(client.top_n(0, n=3)) == 3  # dead-to-be follower
            replicas.kill(1)
            # The retryable write fails over off the dead follower and
            # applies exactly once.
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            assert cold == N_USERS
            assert client.n_failovers >= 1
        leader_stats = replicas.wal_stats()[0]
        assert leader_stats["high_seqno"] == 1
        assert replicas.replicas[0].service.stats()["n_folded_in"] == 1
        assert replicas.replicas[2].service.stats()["n_folded_in"] == 1


def test_restarted_follower_catches_up_by_seqno_range(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=3) as replicas:
        with ServingClient(replicas.addresses) as client:
            client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
        replicas.kill(2)
        with ServingClient(replicas.addresses) as client:
            cold = client.fold_in(np.array([2]), np.array([5.0]))
            client.rate(cold, np.array([3]), np.array([1.5]))
        replicas.restart(2)
        stats = replicas.wal_stats()[2]
        assert stats["applied_seqno"] == 3
        assert stats["catchup_batches"] >= 1
        assert len(_digests(replicas)) == 1


def test_kill_drops_a_commit_parked_on_a_silent_follower(snapshot,
                                                         tmp_path):
    """A hard kill is a crash, not a drain: the write parked in its
    commit, its shipment waiting on a follower that never answers, is
    dropped rather than waited out, so its client sees the connection go
    instead of an ack (waiting it out would end in an ack once the
    shipment timed out).  The restarted leader recovers every acked
    write from its log."""
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, wal_dir=str(tmp_path / "wal")) as replicas:
        leader = replicas.addresses[:1]
        with ServingClient(leader) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 3.0]))
            acked = client.last_seqno
        follower = replicas.replicas[1].server
        shipments = follower.stats()["n_requests"]
        replicas.pause(1, 3600.0)  # the follower never answers again
        outcome = []

        def parked_write() -> None:
            with ServingClient(leader, timeout=60.0) as client:
                try:
                    outcome.append(client.rate(cold, np.array([2]),
                                               np.array([3.5])))
                except NetError as error:
                    outcome.append(error)

        writer = threading.Thread(target=parked_write, daemon=True)
        writer.start()
        give_up = time.monotonic() + 10.0
        while follower.stats()["n_requests"] == shipments:
            assert time.monotonic() < give_up, "the shipment never arrived"
        replicas.kill(0)
        writer.join(timeout=30.0)
        assert not writer.is_alive()
        assert isinstance(outcome[0], NetError), outcome
        replicas.kill(1)  # stalled or not, a kill does not wait
        replicas.restart(0)
        assert replicas.wal_stats()[0]["high_seqno"] >= acked
        with ServingClient(replicas.addresses) as client:
            assert client.stats()["n_folded_in"] == 1
            assert len(client.top_n(cold, n=3)) == 3


def test_wal_counters_surface_in_health_and_stats(snapshot):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        with ServingClient(replicas.addresses) as client:
            client.fold_in(np.array([0]), np.array([4.0]))
            health = client.health()
            stats = client.stats()
        assert health["wal"]["role"] in ("leader", "follower")
        assert health["wal"]["applied_seqno"] == 1
        assert "wal" not in stats  # the coordinator reports itself
        leader = replicas.wal_stats()[0]
        assert leader["log"]["appended"] == 1
        assert leader["shipped"] == 1
        assert leader["duplicates_skipped"] == 0


def _paths(tree, prefix=()):
    """Every leaf of a nested reply as a key path, dotted names split, so
    a dotted copy (``"wal.high_seqno"``) matches a nested one."""
    for key, value in tree.items():
        path = prefix + tuple(str(key).split("."))
        if isinstance(value, dict):
            yield from _paths(value, path)
        else:
            yield path


def test_each_wal_counter_is_reported_once(snapshot, tmp_path):
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2, wal_dir=str(tmp_path)) as replicas:
        with ServingClient(replicas.addresses[:1]) as client:
            cold = client.fold_in(np.array([0, 1]), np.array([4.0, 2.5]))
            client.rate(cold, np.array([2]), np.array([3.5]))
            client.top_n(cold, n=5)
            health = client.health()
            series = client.metrics()
        wal_stats = replicas.wal_stats()
    # The health frame has no dotted copy, and each WAL counter sits
    # under one path of it: its "wal" block.
    assert "metrics" not in health
    reply = list(_paths(health))
    for counter in _paths(health["wal"]):
        copies = [path for path in reply if path[-len(counter):] == counter]
        assert copies == [("wal",) + counter]
    # The registry snapshot holds each WAL counter once per replica.
    for replica, stats in enumerate(wal_stats):
        label = f"{{replica={replica}}}"
        names = [tuple(key[:-len(label)].split(".")) for key in series
                 if key.endswith(label)]
        for counter in _paths(stats):
            copies = [name for name in names
                      if name[-len(counter):] == counter]
            assert copies == [("wal",) + counter]
