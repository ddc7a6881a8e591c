"""The injection shims under real components: sockets, WAL, workers.

Verifies each fault site does exactly what its action name says — and,
more importantly, that the stack's recovery contracts hold around them:
an injected WAL fault never leaves a partial record behind (the next
recovery is clean), an injected connect failure rides failover, and a
terminated shard worker respawns with bit-identical answers.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.bench.serving import make_bench_snapshot
from repro.serving.chaos import (
    ChaosSocket,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FleetConductor,
)
from repro.serving.cluster import ClusterError, ShardedScorer
from repro.serving.net import AsyncServingClient, ReplicaSet, ServingClient
from repro.serving.service import PredictionService
from repro.serving.wal.log import WalWriteError, WriteAheadLog
from repro.utils.validation import ValidationError

N_USERS, N_ITEMS, K = 40, 31, 4


@pytest.fixture(scope="module")
def snapshot():
    return make_bench_snapshot(N_USERS, N_ITEMS, K, seed=9)


def _injector(*events):
    return FaultInjector(FaultPlan(seed=0, events=list(events)))


# ---------------------------------------------------------------------------
# ChaosSocket
# ---------------------------------------------------------------------------

def test_chaos_socket_send_faults():
    left, right = socket.socketpair()
    try:
        chaos = ChaosSocket(left, _injector(
            FaultEvent("net.send", 2, "drop"),
            FaultEvent("net.send", 3, "reset")))
        chaos.sendall(b"hello")                  # step 1: untouched
        assert right.recv(64) == b"hello"
        chaos.sendall(b"vanishes")               # step 2: dropped
        right.settimeout(0.2)
        with pytest.raises(socket.timeout):
            right.recv(64)
        with pytest.raises(ConnectionResetError):
            chaos.sendall(b"boom")               # step 3: reset
    finally:
        left.close()
        right.close()


def test_chaos_socket_slow_read_degrades_to_single_bytes():
    left, right = socket.socketpair()
    try:
        chaos = ChaosSocket(left, _injector(
            FaultEvent("net.recv", 2, "slow")))
        right.sendall(b"abcdef")
        assert chaos.recv(64) == b"abcdef"       # step 1: untouched
        right.sendall(b"xyz")
        assert chaos.recv(64) == b"x"            # step 2 on: one byte
        assert chaos.recv(64) == b"y"
        assert chaos.recv(64) == b"z"
    finally:
        left.close()
        right.close()


def test_chaos_socket_dropped_reply_times_out_never_hangs():
    left, right = socket.socketpair()
    try:
        left.settimeout(0.2)
        chaos = ChaosSocket(left, _injector(
            FaultEvent("net.recv", 1, "drop")))
        right.sendall(b"the reply")
        with pytest.raises(socket.timeout):
            chaos.recv(64)
    finally:
        left.close()
        right.close()


def test_chaos_socket_drop_without_timeout_resets_instead():
    left, right = socket.socketpair()
    try:
        chaos = ChaosSocket(left, _injector(
            FaultEvent("net.recv", 1, "drop")))
        with pytest.raises(ConnectionResetError):
            chaos.recv(64)  # no timeout to wait out: reset, never hang
    finally:
        left.close()
        right.close()


# ---------------------------------------------------------------------------
# WAL fault sites
# ---------------------------------------------------------------------------

def test_wal_faults_roll_back_to_pre_append_state(tmp_path):
    """Torn writes (twice in a row — pinning the rollback-position fix)
    and a failed fsync all leave the log exactly as before the append;
    the next recovery sees a clean segment."""
    injector = _injector(
        FaultEvent("wal.append", 1, "torn"),
        FaultEvent("wal.append", 2, "torn"),
        FaultEvent("wal.fsync", 1, "fail"))
    log = WriteAheadLog(tmp_path, sync_every=1, fault_injector=injector)
    with pytest.raises(WalWriteError, match="torn"):
        log.append({"kind": "x", "i": 1})
    with pytest.raises(WalWriteError, match="torn"):
        log.append({"kind": "x", "i": 2})
    assert log.high_seqno == 0 and list(log.records()) == []
    with pytest.raises(WalWriteError, match="fsync"):
        log.append({"kind": "x", "i": 3})
    assert log.high_seqno == 0
    # The fault budget is exhausted; the next append lands as seqno 1.
    assert log.append({"kind": "x", "i": 4}) == 1
    assert log.stats()["injected_faults"] == 3
    log.close()

    recovered = WriteAheadLog(tmp_path)
    assert recovered.high_seqno == 1
    assert [record.payload["i"] for record in recovered.records()] == [4]
    assert recovered.stats()["recovered"] == 1
    recovered.close()


def test_wal_enospc_writes_no_bytes(tmp_path):
    injector = _injector(FaultEvent("wal.append", 2, "enospc"))
    log = WriteAheadLog(tmp_path, sync_every=1, fault_injector=injector)
    log.append({"kind": "x", "i": 1})
    segment = next(tmp_path.iterdir())
    size_before = segment.stat().st_size
    with pytest.raises(WalWriteError, match="ENOSPC"):
        log.append({"kind": "x", "i": 2})
    assert segment.stat().st_size == size_before
    assert log.append({"kind": "x", "i": 3}) == 2
    log.close()


def test_wal_faults_apply_to_in_memory_logs_too():
    injector = _injector(FaultEvent("wal.append", 1, "torn"))
    log = WriteAheadLog(None, fault_injector=injector)
    with pytest.raises(WalWriteError):
        log.append({"kind": "x", "i": 1})
    assert log.high_seqno == 0
    assert log.append({"kind": "x", "i": 2}) == 1
    log.close()


# ---------------------------------------------------------------------------
# worker and fleet chaos hooks
# ---------------------------------------------------------------------------

def test_kill_worker_raises_once_then_respawns_bit_identically(snapshot):
    with ShardedScorer(snapshot, n_shards=2) as scorer:
        expected = scorer.top_n(3, n=5)
        scorer.kill_worker(0)
        with pytest.raises(ClusterError):
            scorer.top_n(3, n=5)
        served = scorer.top_n(3, n=5)  # the pool respawned lazily
        assert expected.items.tolist() == served.items.tolist()
        assert expected.scores.tobytes() == served.scores.tobytes()
        with pytest.raises(ValidationError):
            scorer.kill_worker(99)


def test_injected_connect_failure_rides_failover(snapshot):
    injector = _injector(FaultEvent("net.connect", 1, "fail"))
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        reference = PredictionService(snapshot)
        with ServingClient(replicas.addresses, cooldown=0.05,
                           fault_injector=injector) as client:
            served = client.top_n(0, n=5)  # first connect dies, fails over
            assert served.items.tolist() == \
                reference.top_n(0, n=5).items.tolist()
            assert client.n_failovers == 1
            assert injector.log[0]["site"] == "net.connect"


def test_injected_reset_mid_stream_fails_over_reads(snapshot):
    injector = _injector(FaultEvent("net.recv", 3, "reset"))
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        reference = PredictionService(snapshot)
        with ServingClient(replicas.addresses, cooldown=0.05,
                           fault_injector=injector) as client:
            for user in range(6):  # one of these reads eats the reset
                served = client.top_n(user, n=5)
                assert served.items.tolist() == \
                    reference.top_n(user, n=5).items.tolist()
            assert injector.stats()["triggered"] == 1


#: Every client fault, each aimed at the first request's attempt, with the
#: failovers it must cost: ``net.send`` step 1 and ``net.recv`` step 1
#: are the hello's write and read, step 2 the first request's.
CLIENT_FAULTS = [
    ("net.connect", 1, "fail", 1),
    ("net.connect", 1, "delay", 0),
    ("net.send", 2, "delay", 0),
    ("net.send", 2, "drop", 1),
    ("net.send", 2, "reset", 1),
    ("net.recv", 2, "delay", 0),
    ("net.recv", 2, "drop", 1),
    ("net.recv", 2, "reset", 1),
    ("net.recv", 1, "slow", 0),
]
CLIENT_TIMEOUT = 1.0


@pytest.mark.parametrize("site, step, action, failovers", CLIENT_FAULTS,
                         ids=[f"{site}-{action}"
                              for site, _, action, _ in CLIENT_FAULTS])
def test_every_client_fault_on_the_async_transport(snapshot, site, step,
                                                   action, failovers):
    """Reads through one fault against a 2-replica fleet: every read is
    the reference bits, directly or after failover; ``n_failovers``
    matches the fault; no call waits out more than one client timeout
    per failover (a drop's lost frame costs exactly one)."""
    injector = _injector(FaultEvent(site, step, action,
                                    0.01 if action == "delay" else 0.0))
    reference = PredictionService(snapshot)
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        async def scenario():
            async with AsyncServingClient(
                    replicas.addresses, timeout=CLIENT_TIMEOUT,
                    cooldown=0.05, fault_injector=injector) as client:
                for user in range(3):
                    served = await asyncio.wait_for(
                        client.top_n(user, n=5),
                        CLIENT_TIMEOUT * (1 + failovers))
                    expected = reference.top_n(user, n=5)
                    assert served.items.tolist() == expected.items.tolist()
                    assert served.scores.tobytes() == \
                        expected.scores.tobytes()
                return client.n_failovers

        n_failovers = asyncio.run(scenario())
    assert [(fired["site"], fired["action"]) for fired in injector.log] \
        == [(site, action)]
    assert n_failovers == failovers
    if action == "slow":
        # One read per byte from the hello reply on: frames were
        # reassembled from single bytes.
        assert injector.counts()["net.recv"] > 100


def test_fleet_conductor_pause_and_kill(snapshot):
    plan = FaultPlan.generate(seed=4, n_events=0, n_replicas=2,
                              n_fleet_events=2, fleet_span=1.0)
    assert plan.fleet
    with ReplicaSet(lambda index: PredictionService(snapshot),
                    n_replicas=2) as replicas:
        conductor = FleetConductor(replicas, plan.fleet)
        conductor.start()
        log = conductor.finish(timeout=30.0)
        assert len(log) >= len(plan.fleet)
        # Every kill has a matching restart, and the fleet is whole.
        kills = sum(1 for entry in log if entry["action"] == "kill")
        restarts = sum(1 for entry in log if entry["action"] == "restart")
        assert kills == restarts
        assert len(replicas.addresses) == 2
        with ServingClient(replicas.addresses) as client:
            assert len(client.top_n(0, n=5)) == 5


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
