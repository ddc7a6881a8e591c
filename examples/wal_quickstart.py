#!/usr/bin/env python3
"""Durable mutations quickstart: WAL -> leader kill -> exact recovery.

Walks the durable replicated mutation log (`repro.serving.wal`):

1. train BPMF and snapshot the posterior;
2. start a 3-replica :class:`ReplicaSet` with ``wal_dir`` set — replica
   0 is the write leader, every mutation is CRC-framed and fsynced into
   an append-only segment log before it is acked, then shipped to the
   followers over the same framed RPC (``wal_append``);
3. fold a cold-start user in and rate items through the ring client,
   then verify read-your-writes on EVERY replica: all three serve the
   new user and report the same state digest and applied seqno;
4. kill the leader mid-session: reads keep flowing through client
   failover while writes fail loudly (``retryable`` refusals — nothing
   is half-applied);
5. restart the leader: it replays its durable log (every acked write
   returns, write-id dedup intact) and writes resume exactly-once;
6. ground truth: replay the raw log into a FRESH single-process
   gateway and show its digest is bit-identical to the fleet's.

Run with:  PYTHONPATH=src python examples/wal_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BPMFConfig,
    CheckpointConfig,
    GibbsSampler,
    PredictionService,
    SamplerOptions,
    make_low_rank_dataset,
)
from repro.serving.net import NetError, ReplicaSet, ServingClient
from repro.serving.wal import MutationReplayer, WriteAheadLog


def fleet_digests(replicas: ReplicaSet) -> dict:
    """State digest per live replica, via pinned health probes."""
    digests = {}
    for address in replicas.addresses:
        with ServingClient([address]) as probe:
            health = probe.health(digest=True)
            digests[address] = (health["digest"],
                                health["wal"]["applied_seqno"])
    return digests


def main() -> None:
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "model.npz"
        wal_dir = Path(tmp) / "wal"

        # 1. Train with checkpointing; the snapshot is the serving handoff.
        config = BPMFConfig(num_latent=8, alpha=4.0, burn_in=3, n_samples=5)
        options = SamplerOptions(
            checkpoint=CheckpointConfig(path=snapshot_path, every=2))
        GibbsSampler(config, options).run(train, split, seed=0)

        # 2. Three replicas sharing one durable mutation log.  Replica 0
        #    is the write leader; `wal_dir` makes every ack mean "on
        #    disk", `wal_sync_every=1` fsyncs each record (raise it to
        #    trade durability lag for commit latency).
        with ReplicaSet(lambda index: PredictionService(snapshot_path),
                        n_replicas=3, wal_dir=str(wal_dir),
                        wal_sync_every=1) as replicas:
            print(f"serving on {replicas.addresses} "
                  f"(3 replicas, durable log at {wal_dir})")

            # 3. Mutations through the ring: the client attaches a
            #    write id to each, so retries apply exactly once.
            with ServingClient(replicas.addresses) as client:
                cold = client.fold_in(np.array([0, 3, 9]),
                                      np.array([5.0, 4.0, 4.5]))
                client.rate(cold, np.array([17, 60]), np.array([1.0, 2.0]))
                acked = client.last_seqno
            print(f"folded in user {cold}; 2 writes acked "
                  f"(log seqno {acked})")

            digests = fleet_digests(replicas)
            assert len(set(digests.values())) == 1, digests
            for address, (digest, applied) in digests.items():
                assert applied == acked
                print(f"  {address}: applied_seqno={applied} "
                      f"digest={digest[:12]}...")

            # 4. Kill the leader: reads ride failover, writes refuse.
            replicas.kill(0)
            with ServingClient(replicas.addresses, cooldown=0.1) as reader:
                served = reader.top_n(cold, n=5)
                print(f"leader down: top-5 for user {cold} still served "
                      f"-> {served.items.tolist()}")
                try:
                    reader.rate(cold, np.array([80]), np.array([3.0]))
                except NetError as error:
                    print(f"leader down: write refused loudly ({error})")
                else:
                    raise AssertionError("write should fail with no leader")

            # 5. Restart it: the log replays, dedup state and every
            #    acked write come back, and writes resume.
            replicas.restart(0)
            with ServingClient(replicas.addresses) as client:
                client.rate(cold, np.array([80]), np.array([3.0]))
                final_seqno = client.last_seqno
            recovered = replicas.wal_stats()[0]["log"]["recovered"]
            print(f"leader restarted: {recovered} records replayed from "
                  f"its log; write resumed (log seqno {final_seqno})")

            digests = fleet_digests(replicas)
            assert len(set(digests.values())) == 1, digests
            fleet_digest = next(iter(digests.values()))[0]

            # 6. Ground truth: a fresh gateway + the raw log must land
            #    on the same bits as the live fleet.
            replay_service = PredictionService(snapshot_path)
            replayer = MutationReplayer(replay_service)
            with WriteAheadLog(str(wal_dir)) as log:
                replayer.apply_all(log.records())
            assert replayer.applied_seqno == final_seqno
            assert replay_service.state_digest() == fleet_digest
            print(f"clean replay of {replayer.n_replayed} records matches "
                  f"the fleet digest bit-for-bit ({fleet_digest[:12]}...)")


if __name__ == "__main__":
    main()
