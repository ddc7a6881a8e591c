#!/usr/bin/env python3
"""Network serving quickstart: replicas -> fused queries -> failover.

Walks the network frontend (`repro.serving.net`):

1. train BPMF and snapshot the posterior;
2. start a 2-replica TCP server (:class:`ReplicaSet`) — each replica an
   independent gateway behind the framed RPC protocol, with fused
   batched dispatch on by default (pass ``fuse_window_ms=None`` to
   disable it);
3. query it from the blocking client (:class:`ServingClient`, a facade
   over :class:`AsyncServingClient` that runs each call on a private
   event loop; scores cross the wire as raw binary arrays) with a burst
   of concurrent requests, and verify every fused response is
   bit-identical to the single-process :class:`PredictionService`;
4. pump the same queries through one pipelined connection
   (``top_n_pipelined`` keeps up to 32 id-tagged frames in flight
   instead of one blocking round-trip per query) — same bits again;
5. fold a cold-start user in over the wire and rate more items
   (mutations replicate through the write leader — see
   ``examples/wal_quickstart.py`` for the durability story);
6. kill one replica mid-traffic and show reads keep succeeding through
   automatic client failover.

Run with:  PYTHONPATH=src python examples/net_serving_quickstart.py
"""

from __future__ import annotations

import tempfile
import threading
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
from repro.serving.net import ReplicaSet, ServingClient


def main() -> None:
    data = make_low_rank_dataset(n_users=300, n_movies=200, rank=6,
                                 density=0.15, noise_std=0.3, factor_std=1.5,
                                 seed=42)
    train, split = data.split.train, data.split

    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "model.npz"

        # 1. Train with checkpointing; the snapshot is the serving handoff.
        config = BPMFConfig(num_latent=8, alpha=4.0, burn_in=3, n_samples=5)
        options = SamplerOptions(
            checkpoint=CheckpointConfig(path=snapshot_path, every=2))
        GibbsSampler(config, options).run(train, split, seed=0)

        reference = PredictionService(snapshot_path)

        # 2. Two independent replicas; fused dispatch is the default, so
        #    concurrent top-N requests coalesce into one batched dispatch
        #    per window with zero added latency when idle.
        with ReplicaSet(lambda index: PredictionService(snapshot_path),
                        n_replicas=2) as replicas:
            print(f"serving on {replicas.addresses} (2 replicas, fused)")

            # 3. A concurrent burst: every fused response must be
            #    bit-identical to the single-process service.
            results: dict = {}

            def storm(users) -> None:
                with ServingClient(replicas.addresses) as client:
                    for user in users:
                        results[user] = client.top_n(user, n=5)

            threads = [threading.Thread(target=storm,
                                        args=(range(offset, 40, 4),))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 40, "a storm thread dropped queries"
            for user, served in results.items():
                expected = reference.top_n(user, n=5)
                assert served.items.tolist() == expected.items.tolist()
                assert served.scores.tobytes() == expected.scores.tobytes()
            fusion = replicas.replicas[0].server.fuser.metrics()
            print(f"{len(results)} fused queries, bit-identical to the "
                  f"single process ({fusion['windows']} windows on "
                  f"replica 0, largest {fusion['max_window']})")

            # 4. The same stream down ONE pipelined connection: id-tagged
            #    frames, up to 32 in flight, replies matched out of order.
            #    Item ids and scores cross as raw little-endian arrays.
            with ServingClient(replicas.addresses) as piped:
                pipelined = piped.top_n_pipelined(range(40), n=5,
                                                  max_in_flight=32)
            for user, served in enumerate(pipelined):
                expected = reference.top_n(user, n=5)
                assert served.items.tolist() == expected.items.tolist()
                assert served.scores.tobytes() == expected.scores.tobytes()
            print(f"{len(pipelined)} pipelined queries on one connection, "
                  f"bit-identical again")

            # 5. Mutations over the wire replicate through the write
            #    leader (replica 0), so any replica accepts them; a
            #    pinned client works too.
            with ServingClient(replicas.addresses[:1]) as pinned:
                cold = pinned.fold_in(np.array([0, 3, 9]),
                                      np.array([5.0, 4.0, 4.5]))
                before = pinned.top_n(cold, n=5)
                pinned.rate(cold, np.array([17, 60]), np.array([1.0, 2.0]))
                after = pinned.top_n(cold, n=5)
                print(f"fold-in user {cold}: top-5 {before.items.tolist()} "
                      f"-> {after.items.tolist()} after rating 2 more items")
                health = pinned.health()
                print(f"replica 0 health: {health['status']}, "
                      f"{health['server']['n_requests']} requests served")

            # 6. Kill replica 0 mid-traffic: the client fails reads over to
            #    the survivor; nothing is dropped.
            with ServingClient(replicas.addresses, cooldown=0.1) as client:
                client.top_n(0, n=5)
                replicas.kill(0)
                for user in range(10):
                    served = client.top_n(user, n=5)
                    expected = reference.top_n(user, n=5)
                    assert served.items.tolist() == expected.items.tolist()
                print("killed replica 0; 10/10 reads succeeded through "
                      f"failover ({client.n_failovers} in-request retries)")


if __name__ == "__main__":
    main()
